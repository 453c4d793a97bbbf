"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The directional criteria (9, 10) train real models at desk scale
and take about 15 s together on 2 vCPUs.
"""

import math

import numpy as np
import pytest

from boxperturb import data as data_mod
from boxperturb import toyseg
from boxperturb.geometry import BoundingBox, Coefficients, coefficients_for
from boxperturb.loss import bce, dice_loss, loss_gradient, weight_decay_penalty
from boxperturb.metrics import distance_transform, dsc, nsd
from boxperturb.perturb import (PerturbationConfig, PerturbationStats, compute_offsets,
                                sample_perturbed_box)
from boxperturb.rng import make_rng

from oracles import brute_distance_grid, brute_nsd, finite_difference


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def random_mask(key, shape=(64, 64), p=0.1):
    return make_rng(*key).random(shape) < p


def test_criterion_1_metric_identities_and_symmetry():
    taus = (0.0, 1.0, 2.0, 5.0)
    for i in range(100):
        m = random_mask((900, i), shape=(32, 32), p=0.15)
        assert dsc(m, m) == 1.0
        for tau in taus:
            assert nsd(m, m, tau) == 1.0
    for i in range(100):
        g = random_mask((901, i), shape=(32, 32), p=0.15)
        s = random_mask((902, i), shape=(32, 32), p=0.15)
        assert dsc(g, s) == dsc(s, g)
        assert nsd(g, s, 2.0) == nsd(s, g, 2.0)
    _report(1, "dsc/nsd identity on 100 masks (tau in {0,1,2,5}) and "
               "symmetry on 100 pairs, exact")


def test_criterion_2_nsd_oracle_equivalence():
    for i in range(200):
        g = random_mask((910, i), p=0.08)
        s = random_mask((911, i), p=0.08)
        assert nsd(g, s, 2.0) == brute_nsd(g, s, 2.0)
    _report(2, "range-query NSD (count_within) equals brute-force pairwise NSD exactly "
               "on 200 random 64x64 pairs at tau=2")


def test_criterion_3_distance_transform_exactness():
    for i in range(500):
        src = random_mask((920, i), p=0.03)
        if not src.any():
            src[11, 17] = True
        assert (distance_transform(src) == brute_distance_grid(src)).all()
    _report(3, "distance transform equals brute-force nearest-source "
               "distance on 500 random 64x64 instances, zero tolerance")


def test_criterion_4_loss_hand_values():
    assert abs(bce(np.array([[0.5]]), np.array([[1.0]])) - math.log(2)) < 1e-12
    assert abs(dice_loss(np.full((2, 2), 0.5), np.ones((2, 2))) - 0.2) < 1e-12
    assert weight_decay_penalty(np.array([3.0, 4.0]), 0.1) == 1.25
    _report(4, "bce(g=1,s=0.5)=ln2, dice(1^4,0.5^4)=0.2 within 1e-12; "
               "wd penalty(0.1,(3,4))=1.25 exact")


def test_criterion_5_gradient_checks():
    # Pixel-space gradients.
    for i in range(100):
        rng = make_rng(930, i)
        s = rng.uniform(0.05, 0.95, size=(16, 16))
        g = (rng.random((16, 16)) < 0.4).astype(float)
        analytic = loss_gradient(s, g)
        numeric = finite_difference(lambda x: bce(x, g) + dice_loss(x, g), s)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4
    # Weight-space gradients through the toy model.
    image = make_rng(931).random((16, 16))
    box = BoundingBox(3, 3, 13, 12)
    for i in range(100):
        rng = make_rng(932, i)
        mask = rng.random((16, 16)) < 0.3
        w = rng.normal(0, 1, size=toyseg.N_FEATURES)
        model = toyseg.ToyModel(weights=w)
        analytic, _ = toyseg.weight_gradient(model, image, mask, box)

        def objective(weights):
            p = toyseg.predict(toyseg.ToyModel(weights=weights), image, box)
            return bce(p, mask.astype(float)) + dice_loss(p, mask.astype(float))

        numeric = finite_difference(objective, w)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4
    _report(5, "pixel-space and weight-space gradients match central finite "
               "differences (h=1e-5) within 1e-4 on 100 instances each")


def test_criterion_6_perturbation_laws():
    # Offset proportionality.
    rng = make_rng(940)
    for _ in range(200):
        cfg = PerturbationConfig(eps_shrink=-float(rng.uniform(0, 40)),
                                 delta_expand=float(rng.uniform(0, 40)),
                                 eps_shrink_min=-40.0, delta_expand_max=40.0)
        coeffs = Coefficients(theta_omega=float(rng.uniform(0.01, 1.0)),
                              xi=float(rng.uniform(0.1, 10.0)))
        off = compute_offsets(cfg, coeffs)
        assert abs(off.eps2 * coeffs.xi - off.eps1) <= 1e-12 * max(1.0, abs(off.eps1))
        assert abs(off.delta2 * coeffs.xi - off.delta1) <= 1e-12 * max(1.0, off.delta1)

    # Containment over 1e4 seeded draws in each direction.
    box = BoundingBox(100, 100, 160, 140)
    expand = PerturbationConfig(eps_shrink=0.0, delta_expand=20.0)
    off_e = compute_offsets(expand, Coefficients(0.5, 1.5))
    shrink = PerturbationConfig(eps_shrink=-10.0, delta_expand=0.0)
    off_s = compute_offsets(shrink, Coefficients(0.5, 1.5))
    for i in range(10_000):
        pe = sample_perturbed_box(box, off_e, 400, 400, expand, make_rng(941, i))
        assert pe.box.contains_box(box)
        ps = sample_perturbed_box(box, off_s, 400, 400, shrink, make_rng(942, i))
        assert box.contains_box(ps.box)

    # Clamp enforcement on adversarial configs.
    adversarial = PerturbationConfig(eps_shrink=-1000.0, delta_expand=1000.0,
                                     eps_shrink_min=-15.0, delta_expand_max=25.0)
    off = compute_offsets(adversarial, Coefficients(1.0, 1.0))
    assert off.eps1 == -15.0 and off.delta1 == 25.0

    # Byte-exact seed determinism across two runs.
    cfg = PerturbationConfig()
    off = compute_offsets(cfg, Coefficients(0.4, 1.25))
    runs = []
    for _ in range(2):
        out = [sample_perturbed_box(box, off, 400, 400, cfg, make_rng(43, i))
               for i in range(1000)]
        runs.append(repr([(p.box, p.resample_count) for p in out]).encode())
    assert runs[0] == runs[1]
    _report(6, "offset proportionality (1e-12), containment over 1e4 draws, "
               "clamp enforcement, byte-exact seed determinism")


def test_criterion_7_aspect_ratio_preservation():
    box = BoundingBox(200, 200, 400, 300)  # 200x100 -> xi = 2
    cfg = PerturbationConfig()
    coeffs = coefficients_for(box, 1024, 1024)
    assert coeffs.xi == 2.0
    offsets, rng = compute_offsets(cfg, coeffs), make_rng(950)
    stats = PerturbationStats.of(sample_perturbed_box(box, offsets, 1024, 1024, cfg, rng)
                                 for _ in range(100_000))
    ratio = stats.mean_width / stats.mean_height
    assert abs(ratio - 2.0) < 0.02
    _report(7, f"mean(W')/mean(H') = {ratio:.5f}, within 0.02 of 2.0 "
               f"at n=1e5")


def test_criterion_8_windowing_endpoints():
    out = data_mod.window_normalize(np.array([[-360.0, 440.0]]), -360.0, 440.0)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    _report(8, "window (-360, 440) maps endpoints to exactly 0.0 / 1.0")


@pytest.fixture(scope="module")
def standard_suite():
    # 250 samples at 128x128 -> 200 train, 50 held out (val+test).
    return data_mod.gen_synthetic(250, "standard", grid=128, seed=7)


@pytest.fixture(scope="module")
def tiny_suite():
    return data_mod.gen_synthetic(200, "tiny", grid=128, seed=11)


# The fixed-range expand-only baseline and the full adaptive perturbation.
BASELINE = PerturbationConfig(eps_shrink=0.0, scale_by_target=False)
FULL = PerturbationConfig()


def _train_eval(split, perturb, grow):
    cfg = toyseg.TrainConfig(perturb=perturb, seed=3)
    model, _ = toyseg.train(split, cfg)
    held_out = split.val + split.test
    return toyseg.evaluate(model, held_out, grow=grow, tau=2.0)


def test_criterion_9_ablation_direction_shrink_prompts(standard_suite):
    assert len(standard_suite.train) == 200
    assert len(standard_suite.val) + len(standard_suite.test) == 50
    base = _train_eval(standard_suite, BASELINE, -0.1)
    full = _train_eval(standard_suite, FULL, -0.1)
    assert full.dsc_mean >= base.dsc_mean + 0.05
    assert full.nsd_mean > base.nsd_mean
    _report(9, f"shrink(0.1) prompts: full-adaptive DSC {full.dsc_mean:.4f} "
               f"vs baseline {base.dsc_mean:.4f} (gap >= 5 points); "
               f"NSD {full.nsd_mean:.4f} > {base.nsd_mean:.4f}")


def test_criterion_10_ablation_direction_tiny_error_rate(tiny_suite):
    def error_rate(perturb):
        res = _train_eval(tiny_suite, perturb, 0.0)
        return float(np.mean([d < 0.5 for d in res.per_image_dsc]))

    base = error_rate(BASELINE)
    full = error_rate(FULL)
    assert full <= base
    _report(10, f"tiny suite error rate (criterion: per-image DSC < 0.5): "
                f"full-adaptive {full:.3f} <= baseline {base:.3f}")


def test_criterion_11_io_round_trips(tmp_path):
    for i in range(100):
        rng = make_rng(960, i)
        mask = rng.random((9, 13)) < 0.4
        mpath = tmp_path / "m.pgm"
        data_mod.write_mask_pgm(mpath, mask)
        assert (data_mod.read_mask_pgm(mpath) == mask).all()

        grid = rng.normal(size=(7, 6)).astype(np.float32)
        if i % 3 == 0:
            grid[rng.integers(0, 7), rng.integers(0, 6)] = np.nan
        gpath = tmp_path / "g.f32g"
        data_mod.write_f32_grid(gpath, grid)
        assert data_mod.read_f32_grid(gpath).tobytes() == grid.tobytes()
    _report(11, "PGM and F32G round-trips lossless on 100 random instances, "
                "including NaN payloads")
