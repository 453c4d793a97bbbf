import numpy as np
import pytest

from boxperturb.geometry import BoundingBox, Coefficients
from boxperturb.perturb import (OffsetQuad, PerturbationConfig,
                                compute_offsets, perturbation_stats,
                                sample_baseline_box, sample_perturbed_box)
from boxperturb.rng import make_rng


def test_offsets_zero_config():
    cfg = PerturbationConfig(eps_shrink=0.0, delta_expand=0.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=0.7, xi=1.3))
    assert (off.eps1, off.eps2, off.delta1, off.delta2) == (0, 0, 0, 0)


def test_offsets_hand_values():
    cfg = PerturbationConfig(eps_shrink=-10.0, delta_expand=20.0,
                             eps_shrink_min=-50.0, delta_expand_max=50.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=0.5, xi=2.0))
    assert off.eps1 == pytest.approx(-5.0)
    assert off.eps2 == pytest.approx(-2.5)
    assert off.delta1 == pytest.approx(10.0)
    assert off.delta2 == pytest.approx(5.0)


def test_offsets_clamped_to_floor():
    cfg = PerturbationConfig(eps_shrink=-50.0, eps_shrink_min=-20.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=1.0, xi=1.0))
    assert off.eps1 == -20.0


def test_offset_proportionality_random():
    rng = make_rng(200)
    for _ in range(200):
        cfg = PerturbationConfig(eps_shrink=-float(rng.uniform(0, 40)),
                                 delta_expand=float(rng.uniform(0, 40)),
                                 eps_shrink_min=-40.0, delta_expand_max=40.0)
        coeffs = Coefficients(theta_omega=float(rng.uniform(0.01, 1.0)),
                              xi=float(rng.uniform(0.1, 10.0)))
        off = compute_offsets(cfg, coeffs)
        assert off.eps2 * coeffs.xi == pytest.approx(off.eps1, rel=1e-12, abs=1e-15)
        assert off.delta2 * coeffs.xi == pytest.approx(off.delta1, rel=1e-12, abs=1e-15)
        assert cfg.eps_shrink_min <= off.eps1 / coeffs.theta_omega <= 0 or off.eps1 == 0
        assert off.eps1 <= 0 <= off.delta1


def test_halving_theta_halves_offsets():
    cfg = PerturbationConfig(eps_shrink=-12.0, delta_expand=7.0,
                             eps_shrink_min=-40.0, delta_expand_max=40.0)
    full = compute_offsets(cfg, Coefficients(theta_omega=0.8, xi=1.7))
    half = compute_offsets(cfg, Coefficients(theta_omega=0.4, xi=1.7))
    assert half.eps1 == full.eps1 / 2
    assert half.eps2 == full.eps2 / 2
    assert half.delta1 == full.delta1 / 2
    assert half.delta2 == full.delta2 / 2


def test_zero_offsets_return_input_box():
    box = BoundingBox(10, 20, 50, 60)
    off = OffsetQuad(0.0, 0.0, 0.0, 0.0)
    p = sample_perturbed_box(box, off, 100, 100, PerturbationConfig(), make_rng(1))
    assert p.box == box
    assert p.resample_count == 0


def test_expand_only_contains_input():
    box = BoundingBox(100, 100, 160, 140)
    cfg = PerturbationConfig(eps_shrink=0.0, delta_expand=20.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=0.5, xi=1.5))
    for i in range(10_000):
        p = sample_perturbed_box(box, off, 400, 400, cfg, make_rng(201, i))
        assert p.box.contains_box(box)


def test_shrink_only_contained_in_input():
    box = BoundingBox(100, 100, 160, 140)
    cfg = PerturbationConfig(eps_shrink=-10.0, delta_expand=0.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=0.5, xi=1.5))
    for i in range(10_000):
        p = sample_perturbed_box(box, off, 400, 400, cfg, make_rng(202, i))
        assert box.contains_box(p.box)


def test_clamped_to_image_extent():
    box = BoundingBox(1, 1, 30, 30)
    cfg = PerturbationConfig()
    off = compute_offsets(cfg, Coefficients(theta_omega=1.0, xi=1.0))
    for i in range(500):
        p = sample_perturbed_box(box, off, 32, 32, cfg, make_rng(203, i))
        assert p.box.within_image(32, 32)


def test_degenerate_draw_repair():
    # Shrink magnitude larger than the box side forces resampling/fallback.
    box = BoundingBox(50, 50, 53, 53)
    cfg = PerturbationConfig(eps_shrink=-20.0, delta_expand=0.0,
                             eps_shrink_min=-20.0)
    off = compute_offsets(cfg, Coefficients(theta_omega=1.0, xi=1.0))
    saw_fallback = False
    for i in range(200):
        p = sample_perturbed_box(box, off, 100, 100, cfg, make_rng(204, i))
        assert p.box.width >= cfg.min_box_size - 1e-9
        assert p.box.height >= cfg.min_box_size - 1e-9
        if p.resample_count > cfg.max_resample:
            saw_fallback = True
            cx, cy = p.box.center
            assert cx == pytest.approx(51.5)
            assert cy == pytest.approx(51.5)
    assert saw_fallback


def test_baseline_identity_at_zero_shift():
    box = BoundingBox(10, 10, 40, 30)
    p = sample_baseline_box(box, 0.0, 100, 100, make_rng(205))
    assert p.box == box


def test_baseline_contains_input():
    box = BoundingBox(30, 30, 60, 80)
    for i in range(2000):
        p = sample_baseline_box(box, 20.0, 128, 128, make_rng(206, i))
        assert p.box.contains_box(box)
        assert p.box.within_image(128, 128)


def test_baseline_seeded_determinism():
    box = BoundingBox(10, 10, 40, 30)
    runs = []
    for _ in range(2):
        boxes = [sample_baseline_box(box, 20.0, 100, 100, make_rng(42, i)).box
                 for i in range(100)]
        runs.append([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes])
    assert runs[0] == runs[1]


def test_adaptive_seeded_determinism():
    box = BoundingBox(10, 10, 60, 40)
    cfg = PerturbationConfig()
    off = compute_offsets(cfg, Coefficients(theta_omega=0.4, xi=1.25))
    runs = []
    for _ in range(2):
        out = [sample_perturbed_box(box, off, 128, 128, cfg, make_rng(43, i))
               for i in range(100)]
        runs.append([(p.box.x_min, p.box.y_min, p.box.x_max, p.box.y_max,
                      p.draws, p.resample_count) for p in out])
    assert runs[0] == runs[1]


def test_stats_zero_perturbation_exact_width():
    box = BoundingBox(10, 10, 50, 35)
    cfg = PerturbationConfig(eps_shrink=0.0, delta_expand=0.0)
    stats = perturbation_stats(box, cfg, Coefficients(0.5, 1.6), 100, make_rng(207),
                               image_w=64, image_h=64)
    assert stats.mean_width == box.width
    assert stats.mean_height == box.height
    assert stats.resample_rate == 0.0


def test_stats_symmetric_config_mean_width():
    box = BoundingBox(200, 200, 400, 300)
    cfg = PerturbationConfig(eps_shrink=-20.0, delta_expand=20.0)
    coeffs = Coefficients(theta_omega=0.5, xi=2.0)
    stats = perturbation_stats(box, cfg, coeffs, 100_000, make_rng(208),
                               image_w=1024, image_h=1024)
    assert abs(stats.mean_width - box.width) < 0.01 * box.width


def test_stats_aspect_ratio_preserved():
    box = BoundingBox(200, 200, 400, 300)  # 200 x 100, xi = 2
    cfg = PerturbationConfig(eps_shrink=-20.0, delta_expand=20.0)
    coeffs = Coefficients(theta_omega=0.5, xi=2.0)
    stats = perturbation_stats(box, cfg, coeffs, 100_000, make_rng(209),
                               image_w=1024, image_h=1024)
    ratio = stats.mean_width / stats.mean_height
    assert abs(ratio - 2.0) < 0.01 * 2.0


def test_small_target_damping():
    # Equal aspect ratio; the smaller box must get smaller offsets.
    from boxperturb.geometry import coefficients_for

    cfg = PerturbationConfig()
    big = BoundingBox(0, 0, 200, 100)
    small = BoundingBox(0, 0, 50, 25)
    off_big = compute_offsets(cfg, coefficients_for(big, 1024, 1024))
    off_small = compute_offsets(cfg, coefficients_for(small, 1024, 1024))
    assert abs(off_small.eps1) < abs(off_big.eps1)
    assert off_small.delta1 < off_big.delta1
    assert abs(off_small.eps2) < abs(off_big.eps2)
    assert off_small.delta2 < off_big.delta2


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        PerturbationConfig(eps_shrink=5.0)
    with pytest.raises(ValueError):
        PerturbationConfig(delta_expand=-1.0)
    with pytest.raises(ValueError):
        PerturbationConfig(min_box_size=0.0)
