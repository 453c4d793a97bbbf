import copy
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from boxperturb import data as data_mod
from boxperturb import loss as loss_mod
from boxperturb import toyseg
from boxperturb.errors import BoxOutOfBounds, EmptyDataset
from boxperturb.geometry import BoundingBox, box_from_mask, coefficients_for
from boxperturb.loss import bce, dice_loss
from boxperturb.perturb import PerturbationConfig, compute_offsets
from boxperturb.rng import make_rng

from oracles import (finite_difference, reference_features, reference_forward,
                     reference_weight_gradient)


# eps_shrink = delta_expand = 0: the prompt is the ground-truth box.
NO_PERTURB = PerturbationConfig(eps_shrink=0.0, delta_expand=0.0)


def small_image(h=20, w=20):
    rng = make_rng(500)
    return rng.random((h, w))


def test_featurize_box_center_pixel():
    image = small_image()
    box = BoundingBox(5, 5, 15, 15)
    feats = toyseg.featurize(image, box)
    center = feats[10, 10]  # pixel center (10.5, 10.5), near box center (10, 10)
    assert center[0] == 1.0
    assert center[2] == 1.0
    assert center[4] == pytest.approx(0.05)
    assert center[5] == pytest.approx(0.05)
    assert center[3] > 0.8


def test_featurize_far_outside_pixel():
    image = small_image()
    box = BoundingBox(8, 8, 12, 12)
    feats = toyseg.featurize(image, box)
    far = feats[0, 0]
    assert far[2] == 0.0
    assert far[3] == -1.0


def test_featurize_box_corner_pixel():
    image = small_image()
    box = BoundingBox(5, 5, 15, 15)
    feats = toyseg.featurize(image, box)
    # Pixel (row 5, col 5) has center (5.5, 5.5): 0.5 px inside both edges.
    assert feats[5, 5, 3] == pytest.approx(0.5 / 5.0)
    assert abs(feats[5, 5, 3]) <= 1.0 / 5.0 + 1e-12


def test_featurize_component_ranges():
    image = small_image()
    box = BoundingBox(3, 6, 14, 17)
    feats = toyseg.featurize(image, box)
    assert (feats[:, :, 0] == 1.0).all()
    assert ((feats[:, :, 1] >= 0) & (feats[:, :, 1] <= 1)).all()
    assert np.isin(feats[:, :, 2], (0.0, 1.0)).all()
    assert ((feats[:, :, 3] >= -1) & (feats[:, :, 3] <= 1)).all()
    assert (feats[:, :, 4] >= 0).all() and (feats[:, :, 5] >= 0).all()


def test_featurize_out_of_bounds_box():
    with pytest.raises(BoxOutOfBounds):
        toyseg.featurize(small_image(), BoundingBox(-1, 0, 10, 10))


def reference_featurize(image, box):
    """The six features as one (H, W, 6) array, from the whole-image reference formulas.

    The two tests below keep the names they had when they compared against a
    second, four-way copy of those formulas, so that their ids stay the same.
    """
    return np.stack(np.broadcast_arrays(*reference_features(image, box)), axis=-1)


@pytest.mark.parametrize("shape, box", [
    ((20, 20), BoundingBox(5, 5, 15, 15)),
    ((20, 20), BoundingBox(8, 8, 12, 12)),
    ((24, 31), BoundingBox(10.5, 2.25, 12.0, 9.75)),
    ((24, 31), BoundingBox(0.5, 0.5, 1.5, 23.5)),
    ((24, 31), BoundingBox(0, 0, 31, 24)),
    ((24, 31), BoundingBox(0, 3, 7, 24)),
    ((24, 31), BoundingBox(25.1, 0, 31, 0.3)),
    ((1, 1), BoundingBox(0, 0, 1, 1)),
    ((1, 1), BoundingBox(0.25, 0.5, 0.75, 1.0)),
    ((1, 1), BoundingBox(0.0, 0.0, 0.4, 0.2)),
    ((1, 9), BoundingBox(2, 0, 5, 1)),
    ((9, 1), BoundingBox(0, 2.5, 0.5, 3)),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
def test_featurize_matches_four_way_formula(shape, box):
    image = make_rng(503).random(shape)
    assert toyseg.featurize(image, box).tobytes() == reference_featurize(image, box).tobytes()


def _center_edges(n):
    """Box edges through the pixel centers k + 0.5 of an axis of n pixels,
    where e is exactly +0, and the far image edge n."""
    return np.minimum(np.arange(n + 1) + 0.5, n)


def test_featurize_matches_four_way_formula_random_boxes():
    for i in range(300):
        rng = make_rng(504, i)
        h, w = (int(v) for v in rng.integers(1, 30, 2))
        image = rng.random((h, w))
        if i % 3 == 1:  # pixel-edge boxes
            x0, x1 = sorted(rng.choice(w + 1, 2, replace=False))
            y0, y1 = sorted(rng.choice(h + 1, 2, replace=False))
        elif i % 3 == 2:  # pixel-center boxes
            x0, x1 = sorted(rng.choice(_center_edges(w), 2, replace=False))
            y0, y1 = sorted(rng.choice(_center_edges(h), 2, replace=False))
        else:
            x0, x1 = sorted(rng.uniform(0, w, 2))
            y0, y1 = sorted(rng.uniform(0, h, 2))
        box = BoundingBox(float(x0), float(y0), float(x1), float(y1))
        assert (toyseg.featurize(image, box).tobytes()
                == reference_featurize(image, box).tobytes())


def test_predict_zero_weights_is_half():
    model = toyseg.ToyModel()
    p = toyseg.predict(model, small_image(), BoundingBox(5, 5, 15, 15))
    assert np.allclose(p, 0.5)


def test_predict_inside_weight_saturates_interior():
    model = toyseg.ToyModel(weights=np.array([0, 0, 10.0, 0, 0, 0]))
    p = toyseg.predict(model, small_image(), BoundingBox(5, 5, 15, 15))
    assert p[10, 10] > 0.999
    assert p[0, 0] == pytest.approx(0.5)


def test_predict_monotone_in_inside_weight():
    image = small_image()
    box = BoundingBox(5, 5, 15, 15)
    w1 = np.array([0.3, -0.2, 1.0, 0.1, 0.0, 0.0])
    w2 = w1.copy()
    w2[2] = 2.0
    p1 = toyseg.predict(toyseg.ToyModel(weights=w1), image, box)
    p2 = toyseg.predict(toyseg.ToyModel(weights=w2), image, box)
    inside = toyseg.featurize(image, box)[:, :, 2] == 1.0
    assert (p2[inside] >= p1[inside]).all()


def test_train_step_zero_gradient_pure_decay(monkeypatch):
    # With a zero gradient the AdamW moments stay zero and the update
    # reduces to decoupled decay: weights shrink by (1 - lr*lam) exactly.
    from boxperturb.loss import LossReport

    def zero_grad(model, image, mask, box):
        return np.zeros(toyseg.N_FEATURES), LossReport(0.0, 0.0, 0.0)

    monkeypatch.setattr(toyseg, "weight_gradient", zero_grad)
    model = toyseg.ToyModel(weights=np.array([1.0, -2.0, 3.0, 0.5, -0.25, 4.0]))
    before = model.weights.copy()
    lam, lr = 0.1, 0.01
    toyseg.train_step(model, small_image(), np.zeros((20, 20), bool),
                      BoundingBox(2, 2, 10, 10), lam, lr)
    assert (model.weights == before - lr * lam * before).all()
    assert np.allclose(model.weights, before * (1 - lr * lam))


def test_train_step_lambda_zero_zero_gradient_no_change(monkeypatch):
    from boxperturb.loss import LossReport

    def zero_grad(model, image, mask, box):
        return np.zeros(toyseg.N_FEATURES), LossReport(0.0, 0.0, 0.0)

    monkeypatch.setattr(toyseg, "weight_gradient", zero_grad)
    model = toyseg.ToyModel(weights=np.ones(6))
    toyseg.train_step(model, small_image(), np.zeros((20, 20), bool),
                      BoundingBox(2, 2, 10, 10), 0.0, 0.05)
    assert (model.weights == np.ones(6)).all()


def test_weight_gradient_matches_finite_differences():
    image = small_image(16, 16)
    box = BoundingBox(3, 3, 12, 12)
    rng = make_rng(501)
    mask = rng.random((16, 16)) < 0.3

    def objective(w):
        model = toyseg.ToyModel(weights=w)
        p = toyseg.predict(model, image, box)
        return bce(p, mask.astype(float)) + dice_loss(p, mask.astype(float))

    for i in range(25):
        w = make_rng(502, i).normal(0, 1, size=toyseg.N_FEATURES)
        model = toyseg.ToyModel(weights=w)
        analytic, _ = toyseg.weight_gradient(model, image, mask, box)
        numeric = finite_difference(objective, w)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4


def test_weight_gradient_matches_feature_tensor():
    # Reference: the residual contracted with the full (H, W, 6) feature grid.
    image = small_image(24, 31)
    rng = make_rng(507)
    mask = rng.random((24, 31)) < 0.3
    for i, box in enumerate((BoundingBox(3, 4, 20, 17), BoundingBox(0, 0, 31, 24),
                             BoundingBox(10.5, 2.25, 12.0, 9.75))):
        w = make_rng(508, i).normal(0, 1, size=toyseg.N_FEATURES)
        analytic, _ = toyseg.weight_gradient(toyseg.ToyModel(weights=w), image, mask, box)
        feats = toyseg.featurize(image, box)
        raw = 1.0 / (1.0 + np.exp(-(feats @ w)))
        p = loss_mod.clip_probabilities(raw)
        grad_p = loss_mod.loss_gradient(p, mask.astype(np.float64))
        dp_dz = np.where((raw > loss_mod.CLIP_EPS) & (raw < 1.0 - loss_mod.CLIP_EPS),
                         raw * (1.0 - raw), 0.0)
        expected = np.einsum("hw,hwk->k", grad_p * dp_dz, feats)
        assert np.allclose(analytic, expected, rtol=1e-12, atol=0.0)


def _exactness_boxes(rng, h, w):
    """Boxes flush with each image edge, covering no pixel center (on one
    axis or both), the whole image, and random pixel-edge, pixel-center
    and fractional boxes, in a random order."""
    cx, cy = w // 2, h // 2
    boxes = [(0, 0.3 * h, 0.5 * w, 0.7 * h), (0.3 * w, 0, 0.7 * w, 0.5 * h),
             (0.5 * w, 0.3 * h, w, 0.7 * h), (0.3 * w, 0.5 * h, 0.7 * w, h),
             (cx + 0.55, cy + 0.55, cx + 0.95, cy + 0.95),
             (cx + 0.55, 0, cx + 0.95, h), (0, cy + 0.6, w, cy + 0.7),
             (0, 0, w, h), (0.1 * w, 0.1 * h, 0.9 * w, 0.9 * h)]
    for _ in range(40):
        x0, x1 = sorted(rng.choice(w + 1, 2, replace=False))
        y0, y1 = sorted(rng.choice(h + 1, 2, replace=False))
        boxes.append((x0, y0, x1, y1))
        x0, x1 = sorted(rng.choice(_center_edges(w), 2, replace=False))
        y0, y1 = sorted(rng.choice(_center_edges(h), 2, replace=False))
        boxes.append((x0, y0, x1, y1))
        x0, x1 = sorted(rng.uniform(0, w, 2))
        y0, y1 = sorted(rng.uniform(0, h, 2))
        boxes.append((x0, y0, x1, y1))
    return [BoundingBox(*map(float, boxes[i])) for i in rng.permutation(len(boxes))]


def test_step_matches_full_image_reference_exactly():
    # One model for every call, so that values left in its work arrays
    # outside a previous box's window would show in the next result.
    model = toyseg.ToyModel()
    for shape in ((24, 31), (1, 17), (17, 1), (1, 1), (2, 40), (40, 3), (64, 64)):
        rng = make_rng(511, *shape)
        image = rng.random(shape)
        for box in _exactness_boxes(rng, *shape):
            mask = rng.random(shape) < rng.uniform(0.0, 0.6)
            model.weights = rng.normal(0, 2, size=toyseg.N_FEATURES)
            grad, report = toyseg.weight_gradient(model, image, mask, box)
            ref_grad, ref_report = reference_weight_gradient(model.weights, image, mask, box)
            assert grad.tobytes() == ref_grad.tobytes(), (shape, box)
            assert (np.array(astuple(report)).tobytes()
                    == np.array(astuple(ref_report)).tobytes()), (shape, box)
            ref_p, _ = reference_forward(model.weights, image, box)
            assert toyseg.predict(model, image, box).tobytes() == ref_p.tobytes()


def test_train_matches_full_image_reference_exactly(tiny_dataset, monkeypatch):
    cfg = toyseg.TrainConfig(epochs=4, lr=0.3, scheduler_patience=1, seed=5)
    model, history = toyseg.train(tiny_dataset, cfg)
    assert history[-1].lr < cfg.lr  # the fit covers a rate drop

    def ref_gradient(model, image, mask, box):
        return reference_weight_gradient(model.weights, image, mask, box)

    def ref_val_loss(model, samples):
        losses = []
        for sample in samples:
            p, _ = reference_forward(model.weights, sample.image, sample.box)
            losses.append(loss_mod.combined_loss(p, sample.mask).combined)
        return float(np.mean(losses))

    monkeypatch.setattr(toyseg, "weight_gradient", ref_gradient)
    monkeypatch.setattr(toyseg, "_mean_val_loss", ref_val_loss)
    ref_model, ref_history = toyseg.train(tiny_dataset, cfg)
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.m.tobytes() == ref_model.m.tobytes()
    assert model.v.tobytes() == ref_model.v.tobytes()
    assert history == ref_history


def test_train_step_allocates_no_full_size_arrays():
    image = small_image(128, 128)
    mask = make_rng(509).random((128, 128)) < 0.2
    model = toyseg.ToyModel(weights=make_rng(510).normal(0, 1, size=toyseg.N_FEATURES))
    toyseg.train_step(model, image, mask, BoundingBox(20, 30, 90, 100), 1e-4, 0.01)
    tracemalloc.start()
    try:
        toyseg.train_step(model, image, mask, BoundingBox(25, 10, 120, 80), 1e-4, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 1.2 arrays' worth of masks and cast buffers; the (H, W, 6)
    # feature grid alone would be 6.
    assert peak < 2 * image.nbytes


def test_model_keeps_one_set_of_work_arrays():
    model = toyseg.ToyModel(weights=make_rng(512).normal(0, 1, size=toyseg.N_FEATURES))
    for shape in ((40, 56), (31, 24), (40, 56)):
        rng = make_rng(513, *shape)
        image = rng.random(shape).astype(np.float32)
        mask = rng.random(shape) < 0.3
        box = BoundingBox(3.0, 4.0, shape[1] - 5.0, shape[0] - 2.0)
        # A fresh model with the same state: its work arrays were never used.
        fresh = toyseg.ToyModel(model.weights.copy(), model.m.copy(), model.v.copy(), model.step)
        for each in (model, fresh):
            toyseg.train_step(each, image, mask, box, 1e-4, 0.01)
        assert isinstance(model.work, toyseg._WorkArrays) and model.work.inside.shape == shape
        for name in ("weights", "m", "v"):
            assert getattr(model, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert model.step == fresh.step


@pytest.fixture(scope="module")
def tiny_dataset():
    return data_mod.gen_synthetic(20, suite="standard", grid=48, seed=9)


def test_train_draws_one_prompt_per_step(tiny_dataset, monkeypatch):
    # Each step draws its prompt once, from the image's GT box and fixed
    # offsets, with the stream keyed (seed, epoch, image index).
    draws, prompts = [], []
    real_sample, real_step = toyseg.sample_perturbed_box, toyseg.train_step

    def sample(box, offsets, w, h, config, rng):
        drawn = real_sample(box, offsets, w, h, config, copy.deepcopy(rng))
        draws.append((box, offsets, w, h, config, rng, drawn))
        return drawn

    def step(model, image, mask, box, lam, lr):
        prompts.append(box)
        return real_step(model, image, mask, box, lam, lr)

    monkeypatch.setattr(toyseg, "sample_perturbed_box", sample)
    monkeypatch.setattr(toyseg, "train_step", step)
    keys = [(epoch, idx) for epoch in (1, 2, 3) for idx in range(len(tiny_dataset.train))]
    for pcfg in (PerturbationConfig(), PerturbationConfig(eps_shrink=0.0),
                 PerturbationConfig(scale_by_target=False), NO_PERTURB):
        draws.clear()
        prompts.clear()
        toyseg.train(tiny_dataset, toyseg.TrainConfig(perturb=pcfg, epochs=3, seed=7))
        assert len(draws) == len(prompts) == len(keys)
        for (epoch, idx), (box, offsets, w, h, config, rng, drawn), prompt in zip(
                keys, draws, prompts):
            sample = tiny_dataset.train[idx]
            assert (h, w) == sample.image.shape
            assert box == box_from_mask(sample.mask)
            assert offsets == compute_offsets(
                pcfg, coefficients_for(box, w, h, pcfg.theta_floor))
            assert config == pcfg
            assert rng.uniform() == make_rng(7, epoch, idx).uniform()
            assert prompt == drawn.box
            assert prompt.within_image(w, h)
            if pcfg == NO_PERTURB:
                assert prompt == box


def test_train_reduces_val_loss(tiny_dataset):
    cfg = toyseg.TrainConfig(perturb=NO_PERTURB, epochs=10, seed=1)
    _, history = toyseg.train(tiny_dataset, cfg)
    assert history[-1].val_loss < history[0].val_loss


def test_train_determinism(tiny_dataset):
    cfg = toyseg.TrainConfig(epochs=5, seed=2)
    model1, hist1 = toyseg.train(tiny_dataset, cfg)
    model2, hist2 = toyseg.train(tiny_dataset, cfg)
    assert (model1.weights == model2.weights).all()
    assert hist1 == hist2


def test_train_in_memory_equals_train_after_save_and_load(tmp_path):
    # Generated and loaded images are both float32, so both fits see the same pixels.
    split = data_mod.gen_synthetic(20, "standard", grid=64, seed=0)
    data_mod.save_dataset(split, tmp_path, "standard", 64, 0)
    cfg = toyseg.TrainConfig(epochs=3, seed=3)
    model, history = toyseg.train(split, cfg)
    reloaded, reloaded_history = toyseg.train(data_mod.load_dataset(tmp_path), cfg)
    assert model.weights.tobytes() == reloaded.weights.tobytes()
    assert history == reloaded_history


def test_train_empty_dataset():
    empty = data_mod.DatasetSplit(train=(), val=(), test=())
    with pytest.raises(EmptyDataset):
        toyseg.train(empty, toyseg.TrainConfig())


def test_scheduler_drops_rate_on_plateau(tiny_dataset, monkeypatch):
    # Pin the validation loss so it never improves: the rate must drop by
    # exactly the configured factor every `patience` epochs.
    monkeypatch.setattr(toyseg, "_mean_val_loss", lambda model, samples: 1.0)
    cfg = toyseg.TrainConfig(perturb=NO_PERTURB, epochs=7, lr=0.4,
                             scheduler_factor=0.5, scheduler_patience=2, seed=3)
    _, history = toyseg.train(tiny_dataset, cfg)
    rates = [rec.lr for rec in history]
    # Epoch 1 sets the best; epochs 2-3 stale -> drop for epoch 4, etc.
    assert rates == [0.4, 0.4, 0.4, 0.2, 0.2, 0.1, 0.1]


def test_scheduler_respects_min_lr(tiny_dataset, monkeypatch):
    monkeypatch.setattr(toyseg, "_mean_val_loss", lambda model, samples: 1.0)
    cfg = toyseg.TrainConfig(perturb=NO_PERTURB, epochs=10, lr=4e-6,
                             scheduler_factor=0.5, scheduler_patience=1,
                             min_lr=1e-6, seed=3)
    _, history = toyseg.train(tiny_dataset, cfg)
    assert min(rec.lr for rec in history) == 1e-6


def _mode_prompt_box(gt_box, mode, frac, image_w, image_h):
    """The standard/expand/shrink prompt formula that prompt_box replaced."""
    if mode == "standard" or frac == 0.0:
        return gt_box
    sign = 1.0 if mode == "expand" else -1.0
    dx, dy = sign * frac * gt_box.width, sign * frac * gt_box.height
    return BoundingBox(max(gt_box.x_min - dx, 0.0), max(gt_box.y_min - dy, 0.0),
                       min(gt_box.x_max + dx, float(image_w)),
                       min(gt_box.y_max + dy, float(image_h)))


def _prompt_test_boxes(rng, w, h):
    """Random pixel-edge and fractional boxes, and boxes flush with each image edge."""
    def edges(n, integer):
        lo, hi = np.sort(rng.integers(0, n + 1, size=2) if integer else rng.uniform(0, n, 2))
        return (float(lo), float(hi)) if lo < hi else (0.0, float(n))
    for integer in (True, False):
        for _ in range(20):
            (x0, x1), (y0, y1) = edges(w, integer), edges(h, integer)
            yield BoundingBox(x0, y0, x1, y1)
            yield from (BoundingBox(0.0, y0, x1, y1), BoundingBox(x0, 0.0, x1, y1),
                        BoundingBox(x0, y0, float(w), y1), BoundingBox(x0, y0, x1, float(h)))
    yield BoundingBox(0.0, 0.0, float(w), float(h))


def _box_bytes(box):
    return np.array(astuple(box)).tobytes()


def test_prompt_box_matches_mode_formula():
    clipped = 0
    for w, h in ((48, 48), (31, 17), (1, 1), (2, 40)):
        rng = make_rng(520, w, h)
        for box in _prompt_test_boxes(rng, w, h):
            for frac in (0.0, 0.05, 0.1, 0.4):
                for grow, mode in ((frac, "expand"), (-frac, "shrink")):
                    got = toyseg.prompt_box(box, grow, w, h)
                    want = _mode_prompt_box(box, mode, frac, w, h)
                    assert _box_bytes(got) == _box_bytes(want), (box, grow, w, h)
                # Expanding a box flush with an image edge clips there.
                clipped += frac > 0 and (box.x_min == 0.0 or box.x_max == w)
    assert clipped > 100


@pytest.mark.parametrize("grow", [0.41, -0.41, float("nan")])
def test_prompt_box_rejects_grow_outside_range(grow):
    with pytest.raises(ValueError, match="grow must be in"):
        toyseg.prompt_box(BoundingBox(2.0, 2.0, 6.0, 6.0), grow, 8, 8)


def test_evaluate_expand_zero_equals_standard(tiny_dataset):
    model, _ = toyseg.train(tiny_dataset,
                            toyseg.TrainConfig(perturb=NO_PERTURB, epochs=3, seed=4))
    std = toyseg.evaluate(model, tiny_dataset.test)
    exp0 = toyseg.evaluate(model, tiny_dataset.test, grow=0.0)
    shr0 = toyseg.evaluate(model, tiny_dataset.test, grow=-0.0)
    assert std == exp0 == shr0


def test_evaluate_perfect_oracle(tiny_dataset, monkeypatch):
    for sample in tiny_dataset.test:
        monkeypatch.setattr(toyseg, "predict",
                            lambda model, image, box, m=sample.mask: m.astype(float))
        res = toyseg.evaluate(toyseg.ToyModel(), [sample], grow=-0.2)
        assert res.dsc_mean == 1.0
        assert res.nsd_mean == 1.0


def test_zero_model_thresholded_prediction_empty(tiny_dataset):
    # p = 0.5 everywhere and the threshold is strict, so nothing is predicted.
    res = toyseg.evaluate(toyseg.ToyModel(), tiny_dataset.test)
    assert res.dsc_mean == 0.0


def test_model_json_round_trip(tmp_path):
    rng = make_rng(506)
    model = toyseg.ToyModel(weights=rng.normal(size=6), m=rng.normal(size=6),
                            v=np.abs(rng.normal(size=6)), step=17)
    path = tmp_path / "model.json"
    toyseg.save_model(model, path, train_config_echo={"seed": 1})
    loaded = toyseg.load_model(path)
    assert (loaded.weights == model.weights).all()
    assert (loaded.m == model.m).all()
    assert (loaded.v == model.v).all()
    assert loaded.step == model.step
