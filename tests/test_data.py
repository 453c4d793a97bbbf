import tracemalloc

import numpy as np
import pytest

from boxperturb import data as data_mod
from boxperturb.errors import (BadMagic, InvalidWindow, MalformedHeader,
                               SizeMismatch, TruncatedPayload,
                               UnsupportedMaxval)
from boxperturb.geometry import box_from_mask
from boxperturb.rng import make_rng

from oracles import brute_distance_grid, brute_min_gap


def test_gen_deterministic_per_seed():
    a = data_mod.gen_synthetic(12, "standard", grid=48, seed=5)
    b = data_mod.gen_synthetic(12, "standard", grid=48, seed=5)
    for sa, sb in zip(a.all_samples, b.all_samples):
        assert (sa.image == sb.image).all()
        assert (sa.mask == sb.mask).all()
    c = data_mod.gen_synthetic(12, "standard", grid=48, seed=6)
    assert any((sa.mask != sc.mask).any()
               for sa, sc in zip(a.all_samples, c.all_samples))


def test_gen_split_sizes():
    split = data_mod.gen_synthetic(10, "standard", grid=48, seed=1)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)
    split = data_mod.gen_synthetic(25, "standard", grid=48, seed=1)
    assert (len(split.train), len(split.val), len(split.test)) == (21, 2, 2)


def test_gen_rejects_small_n():
    with pytest.raises(ValueError):
        data_mod.gen_synthetic(5, "standard")


def test_standard_suite_contracts():
    split = data_mod.gen_synthetic(15, "standard", grid=64, seed=2)
    for sample in split.all_samples:
        assert sample.mask.any()
        box_from_mask(sample.mask)
        assert 0.02 <= sample.target_area_fraction <= 0.2 + 1e-9
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0


def test_tiny_suite_contracts():
    split = data_mod.gen_synthetic(12, "tiny", grid=128, seed=3)
    for sample in split.all_samples:
        assert sample.mask.any()
        assert sample.target_area_fraction < 0.01
        assert sample.distractor_count >= 1
        # A bright distractor structure exists outside the target mask.
        off_target_bright = (sample.image > 0.5) & ~sample.mask
        assert off_target_bright.sum() > sample.mask.sum()


@pytest.mark.parametrize("suite, min_grid", [("standard", 13), ("tiny", 60)])
def test_gen_minimum_grid(suite, min_grid):
    with pytest.raises(ValueError, match=f"grid must be >= {min_grid} "):
        data_mod.gen_synthetic(10, suite, grid=min_grid - 1)
    for seed in range(4):
        data_mod.gen_synthetic(10, suite, grid=min_grid, seed=seed)


def test_tiny_generation_memory_bounded():
    tracemalloc.start()
    try:
        data_mod.gen_synthetic(10, "tiny", grid=512, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The ten samples take 23.6 MiB; an all-pairs distance matrix between
    # target and distractor pixels took 297 MiB here.
    assert peak < 64 * 2**20


# 99 is not a sum of two squares, so no two pixel centers are sqrt(99) apart.
@pytest.mark.parametrize("gap2", [98, 100, 101])
def test_near_test_matches_all_pairs_oracle(gap2):
    grid, checked = 40, 0
    for i in range(40):
        rng = make_rng(605, gap2, i)
        h, w = (int(v) for v in rng.integers(1, 7, 2))
        # Most targets touch a grid border, where their window is clipped.
        r0 = (0, grid - h, int(rng.integers(0, grid - h + 1)))[i % 3]
        c0 = (grid - w, 0, int(rng.integers(0, grid - w + 1)), 0)[i % 4]
        target = np.zeros((grid, grid), dtype=bool)
        target[r0:r0 + h, c0:c0 + w] = rng.random((h, w)) < 0.7
        target[r0, c0] = True
        d2 = np.rint(brute_distance_grid(target) ** 2)
        # One pixel exactly sqrt(gap2) from the target, the rest farther.
        candidates = np.argwhere(d2 == gap2)
        if len(candidates) == 0:
            continue
        other = (d2 > gap2) & (rng.random((grid, grid)) < 0.05)
        other[tuple(candidates[rng.integers(len(candidates))])] = True
        assert brute_min_gap(target, other) == np.sqrt(gap2)
        assert data_mod._near_test(target)(other) is (brute_min_gap(target, other) <= 10.0)
        checked += 1
    assert checked >= 30


def test_near_test_random_pairs():
    for i in range(60):
        rng = make_rng(606, i)
        grid = int(rng.integers(1, 50))
        target = rng.random((grid, grid)) < rng.uniform(0.002, 0.05)
        other = rng.random((grid, grid)) < rng.uniform(0.002, 0.05)
        if not (target.any() and other.any()):
            continue
        assert data_mod._near_test(target)(other) is (brute_min_gap(target, other) <= 10.0)


def test_window_normalize_endpoints():
    raw = np.array([[-360.0, 440.0, 40.0]])
    out = data_mod.window_normalize(raw, -360.0, 440.0)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert out[0, 2] == pytest.approx(0.5)


def test_window_normalize_clamps_and_monotone():
    raw = np.linspace(-2000, 2000, 101).reshape(1, -1)
    out = data_mod.window_normalize(raw, -1000.0, 400.0)
    assert out.min() == 0.0 and out.max() == 1.0
    assert (np.diff(out[0]) >= 0).all()


def test_window_invalid():
    with pytest.raises(InvalidWindow):
        data_mod.window_normalize(np.zeros((2, 2)), 100.0, 100.0)


def test_resample_identity():
    rng = make_rng(600)
    img = rng.random((7, 9))
    out = data_mod.resample_bilinear(img, 9, 7)
    assert np.allclose(out, img)


def test_resample_constant():
    img = np.full((5, 5), 0.37)
    out = data_mod.resample_bilinear(img, 13, 4)
    assert np.allclose(out, 0.37)


def test_resample_hand_ramp():
    img = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = data_mod.resample_bilinear(img, 4, 4)
    expected_row = [0.0, 0.25, 0.75, 1.0]
    for row in out:
        assert np.allclose(row, expected_row)


def test_resample_preserves_envelope():
    for i in range(10):
        img = make_rng(601, i).random((11, 13))
        out = data_mod.resample_bilinear(img, 29, 17)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


def four_gather_bilinear(image, out_w, out_h):
    """Bilinear resampling with each output pixel's four neighbors gathered apart."""
    in_h, in_w = image.shape
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    x0 = np.minimum(xs.astype(int), in_w - 2) if in_w > 1 else np.zeros(out_w, int)
    y0 = np.minimum(ys.astype(int), in_h - 2) if in_h > 1 else np.zeros(out_h, int)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bottom = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


@pytest.mark.parametrize("in_hw, out_wh", [
    ((1, 1), (1, 1)), ((1, 1), (5, 3)), ((7, 1), (1, 1)), ((1, 9), (4, 1)),
    ((6, 6), (1, 1)), ((2, 3), (11, 13)), ((40, 3), (2, 60)), ((17, 29), (29, 17)),
])
def test_resample_matches_four_gather_formula(in_hw, out_wh):
    image = make_rng(607).random(in_hw)
    out = data_mod.resample_bilinear(image, *out_wh)
    assert out.tobytes() == four_gather_bilinear(image, *out_wh).tobytes()


def test_resample_matches_four_gather_formula_random_shapes():
    for i in range(100):
        rng = make_rng(608, i)
        in_h, in_w, out_w, out_h = (int(v) for v in rng.integers(1, 40, 4))
        image = rng.random((in_h, in_w))
        out = data_mod.resample_bilinear(image, out_w, out_h)
        assert out.tobytes() == four_gather_bilinear(image, out_w, out_h).tobytes()


def test_pgm_round_trip(tmp_path):
    for i in range(30):
        mask = make_rng(603, i).random((9, 13)) < 0.4
        path = tmp_path / f"m{i}.pgm"
        data_mod.write_mask_pgm(path, mask)
        assert (data_mod.read_mask_pgm(path) == mask).all()


def test_pgm_ascii_p2(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n2 1\n255\n0 255\n")
    mask = data_mod.read_mask_pgm(path)
    assert mask.tolist() == [[False, True]]


def test_pgm_unsupported_maxval(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_text("P2\n2 1\n65535\n0 65535\n")
    with pytest.raises(UnsupportedMaxval):
        data_mod.read_mask_pgm(path)


def test_pgm_malformed_and_truncated(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(MalformedHeader):
        data_mod.read_mask_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(TruncatedPayload):
        data_mod.read_mask_pgm(short)


@pytest.mark.parametrize("content", [
    b"P5\n2 1\n1\n\x00\x02", b"P5\n1 1\n254\n\xff", b"P2\n2 1\n255\n0 -1\n",
    b"P2\n2 1\n7\n0 8\n", b"P2\n2 1\n255\n0 99999999999999999999999\n",
    b"P2\n2 1\n255\n-99999999999999999999999 1\n",
])
def test_pgm_pixel_outside_maxval(tmp_path, content):
    path = tmp_path / "over.pgm"
    path.write_bytes(content)
    with pytest.raises(MalformedHeader, match="outside 0..maxval"):
        data_mod.read_mask_pgm(path)


def test_f32g_round_trip_bit_exact(tmp_path):
    for i in range(30):
        grid = make_rng(604, i).normal(size=(6, 5)).astype(np.float32)
        path = tmp_path / f"g{i}.f32g"
        data_mod.write_f32_grid(path, grid)
        back = data_mod.read_f32_grid(path)
        assert back.tobytes() == grid.tobytes()


def test_f32g_nan_payload_round_trip(tmp_path):
    grid = np.array([[np.nan, -360.0], [np.inf, 0.0]], dtype=np.float32)
    path = tmp_path / "nan.f32g"
    data_mod.write_f32_grid(path, grid)
    assert data_mod.read_f32_grid(path).tobytes() == grid.tobytes()


def test_f32g_single_value_layout(tmp_path):
    path = tmp_path / "one.f32g"
    data_mod.write_f32_grid(path, np.array([[-360.0]], dtype=np.float32))
    raw = path.read_bytes()
    assert len(raw) == 20
    assert raw[:4] == b"F32G"


def test_f32g_bad_magic_and_size(tmp_path):
    bad = tmp_path / "bad.f32g"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        data_mod.read_f32_grid(bad)
    mismatch = tmp_path / "mismatch.f32g"
    import struct
    mismatch.write_bytes(b"F32G" + struct.pack("<III", 3, 3, 0) + b"\x00" * 8)
    with pytest.raises(SizeMismatch):
        data_mod.read_f32_grid(mismatch)


def test_dataset_save_load_round_trip(tmp_path):
    split = data_mod.gen_synthetic(10, "standard", grid=32, seed=8)
    data_mod.save_dataset(split, tmp_path / "ds", "standard", 32, 8)
    loaded = data_mod.load_dataset(tmp_path / "ds")
    assert len(loaded.train) == len(split.train)
    for a, b in zip(split.all_samples, loaded.all_samples):
        assert (a.mask == b.mask).all()
        assert np.allclose(a.image, b.image, atol=1e-7)
