"""Synthetic datasets, CT-style preprocessing and bit-exact file I/O.

Two generated suites: "standard" images carry one elliptical target on
a darker background plus a few bright distractor shapes elsewhere, so
the prompt box (not intensity alone) identifies the target; "tiny"
images carry a sub-1%-area target with larger distractors crowding
within a few pixels, exercising the small-target failure mode.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadMagic, EmptyDataset, InvalidWindow, MalformedHeader,
                     MalformedManifest, SizeMismatch, TruncatedPayload,
                     UnsupportedMaxval)
from .geometry import box_from_mask
from .metrics import disk_dilate
from .rng import make_rng

FOREGROUND_MEAN = 0.7
BACKGROUND_MEAN = 0.3
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SyntheticSample:
    image: np.ndarray
    mask: np.ndarray
    distractor_count: int
    target_area_fraction: float


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[SyntheticSample, ...]
    val: tuple[SyntheticSample, ...]
    test: tuple[SyntheticSample, ...]

    @property
    def all_samples(self) -> tuple[SyntheticSample, ...]:
        return self.train + self.val + self.test


def split_counts(n: int) -> tuple[int, int, int]:
    """80/10/10 split sizes; validation and test get at least one sample each."""
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    return n - n_val - n_test, n_val, n_test


def _ellipse_mask(grid: int, cx: float, cy: float, a: float, b: float) -> np.ndarray:
    centers = np.arange(grid) + 0.5
    return ((centers[None, :] - cx) / a) ** 2 + ((centers[:, None] - cy) / b) ** 2 <= 1.0


def _render(fg: np.ndarray, mask: np.ndarray, placed: int,
            rng: np.random.Generator) -> SyntheticSample:
    """Noisy image of the foreground fg, with mask as the labelled target."""
    image = np.where(fg, FOREGROUND_MEAN, BACKGROUND_MEAN)
    image = np.clip(image + rng.normal(0.0, NOISE_SIGMA, size=image.shape), 0.0, 1.0)
    return SyntheticSample(image=image, mask=mask, distractor_count=placed,
                           target_area_fraction=float(mask.sum() / mask.size))


def _gen_standard_sample(grid: int, rng: np.random.Generator) -> SyntheticSample:
    area_frac = rng.uniform(0.02, 0.2)
    aspect = rng.uniform(0.5, 2.0)
    area = area_frac * grid * grid
    a = np.sqrt(area * aspect / np.pi)
    b = a / aspect
    cx = rng.uniform(a + 1, grid - a - 1)
    cy = rng.uniform(b + 1, grid - b - 1)
    mask = _ellipse_mask(grid, cx, cy, a, b)

    fg = mask.copy()
    n_distract = int(rng.integers(1, 4))
    placed = 0
    for _ in range(40):
        if placed == n_distract:
            break
        r = rng.uniform(0.3, 1.0) * min(a, b)
        dx = rng.uniform(r + 1, grid - r - 1)
        dy = rng.uniform(r + 1, grid - r - 1)
        # Keep distractors clear of the target so the tight box excludes them.
        if np.hypot(dx - cx, dy - cy) < (max(a, b) + r + 4):
            continue
        fg |= _ellipse_mask(grid, dx, dy, r, r)
        placed += 1

    sample = _render(fg, mask, placed, rng)
    assert mask.any() and 0.0 < sample.target_area_fraction
    return sample


def _near_test(target: np.ndarray):
    """Predicate: does another mask come within 10 px of target?"""
    # Pixels that close lie in target's box grown by 10 px; only that window is dilated.
    box = box_from_mask(target)
    win = np.s_[max(int(box.y_min) - 10, 0):int(box.y_max) + 10,
                max(int(box.x_min) - 10, 0):int(box.x_max) + 10]
    return lambda other: bool((target[win] & disk_dilate(other[win], 10.0)).any())


def _gen_tiny_sample(grid: int, rng: np.random.Generator) -> SyntheticSample:
    max_r = np.sqrt(0.01 * grid * grid / np.pi)
    for _ in range(100):
        r = rng.uniform(2.5, 0.75 * max_r)
        cx = rng.uniform(0.25 * grid, 0.75 * grid)
        cy = rng.uniform(0.25 * grid, 0.75 * grid)
        mask = _ellipse_mask(grid, cx, cy, r, r)
        if not mask.any() or mask.sum() >= 0.01 * grid * grid:
            continue

        is_near = _near_test(mask)
        fg = mask.copy()
        n_distract = int(rng.integers(1, 4))
        placed = 0
        near_ok = False
        for _ in range(60):
            if placed == n_distract:
                break
            dr = rng.uniform(2.0, 4.0) * r
            gap = rng.uniform(2.0, 8.0)
            angle = rng.uniform(0.0, 2 * np.pi)
            dist = r + dr + gap
            dx = cx + dist * np.cos(angle)
            dy = cy + dist * np.sin(angle)
            if not (dr + 1 <= dx <= grid - dr - 1 and dr + 1 <= dy <= grid - dr - 1):
                continue
            dmask = _ellipse_mask(grid, dx, dy, dr, dr)
            if not dmask.any() or (dmask & mask).any():
                continue
            near_ok = near_ok or is_near(dmask)
            fg |= dmask
            placed += 1
        if not near_ok:  # also when no distractor was placed
            continue

        sample = _render(fg, mask, placed, rng)
        assert 0.0 < sample.target_area_fraction < 0.01
        return sample
    raise RuntimeError("failed to place a valid tiny-suite sample")


# Smallest grids: below 60 the tiny radius range [2.5, 0.75 * max_r] is empty; from
# 13 up both standard semi-axes are >= sqrt(2)/2, so the target covers a pixel center.
_SUITES = {"standard": (13, _gen_standard_sample), "tiny": (60, _gen_tiny_sample)}


def gen_synthetic(n: int, suite: str = "standard", grid: int = 128,
                  seed: int = 0) -> DatasetSplit:
    """Generate n samples, deterministically per seed, split 80/10/10.

    Each sample is drawn from its own child RNG stream keyed by the
    sample index, so generation order does not affect the result.
    """
    if n < 10:
        raise ValueError(f"n must be >= 10 so every split is nonempty, got {n}")
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    min_grid, gen = _SUITES[suite]
    if grid < min_grid:
        raise ValueError(f"grid must be >= {min_grid} for the {suite} suite, got {grid}")
    samples = [gen(grid, make_rng(seed, i)) for i in range(n)]
    for sample in samples:
        box_from_mask(sample.mask)  # generator contract: never empty
    n_train, n_val, n_test = split_counts(n)
    return DatasetSplit(train=tuple(samples[:n_train]),
                        val=tuple(samples[n_train:n_train + n_val]),
                        test=tuple(samples[n_train + n_val:]))


def window_normalize(raw: np.ndarray, w_lo: float, w_hi: float) -> np.ndarray:
    """Window an HU grid to [w_lo, w_hi] and min-max normalize into [0, 1]."""
    if not w_lo < w_hi:
        raise InvalidWindow(f"window requires w_lo < w_hi, got ({w_lo}, {w_hi})")
    raw = np.asarray(raw, dtype=np.float64)
    return np.clip((raw - w_lo) / (w_hi - w_lo), 0.0, 1.0)


def resample_bilinear(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample at output pixel centers mapped into input coordinates."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    image = np.asarray(image, dtype=np.float64)
    in_h, in_w = image.shape
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    x0 = np.minimum(xs.astype(int), in_w - 2) if in_w > 1 else np.zeros(out_w, int)
    y0 = np.minimum(ys.astype(int), in_h - 2) if in_h > 1 else np.zeros(out_h, int)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    # Blend each input row that the output reads along x, then those rows along y.
    used, at = np.unique(np.concatenate((y0, y1)), return_inverse=True)
    rows = image[used[:, None], x0] * (1 - fx) + image[used[:, None], x1] * fx
    return rows[at[:out_h]] * (1 - fy) + rows[at[out_h:]] * fy


# --- PGM mask I/O (P2 read, P5 read/write, maxval <= 255) ---

def _read_pgm_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeader("unexpected end of PGM header")
        token = data[start:pos]
        try:
            tokens.append(int(token))
        except ValueError:
            raise MalformedHeader(f"non-numeric PGM header token {token!r}")
    return tokens, pos


def read_mask_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM file as a binary mask (value > 0 means foreground)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P2", b"P5"):
        raise MalformedHeader(f"not a P2/P5 PGM file: magic {data[:2]!r}")
    (width, height, maxval), pos = _read_pgm_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise MalformedHeader(f"invalid PGM dimensions {width}x{height}")
    if maxval < 1 or maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} outside 1..255")
    count = width * height
    if data[:2] == b"P2":
        values, _ = _read_pgm_tokens(data, count, pos)
        pixels = np.array(values)  # no fixed dtype: a huge value must reach the range check
    else:
        payload = data[pos + 1:pos + 1 + count]
        if len(payload) < count:
            raise TruncatedPayload(
                f"expected {count} pixel bytes, got {len(payload)}")
        pixels = np.frombuffer(payload, dtype=np.uint8)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise MalformedHeader("pixel value outside 0..maxval")
    return (pixels > 0).reshape(height, width)


def write_mask_pgm(path, mask: np.ndarray):
    """Write a binary mask as binary PGM (P5), foreground 255."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write((mask.astype(np.uint8) * 255).tobytes())


# --- F32G grid I/O: "F32G" magic, LE u32 width/height/reserved, LE f32 payload ---

F32G_MAGIC = b"F32G"


def read_f32_grid(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != F32G_MAGIC:
        raise BadMagic(f"bad magic {data[:4]!r}")
    if len(data) < 16:
        raise SizeMismatch("truncated F32G header")
    width, height, _reserved = struct.unpack("<III", data[4:16])
    expected = width * height * 4
    if len(data) - 16 != expected:
        raise SizeMismatch(
            f"payload is {len(data) - 16} bytes, header implies {expected}")
    values = np.frombuffer(data[16:], dtype="<f4")
    return values.reshape(height, width).astype(np.float32)


def write_f32_grid(path, grid: np.ndarray):
    grid = np.asarray(grid, dtype=np.float32)
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(F32G_MAGIC)
        f.write(struct.pack("<III", w, h, 0))
        f.write(grid.astype("<f4").tobytes())


# --- On-disk dataset layout: numbered image/mask pairs plus a manifest ---

MANIFEST_SCHEMA_VERSION = 1


def save_dataset(split: DatasetSplit, out_dir, suite: str, grid: int, seed: int):
    """Write image (F32G) / mask (PGM) pairs and a manifest with the splits."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {"train": split.train, "val": split.val, "test": split.test}
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "suite": suite,
                "grid": grid, "seed": seed, "splits": {}, "samples": []}
    index = 0
    for split_name, samples in names.items():
        ids = []
        for sample in samples:
            stem = f"{index:04d}"
            write_f32_grid(out / f"img_{stem}.f32g", sample.image)
            write_mask_pgm(out / f"mask_{stem}.pgm", sample.mask)
            manifest["samples"].append({
                "id": stem,
                "image": f"img_{stem}.f32g",
                "mask": f"mask_{stem}.pgm",
                "distractor_count": sample.distractor_count,
                "target_area_fraction": sample.target_area_fraction,
            })
            ids.append(stem)
            index += 1
        manifest["splits"][split_name] = ids
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_dataset(data_dir) -> DatasetSplit:
    """Load a dataset written by save_dataset."""
    root = Path(data_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise EmptyDataset(f"no manifest.json in {root}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except ValueError as e:  # bad JSON or bad text encoding
        raise MalformedManifest(f"{manifest_path}: {e}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("samples"), list)
            and isinstance(manifest.get("splits"), dict)):
        raise MalformedManifest(
            f"{manifest_path}: needs a 'samples' list and a 'splits' object")
    by_id = {}
    for entry in manifest["samples"]:
        if not (isinstance(entry, dict) and {"id", "image", "mask"} <= entry.keys()
                and isinstance(entry["id"], str)):
            raise MalformedManifest(
                f"{manifest_path}: each sample needs a string 'id', an 'image' and a 'mask'")
        by_id[entry["id"]] = entry
    splits = {}
    for name in ("train", "val", "test"):
        samples = []
        for sid in manifest["splits"].get(name, []):
            if not isinstance(sid, str) or sid not in by_id:
                raise MalformedManifest(
                    f"{manifest_path}: split {name!r} names unknown sample {sid!r}")
            entry = by_id[sid]
            image = read_f32_grid(root / entry["image"]).astype(np.float64)
            mask = read_mask_pgm(root / entry["mask"])
            samples.append(SyntheticSample(
                image=image, mask=mask,
                distractor_count=entry.get("distractor_count", 0),
                target_area_fraction=entry.get("target_area_fraction", 0.0)))
        splits[name] = tuple(samples)
    return DatasetSplit(train=splits["train"], val=splits["val"],
                        test=splits["test"])
