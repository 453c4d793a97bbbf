"""Synthetic datasets, CT-style preprocessing and bit-exact file I/O.

Two generated suites: "standard" images carry one elliptical target on
a darker background plus a few bright distractor shapes elsewhere, so
the prompt box (not intensity alone) identifies the target; "tiny"
images carry a sub-1%-area target with larger distractors crowding
within a few pixels, exercising the small-target failure mode.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatch, DomainError, EmptyDataset, InvalidWindow,
                     MalformedFile, naming)
from .geometry import BoundingBox, box_from_mask
from .metrics import count_within
from .rng import make_rng

FOREGROUND_MEAN = 0.7
BACKGROUND_MEAN = 0.3
NOISE_SIGMA = 0.05
SPLITS = ("train", "val", "test")  # a dataset's splits, in the order they are written


@dataclass(frozen=True)
class SyntheticSample:
    """A float32 image, its nonempty target mask of the same shape, and the mask's GT box.

    Generated and loaded images alike are float32, the dtype of F32G files,
    so a model trained in memory and one trained on the saved dataset see
    the same pixels.
    """

    image: np.ndarray
    mask: np.ndarray
    distractor_count: int
    target_area_fraction: float
    box: BoundingBox = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise DimensionMismatch(f"image is {self.image.shape}, mask {self.mask.shape}")
        object.__setattr__(self, "box", box_from_mask(self.mask))


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[SyntheticSample, ...]
    val: tuple[SyntheticSample, ...]
    test: tuple[SyntheticSample, ...]

    @property
    def all_samples(self) -> tuple[SyntheticSample, ...]:
        return self.train + self.val + self.test

    def __iter__(self):
        """(split name, sample) pairs in split order, as save_dataset takes them."""
        return ((name, sample) for name in SPLITS for sample in getattr(self, name))


def _ellipse_mask(grid: int, cx: float, cy: float, a: float, b: float) -> np.ndarray:
    centers = np.arange(grid) + 0.5
    return ((centers[None, :] - cx) / a) ** 2 + ((centers[:, None] - cy) / b) ** 2 <= 1.0


def _render(fg: np.ndarray, mask: np.ndarray, placed: int,
            rng: np.random.Generator) -> SyntheticSample:
    """Noisy image of the foreground fg, with mask as the labelled target."""
    image = np.where(fg, FOREGROUND_MEAN, BACKGROUND_MEAN)
    image += rng.normal(0.0, NOISE_SIGMA, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)
    return SyntheticSample(image=image.astype(np.float32), mask=mask, distractor_count=placed,
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


def _gen_tiny_sample(grid: int, rng: np.random.Generator) -> SyntheticSample:
    max_r = np.sqrt(0.01 * grid * grid / np.pi)
    for _ in range(100):
        r = rng.uniform(2.5, 0.75 * max_r)
        cx = rng.uniform(0.25 * grid, 0.75 * grid)
        cy = rng.uniform(0.25 * grid, 0.75 * grid)
        mask = _ellipse_mask(grid, cx, cy, r, r)
        if not mask.any() or mask.sum() >= 0.01 * grid * grid:
            continue

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
            near_ok = near_ok or count_within(mask, dmask, 10.0) > 0
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


def synthetic_samples(n: int, suite: str = "standard", grid: int = 128, seed: int = 0):
    """The (split name, sample) pairs of n samples, each made only as it is read.

    The arguments are checked at the call.  Sample i draws from its own stream,
    make_rng(seed, i); the names run 80/10/10, with val and test nonempty.
    """
    if n < 10:
        raise ValueError(f"n must be >= 10 so every split is nonempty, got {n}")
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    min_grid, gen = _SUITES[suite]
    if grid < min_grid:
        raise ValueError(f"grid must be >= {min_grid} for the {suite} suite, got {grid}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_held = max(1, n // 10)  # the size of val and of test
    names = ["train"] * (n - 2 * n_held) + ["val"] * n_held + ["test"] * n_held
    return ((name, gen(grid, make_rng(seed, i))) for i, name in enumerate(names))


def gen_synthetic(n: int, suite: str = "standard", grid: int = 128,
                  seed: int = 0) -> DatasetSplit:
    """The samples of synthetic_samples, held in memory and grouped by split."""
    pairs = list(synthetic_samples(n, suite, grid, seed))
    return DatasetSplit(*(tuple(s for name, s in pairs if name == split) for split in SPLITS))


def window_normalize(raw: np.ndarray, w_lo: float, w_hi: float) -> np.ndarray:
    """Window an HU grid to [w_lo, w_hi] and min-max normalize into [0, 1]."""
    if not (math.isfinite(w_lo) and math.isfinite(w_hi) and w_lo < w_hi):
        raise InvalidWindow(f"window requires finite w_lo < w_hi, got ({w_lo}, {w_hi})")
    with np.errstate(invalid="ignore"):  # a signaling NaN becomes NaN, as a quiet one does
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

# Blanks and comments, then a token.  A comment starts only where a token
# could, so `12#3` is one (non-numeric) token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pgm_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    for _ in range(count):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise MalformedFile("unexpected end of PGM header")
        try:
            tokens.append(int(token))
        except ValueError:
            raise MalformedFile(f"non-numeric PGM header token {token!r}")
    return tokens, pos


def read_mask_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM file as a mask (pixel > 0 is true); a format error names path."""
    data = Path(path).read_bytes()
    with naming(path):
        if data[:2] not in (b"P2", b"P5"):
            raise MalformedFile(f"not a P2/P5 PGM file: magic {data[:2]!r}")
        (width, height, maxval), pos = _read_pgm_tokens(data, 3, 2)
        if width < 1 or height < 1:
            raise MalformedFile(f"invalid PGM dimensions {width}x{height}")
        if maxval < 1 or maxval > 255:
            raise MalformedFile(f"maxval {maxval} outside 1..255")
        count = width * height
        if data[:2] == b"P2":
            values, _ = _read_pgm_tokens(data, count, pos)
            pixels = np.array(values)  # no fixed dtype: huge values must reach the range check
            out_of_range = pixels.min() < 0 or pixels.max() > maxval
        else:
            available = max(len(data) - (pos + 1), 0)
            if available < count:
                raise MalformedFile(f"expected {count} pixel bytes, got {available}")
            # A view of the payload in place; a uint8 byte can exceed only a maxval below 255.
            pixels = np.frombuffer(data, np.uint8, count=count, offset=pos + 1)
            out_of_range = maxval < 255 and pixels.max() > maxval
        if out_of_range:
            raise MalformedFile("pixel value outside 0..maxval")
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
    """Read an F32G file as a float32 (height, width) grid; a format error names path."""
    data = Path(path).read_bytes()
    with naming(path):
        if data[:4] != F32G_MAGIC:
            raise MalformedFile(f"bad magic {data[:4]!r}")
        if len(data) < 16:
            raise MalformedFile("truncated F32G header")
        width, height, _reserved = struct.unpack("<III", data[4:16])
        if width < 1 or height < 1:
            raise MalformedFile(f"invalid F32G dimensions {width}x{height}")
        expected = width * height * 4
        if len(data) - 16 != expected:
            raise MalformedFile(
                f"payload is {len(data) - 16} bytes, header implies {expected}")
        values = np.frombuffer(data, dtype="<f4", offset=16)  # a view; astype is the one copy
        return values.reshape(height, width).astype(np.float32)


def write_f32_grid(path, grid: np.ndarray):
    """Write grid as F32G; a C-contiguous little-endian float32 grid is written without a copy."""
    grid = np.ascontiguousarray(grid, dtype="<f4")
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(F32G_MAGIC)
        f.write(struct.pack("<III", w, h, 0))
        f.write(grid)


# --- On-disk dataset layout: numbered image/mask pairs plus a manifest ---

MANIFEST_SCHEMA_VERSION = 1


def save_dataset(samples, out_dir, suite: str, grid: int, seed: int):
    """Write each (split name, sample) pair, as it arrives, as an F32G image and a PGM
    mask, then a manifest with the splits.  The directory is made and an old manifest
    deleted once the first sample exists, so a dataset cut short has no manifest.
    Each image and mask name is unlinked before it is written, so a link left in the
    directory is replaced, not written through."""
    out = Path(out_dir)
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "suite": suite, "grid": grid,
                "seed": seed, "splits": {name: [] for name in SPLITS}, "samples": []}
    for index, (split_name, sample) in enumerate(samples):
        if index == 0:
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.json").unlink(missing_ok=True)
        stem = f"{index:04d}"
        image, mask = out / f"img_{stem}.f32g", out / f"mask_{stem}.pgm"
        for path in (image, mask):
            path.unlink(missing_ok=True)
        write_f32_grid(image, sample.image)
        write_mask_pgm(mask, sample.mask)
        manifest["samples"].append({
            "id": stem,
            "image": image.name,
            "mask": mask.name,
            "distractor_count": sample.distractor_count,
            "target_area_fraction": sample.target_area_fraction,
        })
        manifest["splits"][split_name].append(stem)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest_splits(manifest) -> dict[str, list[dict]]:
    """The sample entries of each split, once the whole manifest is checked."""
    if not (isinstance(manifest, dict) and isinstance(manifest.get("samples"), list)
            and isinstance(manifest.get("splits"), dict)):
        raise MalformedFile("needs a 'samples' list and a 'splits' object")
    by_id = {}
    for entry in manifest["samples"]:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("id", "image", "mask"))):
            raise MalformedFile("each sample needs a string 'id', 'image' and 'mask'")
        if entry["id"] in by_id:
            raise MalformedFile(f"sample {entry['id']!r} is listed twice")
        by_id[entry["id"]] = entry
    splits, split_of = {}, {}
    for name in SPLITS:
        ids = manifest["splits"].get(name, [])
        if not isinstance(ids, list):
            raise MalformedFile(f"split {name!r} is not a list of sample ids")
        for sid in ids:
            if not isinstance(sid, str) or sid not in by_id:
                raise MalformedFile(f"split {name!r} names unknown sample {sid!r}")
            if sid in split_of:
                raise MalformedFile(
                    f"split {name!r} names sample {sid!r}, already in split {split_of[sid]!r}")
            split_of[sid] = name
        splits[name] = [by_id[sid] for sid in ids]
    return splits


def load_dataset(data_dir) -> DatasetSplit:
    """Load a dataset written by save_dataset, checking its manifest before any file.

    A sample that appears twice, in one split or in two, is rejected, so
    no training image can leak into the test split.
    """
    root = Path(data_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise EmptyDataset(f"no manifest.json in {root}")
    with naming(manifest_path):
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as e:  # bad JSON or bad text encoding
            raise MalformedFile(e) from None
        entries = _manifest_splits(manifest)
    splits = {}
    for name, split_entries in entries.items():
        samples = []
        for entry in split_entries:
            image = read_f32_grid(root / entry["image"])
            with naming(root / entry["image"]):
                if not np.isfinite(image).all():
                    raise DomainError("image holds a non-finite pixel")
            mask = read_mask_pgm(root / entry["mask"])
            with naming(root / entry["mask"]):  # a mask that misfits its image, or is empty
                samples.append(SyntheticSample(
                    image=image, mask=mask,
                    distractor_count=entry.get("distractor_count", 0),
                    target_area_fraction=entry.get("target_area_fraction", 0.0)))
        splits[name] = tuple(samples)
    return DatasetSplit(**splits)
