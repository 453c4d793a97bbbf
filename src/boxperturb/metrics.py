"""Region and boundary segmentation metrics: DSC and NSD.

Masks are 2D boolean arrays.  Boundary extraction uses 4-connectivity
with the image border counting as outside; all distances are Euclidean
distances between pixel centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySource


@dataclass(frozen=True)
class MetricReport:
    dsc: float
    nsd: float
    tau: float


def _check_same_shape(g: np.ndarray, s: np.ndarray):
    if g.shape != s.shape:
        raise DimensionMismatch(f"mask shapes differ: {g.shape} vs {s.shape}")


def dsc(g: np.ndarray, s: np.ndarray) -> float:
    """Dice similarity 2|G∩S| / (|G|+|S|); 1.0 when both masks are empty."""
    g = np.asarray(g, dtype=bool)
    s = np.asarray(s, dtype=bool)
    _check_same_shape(g, s)
    total = int(g.sum()) + int(s.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((g & s).sum()) / total


def boundary(mask: np.ndarray) -> np.ndarray:
    """True pixels with at least one false 4-neighbor (off-grid counts as false)."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return mask & ~interior


def distance_transform(source: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from every pixel center to the nearest source pixel.

    Two-pass algorithm over squared distances: a per-row scan to the
    nearest in-row source column, then a per-column minimization over
    row offsets dr = 1, 2, ..., which stops once dr*dr reaches the
    largest squared distance found so far (no farther row can lower
    any).  All intermediate squared distances are exact integers in
    float64, so the result matches brute force bit for bit.  Memory is
    a few (h, w) arrays.
    """
    source = np.asarray(source, dtype=bool)
    if not source.any():
        raise EmptySource("distance transform needs at least one source pixel")
    h, w = source.shape
    cols = np.arange(w, dtype=np.float64)
    # Squared distance to the nearest source column at or left of each
    # pixel, in the grid and in its mirror image (so at or right of it).
    # A row without one sees a source at -far, farther than any pixel
    # pair, so it never wins a minimum.
    far = float(h + w)
    row_sq, buf = (np.square(cols - np.maximum.accumulate(np.where(src, cols, -far), axis=1))
                   for src in (source, source[:, ::-1]))
    np.minimum(row_sq, buf[:, ::-1], out=row_sq)

    sq = row_sq.copy()
    for dr in range(1, h):
        d2 = float(dr * dr)
        if d2 >= sq.max():  # no farther row can lower any distance
            break
        np.minimum(sq[dr:], np.add(row_sq[:-dr], d2, out=buf[dr:]), out=sq[dr:])
        np.minimum(sq[:-dr], np.add(row_sq[dr:], d2, out=buf[:-dr]), out=sq[:-dr])
    return np.sqrt(sq, out=sq)


def disk_dilate(source: np.ndarray, tau: float) -> np.ndarray:
    """True where some source pixel lies within Euclidean distance tau.

    An OR of the source over the integer offsets (dr, dc) with
    sqrt(dr*dr + dc*dc) <= tau, the same float test as thresholding
    distance_transform.  For each row offset the admissible column
    offsets form a run |dc| <= k, so the source is dilated along rows
    by k with a prefix-sum window and then shifted by +-dr.  Memory is
    O(h*w) and time O(min(tau, h) * h * w).
    """
    h, w = source.shape
    csum = np.zeros((h, w + 1), dtype=np.int32)
    np.cumsum(source, axis=1, dtype=np.int32, out=csum[:, 1:])
    cols = np.arange(w)
    dc2 = (cols * cols).astype(np.float64)
    out = np.zeros((h, w), dtype=bool)
    reach = h - 1 if tau >= h - 1 else math.floor(tau)
    k_prev = -1
    for dr in range(reach + 1):
        k = int(np.count_nonzero(np.sqrt(dr * dr + dc2) <= tau)) - 1
        if k != k_prev:  # k shrinks as |dr| grows; reuse the row dilation while it holds
            band = csum[:, np.minimum(cols + k + 1, w)] > csum[:, np.maximum(cols - k, 0)]
            k_prev = k
        out[:h - dr] |= band[dr:]
        out[dr:] |= band[:h - dr]
    return out


def nsd(g: np.ndarray, s: np.ndarray, tau: float) -> float:
    """Normalized surface distance at tolerance tau.

    Fraction of each mask's boundary lying within Euclidean distance tau
    of the other mask's boundary, found by dilating each boundary with
    the tau disk.  Both boundaries empty -> 1.0; exactly one empty -> 0.0.
    """
    if not tau >= 0:  # also rejects NaN
        raise ValueError(f"tau must be >= 0, got {tau}")
    g = np.asarray(g, dtype=bool)
    s = np.asarray(s, dtype=bool)
    _check_same_shape(g, s)
    bg = boundary(g)
    bs = boundary(s)
    n_bg = int(bg.sum())
    n_bs = int(bs.sum())
    if n_bg == 0 and n_bs == 0:
        return 1.0
    if n_bg == 0 or n_bs == 0:
        return 0.0
    hits = int((bg & disk_dilate(bs, tau)).sum()) + int((bs & disk_dilate(bg, tau)).sum())
    return hits / (n_bg + n_bs)


def metric_report(g: np.ndarray, s: np.ndarray, tau: float = 2.0) -> MetricReport:
    """DSC and NSD of a prediction against ground truth."""
    return MetricReport(dsc=dsc(g, s), nsd=nsd(g, s, tau), tau=tau)
