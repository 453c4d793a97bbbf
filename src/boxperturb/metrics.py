"""Region and boundary segmentation metrics: DSC and NSD.

Masks are 2D boolean arrays.  Boundary extraction uses 4-connectivity
with the image border counting as outside; all distances are Euclidean
distances between pixel centers.  One exact squared-distance pass serves
both the distance transform and NSD's tau dilation, which caps it at tau.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DimensionMismatch, EmptySource


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


def _squared_distances(source: np.ndarray, reach: float) -> np.ndarray:
    """Squared distance from every pixel center to the nearest source pixel
    at most reach rows away, or at least (h + w)**2 where there is none.

    Two passes: a per-row scan to the nearest in-row source column, then
    a per-column minimization over row offsets dr = 1, 2, ... up to
    reach, which stops early once dr*dr reaches the largest squared
    distance found so far (no farther row can lower any).  Every value
    is an exact integer in float64, so the transform matches brute force
    bit for bit.  Memory is a few (h, w) arrays.
    """
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
        if dr > reach or d2 >= sq.max():
            break
        np.minimum(sq[dr:], np.add(row_sq[:-dr], d2, out=buf[dr:]), out=sq[dr:])
        np.minimum(sq[:-dr], np.add(row_sq[dr:], d2, out=buf[:-dr]), out=sq[:-dr])
    return sq


def distance_transform(source: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from every pixel center to the nearest source pixel."""
    source = np.asarray(source, dtype=bool)
    if not source.any():
        raise EmptySource("distance transform needs at least one source pixel")
    sq = _squared_distances(source, math.inf)
    return np.sqrt(sq, out=sq)


def disk_dilate(source: np.ndarray, tau: float) -> np.ndarray:
    """True where some source pixel lies within Euclidean distance tau.

    The float test of thresholding distance_transform, sqrt(d2) <= tau,
    on the source's bounding box grown by floor(tau) (a pixel outside it
    is farther than tau along one axis), with the column pass capped at
    floor(tau) rows (as far as a source within tau can be).  Time
    O(min(tau, h)*h*w) and memory O(h*w) for the window's h and w.
    """
    source = np.asarray(source, dtype=bool)
    out = np.zeros(source.shape, dtype=bool)
    rows, cols = (np.flatnonzero(source.any(axis=axis)) for axis in (1, 0))
    if rows.size == 0:
        return out
    grow = int(min(tau, sum(source.shape)))
    win = np.s_[max(rows[0] - grow, 0):rows[-1] + grow + 1,
                max(cols[0] - grow, 0):cols[-1] + grow + 1]
    sq = _squared_distances(source[win], tau)
    out[win] = np.sqrt(sq, out=sq) <= tau
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
