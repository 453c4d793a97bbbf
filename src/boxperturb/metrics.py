"""Region and boundary segmentation metrics: DSC and NSD.

Masks are 2D boolean arrays.  Boundary extraction uses 4-connectivity
with the image border counting as outside; all distances are Euclidean
distances between pixel centers.  NSD first cuts both masks to
union_crop, the smallest rectangle that holds every true pixel of
either, so its work follows the masks, not the grid.  It then counts
the boundary pixels within tau of the other boundary with
count_within, a sorted range query over the boundary pixels alone
(one binary search per row offset) that builds no (h, w) array.  The
exact distance transform serves the public API and the oracle tests.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DimensionMismatch, EmptyMask


def _check_same_shape(g: np.ndarray, s: np.ndarray):
    if g.shape != s.shape:
        raise DimensionMismatch(f"mask shapes differ: {g.shape} vs {s.shape}")


def dsc(g: np.ndarray, s: np.ndarray) -> float:
    """Dice similarity 2|G∩S| / (|G|+|S|); 1.0 when both masks are empty."""
    g = np.asarray(g, dtype=bool)
    s = np.asarray(s, dtype=bool)
    _check_same_shape(g, s)
    total = int(np.count_nonzero(g)) + int(np.count_nonzero(s))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(g & s)) / total


def union_crop(g: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of g and s cut to the smallest rectangle that holds every true
    pixel of either (0x0 when both are empty).

    DSC, NSD and pixel counts are the same on the crops as on the full
    masks: every cut pixel is false in both, a false pixel and the grid
    edge both count as outside for the boundary, and distances do not
    change under translation.
    """
    g = np.asarray(g, dtype=bool)
    s = np.asarray(s, dtype=bool)
    _check_same_shape(g, s)
    either = g | s
    rows = np.flatnonzero(either.any(axis=1))
    if rows.size == 0:
        return g[:0, :0], s[:0, :0]
    band = slice(rows[0], rows[-1] + 1)
    cols = np.flatnonzero(either[band].any(axis=0))
    window = (band, slice(cols[0], cols[-1] + 1))
    return g[window], s[window]


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

    Two passes over squared distances: a per-row scan to the nearest
    in-row source column, then a per-column minimization over row
    offsets dr = 1, 2, ..., which stops early once dr*dr reaches the
    largest squared distance found so far (no farther row can lower
    any).  Every squared distance is an exact integer in float64, so the
    transform matches brute force bit for bit.  Memory is a few (h, w)
    arrays.  Raises EmptyMask when source has no pixel.
    """
    source = np.asarray(source, dtype=bool)
    if not source.any():
        raise EmptyMask("distance transform needs at least one source pixel")
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
        if d2 >= sq.max():
            break
        np.minimum(sq[dr:], np.add(row_sq[:-dr], d2, out=buf[dr:]), out=sq[dr:])
        np.minimum(sq[:-dr], np.add(row_sq[dr:], d2, out=buf[:-dr]), out=sq[:-dr])
    return np.sqrt(sq, out=sq)


def _count_within(query: np.ndarray, source: np.ndarray, shape: tuple[int, int],
                  tau: float) -> int:
    """count_within on the sorted, nonempty flat (row-major) indices of
    the query and source pixels of an (h, w) grid."""
    h, w = shape
    # sqrt(n) <= tau is monotone in the integer n, so it is n <= d2 for
    # one d2; float(tau * tau) is off from it by at most 1 either way.
    cap = (h - 1) ** 2 + (w - 1) ** 2
    d2 = int(min(tau * tau, cap))
    if d2 < cap and math.sqrt(d2 + 1) <= tau:
        d2 += 1
    elif math.sqrt(d2) > tau:
        d2 -= 1
    reach = math.isqrt(d2)
    # Key r*pitch + c keeps a run of 2*reach + 1 columns inside one row.
    pitch = w + 2 * reach + 1
    s_rows = source // w
    # A sentinel past every key, so the first key at or after any start exists.
    keys = np.append(source + s_rows * (pitch - w), np.iinfo(np.int64).max)
    left = query + query // w * (pitch - w)
    # Row offsets that reach a source row from some query row, nearest first.
    lo = max(-reach, s_rows[0] - query[-1] // w)
    hi = min(reach, s_rows[-1] - query[0] // w)
    for dr in sorted(range(lo, hi + 1), key=abs):
        half = math.isqrt(d2 - dr * dr)
        first = left + (dr * pitch - half)
        # A query misses when the first key at or after its window's start
        # lies past the window's end.
        missed = keys[np.searchsorted(keys, first)] > first + 2 * half
        left = left[missed]
        if left.size == 0:
            break
    return query.size - left.size


def count_within(query: np.ndarray, source: np.ndarray, tau: float) -> int:
    """Number of query pixels within Euclidean distance tau of some source pixel.

    The same float test as thresholding distance_transform(source) at
    tau, sqrt(n) <= tau on integer squared distances n, which is n <= d2
    for one integer d2.  Source pixels are sorted keys; for each row
    offset dr, nearest first, one binary search per query finds the
    first key at or after the start of its window, the columns within
    the half-width isqrt(d2 - dr*dr); the query hits when that key lies
    within the window, and hits drop out.  Time O(q log s) per row
    offset tried (at most 2*isqrt(d2) + 1 of them, fewer once every
    query is matched), memory O(q + s) for q query and s source pixels;
    no (h, w) array is built.
    """
    if not tau >= 0:  # also rejects NaN
        raise ValueError(f"tau must be >= 0, got {tau}")
    query = np.asarray(query, dtype=bool)
    source = np.asarray(source, dtype=bool)
    _check_same_shape(query, source)
    q, s = np.flatnonzero(query), np.flatnonzero(source)
    if q.size == 0 or s.size == 0:
        return 0
    return _count_within(q, s, source.shape, tau)


def nsd(g: np.ndarray, s: np.ndarray, tau: float) -> float:
    """Normalized surface distance at tolerance tau.

    Fraction of each mask's boundary lying within Euclidean distance tau
    of the other mask's boundary, counted by count_within's range query
    over the boundary pixels of the masks' union_crop, so time and
    memory follow the masks and their boundary lengths, not the grid or
    tau.  Both boundaries empty -> 1.0; exactly one empty -> 0.0.
    """
    if not tau >= 0:  # also rejects NaN
        raise ValueError(f"tau must be >= 0, got {tau}")
    g, s = union_crop(g, s)
    bg = np.flatnonzero(boundary(g))
    bs = np.flatnonzero(boundary(s))
    if bg.size == 0 and bs.size == 0:
        return 1.0
    if bg.size == 0 or bs.size == 0:
        return 0.0
    hits = _count_within(bg, bs, g.shape, tau) + _count_within(bs, bg, g.shape, tau)
    return hits / (bg.size + bs.size)
