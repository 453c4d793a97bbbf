"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fast paths: distances are
minimized over all (pixel, source) pairs in exact integer arithmetic,
and NSD is recomputed from pairwise boundary distances with no distance
transform.
"""

import numpy as np


def brute_distance_grid(source: np.ndarray) -> np.ndarray:
    """Min-over-pairs Euclidean distance from every pixel to the source set."""
    source = np.asarray(source, dtype=bool)
    h, w = source.shape
    sr, sc = np.nonzero(source)
    rows = np.arange(h)[:, None, None]
    cols = np.arange(w)[None, :, None]
    d2 = (rows - sr[None, None, :]) ** 2 + (cols - sc[None, None, :]) ** 2
    return np.sqrt(d2.min(axis=2).astype(np.float64))


def brute_boundary(mask: np.ndarray) -> np.ndarray:
    """4-connectivity boundary with the border counting as outside."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if not (0 <= rr < h and 0 <= cc < w) or not mask[rr, cc]:
                    out[r, c] = True
                    break
    return out


def brute_nsd(g: np.ndarray, s: np.ndarray, tau: float) -> float:
    """NSD from pairwise boundary-pixel distances, no transform."""
    bg = brute_boundary(g)
    bs = brute_boundary(s)
    pg = np.argwhere(bg)
    ps = np.argwhere(bs)
    if len(pg) == 0 and len(ps) == 0:
        return 1.0
    if len(pg) == 0 or len(ps) == 0:
        return 0.0
    d2 = ((pg[:, None, :] - ps[None, :, :]) ** 2).sum(axis=2)
    tau2 = tau * tau
    hits = int((d2.min(axis=1) <= tau2).sum()) + int((d2.min(axis=0) <= tau2).sum())
    return hits / (len(pg) + len(ps))


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def brute_min_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest center-to-center distance between two pixel sets, over all pairs."""
    pa = np.argwhere(a)
    pb = np.argwhere(b)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min()))
