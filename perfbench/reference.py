"""Reference computations the benchmark checks the program's outputs against.

Each one is written from its definition, not from the package's code:
DSC from set counts, NSD from pairwise boundary-pixel distances (no
distance transform), the box coefficients from the mask's occupied rows
and columns, and windowing plus bilinear resampling as a product of
hat-function weight matrices.  `self_check` runs each on hand-worked
cases before any result is trusted.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Rows of one mask's boundary pixels compared at a time against the other
# mask's boundary, so NSD stays in bounded memory at 512^2 and beyond.
NSD_BLOCK = 512


def dsc_ref(g: np.ndarray, s: np.ndarray) -> float:
    """2|G∩S| / (|G|+|S|) from sets of pixel indices; 1.0 when both are empty."""
    gs = set(np.flatnonzero(g).tolist())
    ss = set(np.flatnonzero(s).tolist())
    total = len(gs) + len(ss)
    if total == 0:
        return 1.0
    return 2.0 * len(gs & ss) / total


def boundary_ref(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background or off-grid 4-neighbour."""
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    h, w = mask.shape
    if h > 2 and w > 2:
        core = mask[1:-1, 1:-1]
        all_in = (mask[:-2, 1:-1] & mask[2:, 1:-1]
                  & mask[1:-1, :-2] & mask[1:-1, 2:])
        out[1:-1, 1:-1] = core & ~all_in
    return out


def _hits_within(points: np.ndarray, others: np.ndarray, tau: float) -> int:
    """Points whose nearest other point lies within tau, in row blocks."""
    hits = 0
    for start in range(0, len(points), NSD_BLOCK):
        block = points[start:start + NSD_BLOCK]
        dr = block[:, None, 0] - others[None, :, 0]
        dc = block[:, None, 1] - others[None, :, 1]
        min_d2 = (dr * dr + dc * dc).min(axis=1)
        hits += int((np.sqrt(min_d2.astype(np.float64)) <= tau).sum())
    return hits


def nsd_ref(g: np.ndarray, s: np.ndarray, tau: float) -> float:
    """Share of both boundaries within tau of the other boundary.

    Distances are square roots of exact integer squared distances between
    pixel centres.  Both boundaries empty gives 1.0; one empty gives 0.0.
    """
    pg = np.argwhere(boundary_ref(g)).astype(np.int64)
    ps = np.argwhere(boundary_ref(s)).astype(np.int64)
    if len(pg) == 0 and len(ps) == 0:
        return 1.0
    if len(pg) == 0 or len(ps) == 0:
        return 0.0
    hits = _hits_within(pg, ps, tau) + _hits_within(ps, pg, tau)
    return hits / (len(pg) + len(ps))


def box_ref(mask: np.ndarray) -> tuple[float, float, float, float]:
    """(x_min, y_min, x_max, y_max) covering every foreground pixel's unit square."""
    rows = np.flatnonzero(np.asarray(mask, dtype=bool).any(axis=1))
    cols = np.flatnonzero(np.asarray(mask, dtype=bool).any(axis=0))
    if rows.size == 0:
        raise ValueError("empty mask has no box")
    return float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1)


def theta_xi_ref(mask: np.ndarray, theta_floor: float = 0.01) -> tuple[float, float]:
    """theta_omega = sqrt(box area / image area) clamped to [floor, 1]; xi = width / height."""
    x0, y0, x1, y1 = box_ref(mask)
    h, w = mask.shape
    width, height = x1 - x0, y1 - y0
    theta = min(1.0, max(theta_floor, math.sqrt(width * height / (w * h))))
    return theta, width / height


def _hat_weights(n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) linear-interpolation weights at output pixel centres."""
    pos = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
    return np.maximum(0.0, 1.0 - np.abs(pos[:, None] - np.arange(n_in)[None, :]))


def window_resample_ref(raw: np.ndarray, w_lo: float, w_hi: float,
                        out_w: int, out_h: int) -> np.ndarray:
    """Clip to the window, scale into [0, 1], then resample bilinearly (float64)."""
    win = np.clip((np.asarray(raw, dtype=np.float64) - w_lo) / (w_hi - w_lo), 0.0, 1.0)
    in_h, in_w = win.shape
    return _hat_weights(out_h, in_h) @ win @ _hat_weights(out_w, in_w).T


def read_f32g_ref(path) -> np.ndarray:
    """Read an F32G grid: b"F32G", LE u32 width, height, reserved, LE float32 rows."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"F32G":
        raise ValueError(f"{path}: not an F32G file")
    w = int.from_bytes(raw[4:8], "little")
    h = int.from_bytes(raw[8:12], "little")
    return np.frombuffer(raw, dtype="<f4", count=w * h, offset=16).reshape(h, w)


def self_check() -> int:
    """Run every reference on hand-worked cases; return the number of cases.

    Raises AssertionError at the first case that does not hold.
    """
    cases = 0

    def case(got, want, what):
        nonlocal cases
        if got != want:
            raise AssertionError(f"reference self-check {what}: got {got!r}, want {want!r}")
        cases += 1

    g = np.zeros((2, 2), bool); g[0, 0] = g[0, 1] = True
    s = np.zeros((2, 2), bool); s[0, 1] = s[1, 1] = True
    case(dsc_ref(g, s), 0.5, "dsc of two 2-pixel masks sharing one pixel")
    case(dsc_ref(np.zeros((3, 3), bool), np.zeros((3, 3), bool)), 1.0, "dsc of two empty masks")

    block = np.zeros((5, 5), bool); block[1:4, 1:4] = True
    case(int(boundary_ref(block).sum()), 8, "boundary of a 3x3 block is its ring")

    # A 1x2 bar at (0,0),(0,1) against a pixel at (0,3): distances 3, 2 and 2.
    bar = np.zeros((1, 5), bool); bar[0, :2] = True
    dot = np.zeros((1, 5), bool); dot[0, 3] = True
    case(nsd_ref(bar, dot, 2.0), 2 / 3, "nsd bar vs dot at tau 2")
    case(nsd_ref(bar, dot, 1.9), 0.0, "nsd bar vs dot at tau 1.9")
    case(nsd_ref(bar, dot, 3.0), 1.0, "nsd bar vs dot at tau 3")
    case(nsd_ref(bar, np.zeros((1, 5), bool), 2.0), 0.0, "nsd with one empty boundary")
    case(nsd_ref(np.zeros((1, 5), bool), np.zeros((1, 5), bool), 2.0), 1.0, "nsd both empty")

    # Rows 2..3, cols 4..7 of a 10x20 grid: a 4x2 box in a 200-pixel image.
    m = np.zeros((10, 20), bool); m[2:4, 4:8] = True
    case(box_ref(m), (4.0, 2.0, 8.0, 4.0), "box of a 4x2 block")
    case(theta_xi_ref(m), (math.sqrt(8 / 200), 2.0), "theta and xi of a 4x2 box")
    tiny = np.zeros((100, 100), bool); tiny[0, 0] = True
    case(theta_xi_ref(tiny)[0], 0.01, "theta clamps to its floor")

    # [-360, 440] windows to [0, 1]; two inputs resampled to four outputs
    # sample at clipped positions 0, 0.25, 0.75 and 1.
    ramp = window_resample_ref(np.array([[-360.0, 440.0]]), -360.0, 440.0, 4, 1)
    case(ramp.tolist(), [[0.0, 0.25, 0.75, 1.0]], "window then 2->4 resample")
    sq = window_resample_ref(np.array([[0.0, 1.0], [2.0, 3.0]]), 0.0, 3.0, 1, 1)
    case(sq.tolist(), [[0.5]], "2x2 -> 1x1 resample averages the window")
    clipped = window_resample_ref(np.array([[-1000.0, 1000.0]]), -360.0, 440.0, 2, 1)
    case(clipped.tolist(), [[0.0, 1.0]], "values outside the window clip")
    return cases
