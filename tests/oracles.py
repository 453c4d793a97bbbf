"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fast paths: distances are
minimized over all (pixel, source) pairs in exact integer arithmetic,
and NSD is recomputed from pairwise boundary distances with no distance
transform.
"""

import numpy as np

from boxperturb.loss import CLIP_EPS, combined_loss, loss_gradient


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


def reference_features(image: np.ndarray, box) -> tuple:
    """The six features computed over the whole image, in FEATURE_NAMES order.

    Shapes as in `toyseg._feature_parts`: bias (1, 1), intensity,
    inside-box indicator and signed edge distance (H, W), center offsets
    (1, W) and (H, 1).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    px = (np.arange(w, dtype=np.float64) + 0.5)[None, :]
    py = (np.arange(h, dtype=np.float64) + 0.5)[:, None]
    ex = np.minimum(px - box.x_min, box.x_max - px)
    ey = np.minimum(py - box.y_min, box.y_max - py)
    outside = np.hypot(np.maximum(-ex, 0.0), np.maximum(-ey, 0.0))
    inside = (outside == 0.0).astype(np.float64)
    signed = np.maximum(np.minimum(ex, ey), 0.0) - outside
    signed /= 0.5 * min(box.width, box.height)
    np.clip(signed, -1.0, 1.0, out=signed)
    bcx, bcy = box.center
    return (np.ones((1, 1)), image, inside, signed,
            np.abs(px - bcx) / box.width, np.abs(py - bcy) / box.height)


def reference_forward(weights: np.ndarray, image: np.ndarray, box):
    """Clipped sigmoid of sum(weight * part) over the full-image parts, and the parts."""
    parts = reference_features(image, box)
    z = np.zeros(np.shape(image))
    for weight, part in zip(weights, parts):
        z += part * weight
    neg = z < 0
    e = np.exp(-np.abs(z))
    p = np.where(neg, e / (1.0 + e), 1.0 / (1.0 + e))
    return np.clip(p, CLIP_EPS, 1.0 - CLIP_EPS), parts


def reference_weight_gradient(weights: np.ndarray, image: np.ndarray, mask: np.ndarray,
                              box) -> tuple:
    """Weight gradient and loss report from full-image arithmetic, fresh arrays each call.

    The loss and its pixel gradient are the plain `combined_loss` and
    `loss_gradient`; the chain rule zeroes dp/dz where p sits at a clip
    bound, and each entry is sum(resid * part), with a part constant
    along an axis taking the residual's sums along it.
    """
    p, parts = reference_forward(weights, image, box)
    report = combined_loss(p, mask)
    dp_dz = (1.0 - p) * p
    dp_dz[(p <= CLIP_EPS) | (p >= 1.0 - CLIP_EPS)] = 0.0
    resid = loss_gradient(p, mask.astype(np.float64)) * dp_dz
    grad_w = np.empty(len(parts))
    for k, part in enumerate(parts):
        axes = tuple(i for i in (0, 1) if part.shape[i] == 1)
        r = resid.sum(axis=axes, keepdims=True) if axes else resid
        grad_w[k] = (r * part).sum()
    return grad_w, report
