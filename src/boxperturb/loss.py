"""Training objective: BCE + Dice with an optional weight-decay penalty.

Probability maps are 2D float arrays clipped into
[CLIP_EPS, 1 - CLIP_EPS] so the log terms stay finite.  The analytic
per-pixel gradient of the combined loss is verified against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError

CLIP_EPS = 1e-7


@dataclass(frozen=True)
class LossReport:
    bce: float
    dice: float
    combined: float


def clip_probabilities(s: np.ndarray) -> np.ndarray:
    """Clip predicted probabilities into [CLIP_EPS, 1 - CLIP_EPS]."""
    return np.clip(np.asarray(s, dtype=np.float64), CLIP_EPS, 1.0 - CLIP_EPS)


def _check(s: np.ndarray, g: np.ndarray):
    if s.shape != g.shape:
        raise DimensionMismatch(f"shapes differ: {s.shape} vs {g.shape}")


def bce(s: np.ndarray, g: np.ndarray) -> float:
    """Mean binary cross-entropy over all pixels."""
    s = clip_probabilities(s)
    g = np.asarray(g, dtype=np.float64)
    _check(s, g)
    return float(-np.mean(g * np.log(s) + (1.0 - g) * np.log(1.0 - s)))


def dice_loss(s: np.ndarray, g: np.ndarray) -> float:
    """1 - 2*sum(g*s) / (sum(g^2) + sum(s^2)); 0 when both sums vanish.

    No smoothing constant is added, so hand-computed values are exact.
    """
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    _check(s, g)
    denom = float((g * g).sum() + (s * s).sum())
    if denom == 0.0:
        return 0.0
    return 1.0 - 2.0 * float((g * s).sum()) / denom


def combined_loss(s: np.ndarray, g: np.ndarray) -> LossReport:
    """Unweighted sum of BCE and Dice loss."""
    b = bce(s, g)
    d = dice_loss(clip_probabilities(s), g)
    return LossReport(bce=b, dice=d, combined=b + d)


def combined_loss_into(s: np.ndarray, g: np.ndarray, tmp: np.ndarray,
                       grad_out: np.ndarray | None = None,
                       var_out: np.ndarray | None = None) -> LossReport:
    """combined_loss(s, g), plus loss_gradient(s, g) into grad_out and then
    (1 - s) * s into var_out, each if given (var_out only with grad_out).

    For s already clipped and a boolean mask g the values are those of
    the reference functions bit for bit, but every full-size
    intermediate lives in the caller's arrays (shaped like s), so a
    training step allocates none.
    """
    g = np.asarray(g, dtype=bool)
    # BCE: per pixel log(s) where g is set and log(1 - s) elsewhere.
    np.subtract(1.0, s, out=tmp)
    np.copyto(tmp, s, where=g)
    b = float(-np.mean(np.log(tmp, out=tmp)))
    # sum(g * g) counts the mask exactly, so it needs no array.
    denom = float(np.count_nonzero(g) + np.multiply(s, s, out=tmp).sum())
    tmp.fill(0.0)
    np.copyto(tmp, s, where=g)
    overlap = float(tmp.sum())
    d = 1.0 - 2.0 * overlap / denom
    report = LossReport(bce=b, dice=d, combined=b + d)
    if grad_out is None:
        return report
    np.subtract(s, g, out=grad_out)
    var = tmp if var_out is None else var_out
    np.subtract(1.0, s, out=var)
    var *= s
    grad_out /= var
    grad_out /= s.size
    # Dice term -2 (g denom - 2 overlap s) / denom^2; the bracket is
    # denom - 2 overlap s where g is set and -2 overlap s elsewhere.
    np.multiply(s, overlap * 2.0, out=tmp)
    np.negative(tmp, out=tmp)
    np.add(tmp, denom, out=tmp, where=g)
    tmp *= -2.0
    tmp /= denom * denom
    grad_out += tmp
    return report


def weight_decay_penalty(weights: np.ndarray, lam: float) -> float:
    """lam/2 times the squared L2 norm of the parameter vector."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    w = np.asarray(weights, dtype=np.float64)
    return 0.5 * lam * float((w * w).sum())


def loss_gradient(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-pixel gradient of (BCE + Dice loss) with respect to s.

    Requires every s_i strictly inside (0, 1).
    """
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    _check(s, g)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise DomainError("gradient undefined at s = 0 or s = 1")
    n = s.size
    grad_bce = (s - g) / (s * (1.0 - s)) / n

    denom = float((g * g).sum() + (s * s).sum())
    if denom == 0.0:
        grad_dice = np.zeros_like(s)
    else:
        overlap = float((g * s).sum())
        # Quotient rule on 1 - 2*overlap/denom.
        grad_dice = -2.0 * (g * denom - overlap * 2.0 * s) / (denom * denom)
    return grad_bce + grad_dice
