"""Bounding-box adaptive perturbation engine.

The shrink/expand magnitudes are fixed per run; the randomness lives in
four independent uniform coordinate draws.  Subscript-1 offsets apply to
the x axis and subscript-2 offsets to the y axis (divided by the aspect
ratio xi), so perturbation is proportional to each side length and the
box geometry is preserved in expectation.  Each edge's uniform interval
runs from "moved outward by the expand magnitude" to "moved inward by
the shrink magnitude".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, Coefficients


@dataclass(frozen=True)
class PerturbationConfig:
    """Per-run perturbation magnitudes and their clamps, in pixels.

    eps_shrink is negative by convention (inward), delta_expand positive
    (outward).  Values outside [eps_shrink_min, 0] / [0, delta_expand_max]
    are silently clamped when offsets are computed.  With scale_by_target
    off, the offsets are the raw magnitudes (theta_omega = xi = 1).
    eps_shrink = 0 gives expand-only draws; eps_shrink = delta_expand = 0
    returns the input box unchanged.
    """

    eps_shrink: float = -20.0
    delta_expand: float = 20.0
    eps_shrink_min: float = -20.0
    delta_expand_max: float = 20.0
    theta_floor: float = 0.01
    min_box_size: float = 1.0
    max_resample: int = 10
    scale_by_target: bool = True

    def __post_init__(self):
        if self.eps_shrink > 0 or self.delta_expand < 0:
            raise ValueError("eps_shrink must be <= 0 and delta_expand >= 0")
        if self.eps_shrink_min > 0 or self.delta_expand_max < 0:
            raise ValueError("clamps must satisfy eps_shrink_min <= 0 <= delta_expand_max")
        if not 0.0 < self.theta_floor <= 1.0:
            raise ValueError(f"theta_floor must be in (0, 1], got {self.theta_floor}")
        if self.min_box_size <= 0:
            raise ValueError("min_box_size must be positive")
        if self.max_resample < 0:
            raise ValueError("max_resample must be >= 0")


@dataclass(frozen=True)
class OffsetQuad:
    """The four perturbation offsets: eps along x/y (<= 0), delta along x/y (>= 0)."""

    eps1: float
    eps2: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class PerturbedBox:
    """A sampled box plus the draws that produced it."""

    box: BoundingBox
    draws: tuple[float, float, float, float]
    resample_count: int


def compute_offsets(config: PerturbationConfig, coeffs: Coefficients) -> OffsetQuad:
    """Scale the clamped shrink/expand magnitudes by theta_omega and xi.

    The coefficients are ignored when config.scale_by_target is off.
    """
    theta, xi = (coeffs.theta_omega, coeffs.xi) if config.scale_by_target else (1.0, 1.0)
    eps = max(config.eps_shrink, config.eps_shrink_min)
    delta = min(config.delta_expand, config.delta_expand_max)
    eps1 = eps * theta
    delta1 = delta * theta
    return OffsetQuad(eps1=eps1, eps2=eps1 / xi, delta1=delta1, delta2=delta1 / xi)


def sample_perturbed_box(box: BoundingBox, offsets: OffsetQuad,
                         image_w: int, image_h: int,
                         config: PerturbationConfig,
                         rng: np.random.Generator) -> PerturbedBox:
    """Draw one perturbed box.

    Each edge moves within [outward by delta-magnitude, inward by
    eps-magnitude]; the result is clamped to the image.  Draws whose
    width or height falls below min_box_size are resampled up to
    max_resample times, then repaired to a centered box around the
    original center.
    """
    e_x, d_x = abs(offsets.eps1), offsets.delta1
    e_y, d_y = abs(offsets.eps2), offsets.delta2

    for attempt in range(config.max_resample + 1):
        x_min = float(rng.uniform(box.x_min - d_x, box.x_min + e_x))
        x_max = float(rng.uniform(box.x_max - e_x, box.x_max + d_x))
        y_min = float(rng.uniform(box.y_min - d_y, box.y_min + e_y))
        y_max = float(rng.uniform(box.y_max - e_y, box.y_max + d_y))
        draws = (x_min, x_max, y_min, y_max)
        x_min_c = min(max(x_min, 0.0), float(image_w))
        x_max_c = min(max(x_max, 0.0), float(image_w))
        y_min_c = min(max(y_min, 0.0), float(image_h))
        y_max_c = min(max(y_max, 0.0), float(image_h))
        if (x_max_c - x_min_c >= config.min_box_size
                and y_max_c - y_min_c >= config.min_box_size):
            return PerturbedBox(box=BoundingBox(x_min_c, y_min_c, x_max_c, y_max_c),
                                draws=draws, resample_count=attempt)

    # All draws degenerate: fall back to a centered box around the original center.
    cx, cy = box.center
    w = min(max(config.min_box_size, box.width - 2.0 * e_x), float(image_w))
    h = min(max(config.min_box_size, box.height - 2.0 * e_y), float(image_h))
    x_min = min(max(cx - 0.5 * w, 0.0), image_w - w)
    y_min = min(max(cy - 0.5 * h, 0.0), image_h - h)
    repaired = BoundingBox(x_min, y_min, x_min + w, y_min + h)
    return PerturbedBox(box=repaired, draws=draws, resample_count=config.max_resample + 1)


def sample_baseline_box(box: BoundingBox, max_shift: float,
                        image_w: int, image_h: int,
                        rng: np.random.Generator) -> PerturbedBox:
    """Fixed-range expand-only perturbation: each edge moves outward by U(0, max_shift)."""
    if max_shift < 0:
        raise ValueError("max_shift must be >= 0")
    return sample_perturbed_box(box, OffsetQuad(0.0, 0.0, max_shift, max_shift),
                                image_w, image_h, PerturbationConfig(), rng)


@dataclass(frozen=True)
class PerturbationStats:
    """Summary of drawn boxes: their mean width and height, and the share resampled."""

    n: int
    mean_width: float
    mean_height: float
    resample_rate: float

    @classmethod
    def of(cls, draws: Iterable[PerturbedBox]) -> "PerturbationStats":
        """Summarize draws, reading them one at a time; no draws is a ValueError."""
        table = np.fromiter(((p.box.width, p.box.height, p.resample_count > 0)
                             for p in draws), dtype=(float, 3))
        n = len(table)
        if n == 0:
            raise ValueError("no draws to summarize")
        widths, heights, resampled = table.T.copy()
        return cls(n=n, mean_width=float(widths.mean()), mean_height=float(heights.mean()),
                   resample_rate=float(resampled.sum()) / n)


def perturbation_stats(box: BoundingBox, config: PerturbationConfig,
                       coeffs: Coefficients, n: int, rng: np.random.Generator,
                       image_w: int, image_h: int) -> PerturbationStats:
    """Monte-Carlo summary of n draws around one box in an image_w x image_h image."""
    offsets = compute_offsets(config, coeffs)
    return PerturbationStats.of(
        sample_perturbed_box(box, offsets, image_w, image_h, config, rng) for _ in range(n))
