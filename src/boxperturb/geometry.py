"""Boxes, masks and the two coefficients driving adaptive perturbation.

Coordinate convention: pixel (row r, col c) covers the half-open square
[c, c+1) x [r, r+1), so box coordinates are continuous with x along
columns and y along rows.  Binary masks are 2D boolean numpy arrays of
shape (height, width); image grids are 2D float arrays of the same
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxOutOfBounds, EmptyMask

BOX_TOL = 1e-9  # slack, in pixels, of the box containment tests


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with strictly positive width and height."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.y_min)
                and math.isfinite(self.x_max) and math.isfinite(self.y_max)):
            raise ValueError("box coordinates must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains_box(self, other: "BoundingBox") -> bool:
        return (self.x_min <= other.x_min + BOX_TOL
                and self.y_min <= other.y_min + BOX_TOL
                and self.x_max >= other.x_max - BOX_TOL
                and self.y_max >= other.y_max - BOX_TOL)

    def within_image(self, image_w: int, image_h: int) -> bool:
        return (self.x_min >= -BOX_TOL and self.y_min >= -BOX_TOL
                and self.x_max <= image_w + BOX_TOL and self.y_max <= image_h + BOX_TOL)


@dataclass(frozen=True)
class Coefficients:
    """Similarity coefficient and aspect-ratio scale factor of a box."""

    theta_omega: float
    xi: float

    def __post_init__(self):
        if not (0.0 < self.theta_omega <= 1.0):
            raise ValueError(f"theta_omega must be in (0, 1], got {self.theta_omega}")
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be positive and finite, got {self.xi}")


def box_from_mask(mask: np.ndarray) -> BoundingBox:
    """Tightest box covering every true pixel's unit square.

    Raises EmptyMask when the mask has no true pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))  # the rows, then the columns, holding a true pixel
    if rows.size == 0:
        raise EmptyMask("cannot derive a box from an empty mask")
    cols = np.flatnonzero(mask.any(axis=0))
    return BoundingBox(x_min=float(cols[0]), y_min=float(rows[0]),
                       x_max=float(cols[-1] + 1), y_max=float(rows[-1] + 1))


def coefficients_for(box: BoundingBox, image_w: int, image_h: int,
                     theta_floor: float = 0.01) -> Coefficients:
    """Both perturbation coefficients of a box inside its image.

    theta_omega is the relative linear scale sqrt(box area / image
    area), clamped to [theta_floor, 1], which damps the offsets for
    small targets; xi is the aspect ratio width / height.
    """
    if not (0.0 < theta_floor <= 1.0):
        raise ValueError(f"theta_floor must be in (0, 1], got {theta_floor}")
    if not box.within_image(image_w, image_h):
        raise BoxOutOfBounds(
            f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
            f"exceeds image extent {image_w}x{image_h}")
    ratio = math.sqrt(box.area / (image_w * image_h))
    return Coefficients(theta_omega=min(1.0, max(theta_floor, ratio)),
                        xi=box.width / box.height)
