import numpy as np
import pytest

from boxperturb.errors import BoxOutOfBounds, EmptyMask
from boxperturb.geometry import BoundingBox, box_from_mask, coefficients_for
from boxperturb.rng import make_rng

from oracles import box_edges


def test_box_from_single_pixel():
    mask = np.zeros((10, 10), dtype=bool)
    mask[7, 5] = True
    box = box_from_mask(mask)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (5, 7, 6, 8)


def test_box_from_full_mask():
    box = box_from_mask(np.ones((10, 10), dtype=bool))
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (0, 0, 10, 10)


def test_box_from_two_pixels():
    # True pixels at (row 2, col 3) and (row 4, col 9).
    mask = np.zeros((12, 12), dtype=bool)
    mask[2, 3] = True
    mask[4, 9] = True
    box = box_from_mask(mask)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (3, 2, 10, 5)


def test_box_from_empty_mask_raises():
    with pytest.raises(EmptyMask):
        box_from_mask(np.zeros((4, 4), dtype=bool))


def test_box_tightness_on_random_masks():
    for i in range(50):
        rng = make_rng(100, i)
        mask = rng.random((20, 20)) < 0.05
        if not mask.any():
            continue
        box = box_from_mask(mask)
        rows, cols = np.nonzero(mask)
        # Every true pixel square inside the box.
        assert box.x_min <= cols.min() and box.x_max >= cols.max() + 1
        assert box.y_min <= rows.min() and box.y_max >= rows.max() + 1
        # Shrinking any edge by one pixel excludes a true pixel square.
        assert (cols == box.x_min).any() and (cols == box.x_max - 1).any()
        assert (rows == box.y_min).any() and (rows == box.y_max - 1).any()


def thin_and_random_masks():
    """Seeded random masks of several densities and shapes, one pixel, a full
    mask, and one-pixel-thin lines along each axis and the diagonal."""
    for i in range(60):
        rng = make_rng(101, i)
        h, w = rng.integers(1, 40, size=2)
        yield rng.random((h, w)) < (0.002, 0.05, 0.5)[i % 3]
    for h, w in ((1, 1), (1, 9), (9, 1), (17, 23)):
        yield np.ones((h, w), dtype=bool)
        one = np.zeros((h, w), dtype=bool)
        one[h - 1, w // 2] = True
        yield one
    for k in (0, 5, 16):
        row = np.zeros((17, 23), dtype=bool)
        row[k, 3:20] = True
        yield row
        yield np.ascontiguousarray(row.T)
    yield np.eye(23, dtype=bool)[:17]


def test_box_from_mask_matches_the_box_of_every_true_pixel():
    for mask in thin_and_random_masks():
        if mask.any():
            box = box_from_mask(mask)
            assert (box.x_min, box.y_min, box.x_max, box.y_max) == box_edges(mask)
        else:
            with pytest.raises(EmptyMask):
                box_from_mask(mask)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BoundingBox(5, 5, 5, 8)


def xi(box):
    return coefficients_for(box, 1000, 1000).xi


def test_xi_hand_values():
    assert xi(BoundingBox(0, 0, 200, 100)) == 2.0
    assert xi(BoundingBox(3, 3, 8, 8)) == 1.0
    assert xi(BoundingBox(0, 0, 50, 200)) == 0.25


def test_xi_transpose_product_is_one():
    # Exact when the quotient is representable; within 1 ulp in general.
    for w, h in ((200, 100), (64, 16), (3, 96), (40, 5)):
        box = BoundingBox(0, 0, w, h)
        transposed = BoundingBox(0, 0, h, w)
        assert xi(box) * xi(transposed) == 1.0
    rng = make_rng(101)
    for _ in range(100):
        w, h = rng.uniform(0.5, 300, size=2)
        product = xi(BoundingBox(0, 0, w, h)) * xi(BoundingBox(0, 0, h, w))
        assert product == pytest.approx(1.0, rel=2 ** -50)


def test_theta_hand_values():
    assert coefficients_for(BoundingBox(0, 0, 50, 50), 50, 50).theta_omega == 1.0
    assert coefficients_for(
        BoundingBox(0, 0, 100, 100), 1000, 1000).theta_omega == pytest.approx(0.1)
    assert coefficients_for(
        BoundingBox(0, 0, 1, 1), 1024, 1024, theta_floor=0.01).theta_omega == 0.01


def test_theta_out_of_bounds_box():
    with pytest.raises(BoxOutOfBounds):
        coefficients_for(BoundingBox(0, 0, 60, 40), 50, 50)


def test_theta_monotone_in_area_and_bounded():
    prev = 0.0
    for side in range(2, 101, 7):
        theta = coefficients_for(BoundingBox(0, 0, side, side), 100, 100).theta_omega
        assert 0.01 <= theta <= 1.0
        assert theta >= prev
        prev = theta


def test_theta_scale_invariance():
    a = coefficients_for(BoundingBox(0, 0, 30, 20), 100, 80).theta_omega
    b = coefficients_for(BoundingBox(0, 0, 90, 60), 300, 240).theta_omega
    assert a == pytest.approx(b, rel=1e-12)
