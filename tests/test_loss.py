import math

import numpy as np
import pytest

from boxperturb.errors import DimensionMismatch, DomainError
from boxperturb.loss import (CLIP_EPS, bce, clip_probabilities, combined_loss,
                             combined_loss_into, dice_loss, loss_gradient,
                             weight_decay_penalty)
from boxperturb.rng import make_rng

from oracles import finite_difference


def test_bce_perfect_prediction_near_zero():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = clip_probabilities(g)
    assert bce(s, g) < 1e-6


def test_bce_hand_value_single_pixel():
    assert bce(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(
        math.log(2), abs=1e-12)


def test_bce_hand_value_two_pixels():
    s = np.array([[0.5, 0.5]])
    g = np.array([[1.0, 0.0]])
    assert bce(s, g) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_nonnegative_random():
    for i in range(20):
        rng = make_rng(400, i)
        s = rng.random((8, 8))
        g = (rng.random((8, 8)) < 0.5).astype(float)
        assert bce(s, g) >= 0.0


def test_dice_exact_match_is_zero():
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert dice_loss(g, g) == 0.0


def test_dice_hand_value():
    s = np.full((2, 2), 0.5)
    g = np.ones((2, 2))
    assert dice_loss(s, g) == pytest.approx(0.2, abs=1e-12)


def test_dice_empty_gt_full_miss():
    g = np.zeros((4, 4))
    s = np.full((4, 4), CLIP_EPS)
    assert dice_loss(s, g) == pytest.approx(1.0, abs=1e-5)


def test_dice_both_empty_convention():
    z = np.zeros((3, 3))
    assert dice_loss(z, z) == 0.0


def test_dice_in_unit_interval():
    for i in range(20):
        rng = make_rng(401, i)
        s = rng.random((8, 8))
        g = (rng.random((8, 8)) < 0.5).astype(float)
        assert 0.0 <= dice_loss(s, g) <= 1.0


def test_combined_is_sum():
    rng = make_rng(402)
    s = rng.random((6, 6))
    g = (rng.random((6, 6)) < 0.5).astype(float)
    report = combined_loss(s, g)
    assert report.combined == report.bce + report.dice
    assert report.combined >= report.dice


def test_combined_hand_value():
    s = np.full((2, 2), 0.5)
    g = np.ones((2, 2))
    report = combined_loss(s, g)
    assert report.combined == pytest.approx(math.log(2) + 0.2, abs=1e-9)


def test_weight_decay_hand_value():
    assert weight_decay_penalty(np.array([3.0, 4.0]), 0.1) == pytest.approx(
        1.25, abs=1e-15)
    assert weight_decay_penalty(np.zeros(5), 0.7) == 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bce(np.full((2, 2), 0.5), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        dice_loss(np.full((2, 2), 0.5), np.zeros((3, 3)))


def test_gradient_sign_for_correct_pixels():
    s = np.array([[0.7, 0.3]])
    g = np.array([[1.0, 0.0]])
    grad = loss_gradient(s, g)
    assert grad[0, 0] < 0  # push s up where g = 1
    assert grad[0, 1] > 0


def test_gradient_hand_value_bce_part():
    # Single pixel, g=1, s=0.5: BCE gradient is -2; Dice gradient is
    # -2*(1*1.25 - 0.5*1)/1.25^2 = -0.96.
    grad = loss_gradient(np.array([[0.5]]), np.array([[1.0]]))
    assert grad[0, 0] == pytest.approx(-2.0 - 0.96, abs=1e-12)


def test_gradient_raises_on_boundary_values():
    with pytest.raises(DomainError):
        loss_gradient(np.array([[0.0, 0.5]]), np.array([[1.0, 0.0]]))


def test_gradient_matches_finite_differences():
    def objective(s, g):
        return bce(s, g) + dice_loss(s, g)

    for i in range(100):
        rng = make_rng(404, i)
        s = rng.uniform(0.05, 0.95, size=(16, 16))
        g = (rng.random((16, 16)) < 0.4).astype(float)
        analytic = loss_gradient(s, g)
        numeric = finite_difference(lambda x: objective(x, g), s)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4


def test_permutation_invariance():
    rng = make_rng(405)
    s = rng.uniform(0.05, 0.95, size=(8, 8))
    g = (rng.random((8, 8)) < 0.5).astype(float)
    perm = rng.permutation(64)
    s2 = s.ravel()[perm].reshape(8, 8)
    g2 = g.ravel()[perm].reshape(8, 8)
    assert bce(s2, g2) == pytest.approx(bce(s, g), rel=1e-12)
    assert dice_loss(s2, g2) == pytest.approx(dice_loss(s, g), rel=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (16, 16), (33, 20)])
def test_combined_loss_into_matches_reference_exactly(shape):
    for i in range(20):
        rng = make_rng(960, i, *shape)
        # Include saturated pixels, which clip to CLIP_EPS and 1 - CLIP_EPS.
        s = clip_probabilities(1.0 / (1.0 + np.exp(-rng.normal(0.0, 20.0, size=shape))))
        g = rng.random(shape) < rng.uniform(0.0, 1.0)
        tmp, grad, var = np.empty(shape), np.empty(shape), np.empty(shape)
        assert combined_loss_into(s, g, tmp) == combined_loss(s, g)
        grad.fill(np.nan)
        assert combined_loss_into(s, g, tmp, grad_out=grad, var_out=var) == combined_loss(s, g)
        assert grad.tobytes() == loss_gradient(s, g.astype(np.float64)).tobytes()
        assert var.tobytes() == ((1.0 - s) * s).tobytes()
