import math
import tracemalloc

import numpy as np
import pytest

from boxperturb.errors import DimensionMismatch, EmptySource
from boxperturb.metrics import boundary, distance_transform, dsc, nsd
from boxperturb.rng import make_rng

from oracles import brute_boundary, brute_distance_grid, brute_nsd


def random_mask(key, shape=(64, 64), p=0.1):
    return make_rng(*key).random(shape) < p


def test_dsc_identical_masks():
    m = random_mask((300, 0))
    assert dsc(m, m) == 1.0


def test_dsc_disjoint_masks():
    g = np.zeros((8, 8), dtype=bool)
    s = np.zeros((8, 8), dtype=bool)
    g[0, 0] = True
    s[5, 5] = True
    assert dsc(g, s) == 0.0


def test_dsc_hand_count():
    g = np.zeros((4, 4), dtype=bool)
    s = np.zeros((4, 4), dtype=bool)
    g[0, :4] = True          # |G| = 4
    s[0, 2:] = s[1, :2] = True  # |S| = 4, overlap = 2
    assert dsc(g, s) == 0.5


def test_dsc_both_empty_convention():
    e = np.zeros((5, 5), dtype=bool)
    assert dsc(e, e) == 1.0


def test_dsc_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dsc(np.zeros((3, 3), dtype=bool), np.zeros((4, 4), dtype=bool))


def test_dsc_symmetry_and_translation_invariance():
    for i in range(20):
        g = random_mask((301, i), shape=(16, 16), p=0.3)
        s = random_mask((302, i), shape=(16, 16), p=0.3)
        assert dsc(g, s) == dsc(s, g)
        big_g = np.zeros((32, 32), dtype=bool)
        big_s = np.zeros((32, 32), dtype=bool)
        big_g[5:21, 7:23] = g
        big_s[5:21, 7:23] = s
        assert dsc(big_g, big_s) == dsc(g, s)


def test_boundary_solid_block():
    m = np.zeros((5, 5), dtype=bool)
    m[1:4, 1:4] = True
    b = boundary(m)
    assert b.sum() == 8
    assert not b[2, 2]


def test_boundary_single_pixel():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 3] = True
    assert (boundary(m) == m).all()


def test_boundary_full_grid():
    b = boundary(np.ones((4, 4), dtype=bool))
    assert b.sum() == 12
    assert not b[1:3, 1:3].any()


def test_boundary_empty():
    assert not boundary(np.zeros((4, 4), dtype=bool)).any()


def test_boundary_matches_oracle():
    for i in range(30):
        m = random_mask((303, i), shape=(20, 20), p=0.25)
        assert (boundary(m) == brute_boundary(m)).all()


def test_distance_transform_3_4_5():
    src = np.zeros((8, 8), dtype=bool)
    src[0, 0] = True
    d = distance_transform(src)
    assert d[3, 4] == 5.0
    assert d[0, 0] == 0.0


def test_distance_transform_all_sources_zero():
    d = distance_transform(np.ones((6, 7), dtype=bool))
    assert (d == 0.0).all()


def test_distance_transform_empty_source():
    with pytest.raises(EmptySource):
        distance_transform(np.zeros((4, 4), dtype=bool))


def test_distance_transform_lipschitz():
    src = random_mask((304, 0), shape=(32, 32), p=0.02)
    if not src.any():
        src[0, 0] = True
    d = distance_transform(src)
    assert (np.abs(np.diff(d, axis=0)) <= 1.0 + 1e-12).all()
    assert (np.abs(np.diff(d, axis=1)) <= 1.0 + 1e-12).all()
    assert (np.abs(d[1:, 1:] - d[:-1, :-1]) <= np.sqrt(2) + 1e-12).all()


def test_distance_transform_matches_brute_force_exactly():
    for i in range(100):
        src = random_mask((305, i), p=0.03)
        if not src.any():
            src[10, 20] = True
        assert (distance_transform(src) == brute_distance_grid(src)).all()


def test_distance_transform_memory_bounded():
    # An unblocked column pass broadcasts an (h, h, w) float64 array: 512 MiB here.
    src = np.zeros((1024, 64), dtype=bool)
    src[::97, ::13] = True
    tracemalloc.start()
    try:
        distance_transform(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (2, 41), (41, 2), (23, 31)])
def test_distance_transform_single_corner_source(shape):
    # The farthest pixel is a whole grid away, so the column pass visits
    # every row offset before it may stop.
    h, w = shape
    for r, c in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)):
        src = np.zeros(shape, dtype=bool)
        src[r, c] = True
        assert (distance_transform(src) == brute_distance_grid(src)).all()


def test_distance_transform_early_stop_inputs():
    # A full source stops the column pass at the first row offset, a full
    # source column once dr*dr reaches its farthest pixel, and a full
    # source row once dr reaches the farthest row.
    shapes = ((1, 9), (9, 1), (12, 17), (17, 12))
    for h, w in shapes:
        sources = [np.ones((h, w), dtype=bool)]
        for r in range(h):
            src = np.zeros((h, w), dtype=bool)
            src[r] = True
            sources.append(src)
        for c in range(w):
            src = np.zeros((h, w), dtype=bool)
            src[:, c] = True
            sources.append(src)
        for src in sources:
            assert (distance_transform(src) == brute_distance_grid(src)).all()


def test_distance_transform_memory_bounded_at_1024():
    # A few (h, w) float64 arrays of 8 MiB each; the row-blocked column
    # pass peaked at 56 MiB here.
    src = random_mask((306, 0), shape=(1024, 1024), p=0.001)
    tracemalloc.start()
    try:
        distance_transform(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 52 * 2**20


def test_nsd_identical_masks():
    m = random_mask((306, 0), p=0.2)
    for tau in (0.0, 1.0, 2.0, 5.0):
        assert nsd(m, m, tau) == 1.0


def test_nsd_singletons_threshold():
    g = np.zeros((6, 6), dtype=bool)
    s = np.zeros((6, 6), dtype=bool)
    g[0, 0] = True
    s[0, 3] = True
    assert nsd(g, s, 3.0) == 1.0
    assert nsd(g, s, 2.999) == 0.0


def test_nsd_empty_conventions():
    e = np.zeros((6, 6), dtype=bool)
    m = np.zeros((6, 6), dtype=bool)
    m[2, 2] = True
    assert nsd(e, e, 2.0) == 1.0
    assert nsd(e, m, 2.0) == 0.0
    assert nsd(m, e, 2.0) == 0.0


def test_nsd_matches_brute_force_exactly():
    for i in range(50):
        g = random_mask((307, i), p=0.08)
        s = random_mask((308, i), p=0.08)
        assert nsd(g, s, 2.0) == brute_nsd(g, s, 2.0)


SQRT2, SQRT5, SQRT13 = math.sqrt(2.0), math.sqrt(5.0), math.sqrt(13.0)
# Float neighbours of sqrt(n) sit on either side of the distance sqrt(n).
# At tau = sqrt(13), tau * tau rounds below 13, so a squared test
# (n <= tau * tau) would miss an offset that the transform's test
# sqrt(n) <= tau includes.
EDGE_TAUS = (0.0, 0.5, 1.0,
             np.nextafter(SQRT2, 0.0), SQRT2, np.nextafter(SQRT2, 4.0),
             np.nextafter(SQRT5, 0.0), SQRT5, np.nextafter(SQRT5, 4.0),
             np.nextafter(SQRT13, 0.0), SQRT13, np.nextafter(SQRT13, 4.0),
             7.3, 50.0, 1e9, math.inf)


def transform_nsd(g, s, tau):
    """NSD by thresholding the exact distance transform of each boundary."""
    bg, bs = boundary(g), boundary(s)
    if not bg.any() and not bs.any():
        return 1.0
    if not bg.any() or not bs.any():
        return 0.0
    hits = (int((bg & (distance_transform(bs) <= tau)).sum())
            + int((bs & (distance_transform(bg) <= tau)).sum()))
    return hits / (int(bg.sum()) + int(bs.sum()))


@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (2, 33), (33, 3),
                                   (16, 48), (48, 16), (64, 64)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_nsd_matches_transform_threshold(shape):
    for i in range(12):
        rng = make_rng(312, i, *shape)
        p = rng.uniform(0.02, 0.5)
        g = rng.random(shape) < p
        s = rng.random(shape) < p
        for tau in EDGE_TAUS:
            assert nsd(g, s, tau) == transform_nsd(g, s, tau)


@pytest.mark.parametrize("offset, root", [((1, 1), SQRT2), ((2, 3), SQRT13)],
                         ids=["sqrt2", "sqrt13"])
def test_nsd_sqrt_edge_taus(offset, root):
    # Two boundary pixels sqrt(n) apart count as hits from tau = sqrt(n) up.
    g = np.zeros((5, 5), dtype=bool)
    s = np.zeros((5, 5), dtype=bool)
    g[0, 0] = True
    s[offset] = True
    assert nsd(g, s, np.nextafter(root, 0.0)) == 0.0
    assert nsd(g, s, root) == 1.0
    assert nsd(g, s, math.inf) == 1.0


@pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan, -math.inf])
def test_nsd_rejects_bad_tau(tau):
    m = random_mask((313, 0), shape=(8, 8), p=0.3)
    with pytest.raises(ValueError):
        nsd(m, m, tau)


def test_nsd_symmetry_and_monotone_in_tau():
    for i in range(10):
        g = random_mask((309, i), shape=(32, 32), p=0.1)
        s = random_mask((310, i), shape=(32, 32), p=0.1)
        prev = -1.0
        for tau in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            value = nsd(g, s, tau)
            assert value == nsd(s, g, tau)
            assert value >= prev
            prev = value


def test_nsd_saturates_at_grid_diagonal():
    g = np.zeros((32, 32), dtype=bool)
    s = np.zeros((32, 32), dtype=bool)
    g[0, 0] = True
    s[31, 31] = True
    diagonal = np.sqrt(2.0) * 32
    assert nsd(g, s, diagonal) == 1.0
