"""Tests for zero-velocity curve extraction."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from prtbp import (
    COLLISION_GUARD,
    PhaseState,
    SingularityError,
    SystemParams,
    ZeroVelocityCurve,
    amended_potential,
    conservative_gradient,
    jacobi_constant,
    zero_velocity_curve,
)
from prtbp.zvc import _SEGMENTS, _polish, _stitch

SQRT3_2 = math.sqrt(3.0) / 2.0
CLASSICAL = SystemParams(mu=0.1)
C_L4 = jacobi_constant(CLASSICAL, PhaseState(0.4, SQRT3_2, 0.0, 0.0))
WIDE = (-1.5, 1.5, -1.5, 1.5)


def _scalar_level(p, level_c, guard):
    def f(x, y):
        try:
            return 2.0 * amended_potential(p, x, y, guard) - level_c
        except SingularityError:
            return math.nan
    return f


def _polish_edge(p, level_c, guard, pa, pb, fa, fb):
    """One edge polished alone, as a one-edge batch of the NumPy pass."""
    x, y = _polish(p, level_c, guard, *np.array([[*pa, *pb, fa, fb]]).T)
    return float(x[0]), float(y[0])


def _brentq_edge(p, level_c, guard, pa, pb, fa, fb):
    """Scalar polish with SciPy's bracketed solver at xtol = 1e-13."""
    from scipy.optimize import brentq
    if fa == 0.0:
        return pa
    if fb == 0.0:
        return pb
    f = _scalar_level(p, level_c, guard)

    def g(s):
        return f(pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))

    try:
        s = brentq(g, 0.0, 1.0, xtol=1e-13)
    except ValueError:
        s = fa / (fa - fb)
    return (pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))


def _reference_curve(p, level_c, window, resolution, guard=COLLISION_GUARD,
                     polish=_polish_edge) -> ZeroVelocityCurve:
    """Scalar extraction: one Python visit per grid node and per cell.

    f is evaluated node by node through the public potential, NaN within
    the guard, and each crossing edge is polished on its own, so the NumPy
    grid pass and its batched polish must reproduce this curve exactly.
    """
    f = _scalar_level(p, level_c, guard)
    xmin, xmax, ymin, ymax = window
    nx = ny = resolution
    xs = [xmin + (xmax - xmin) * i / (nx - 1) for i in range(nx)]
    ys = [ymin + (ymax - ymin) * j / (ny - 1) for j in range(ny)]
    vals = [[f(x, y) for x in xs] for y in ys]
    primaries = ((-p.mu, 0.0), (1.0 - p.mu, 0.0))
    cache: dict = {}
    raw_segments = []

    def vertex(key):
        if key not in cache:
            kind, i, j = key
            if kind == "h":
                pa, pb = (xs[i], ys[j]), (xs[i + 1], ys[j])
                fa, fb = vals[j][i], vals[j][i + 1]
            else:
                pa, pb = (xs[i], ys[j]), (xs[i], ys[j + 1])
                fa, fb = vals[j][i], vals[j + 1][i]
            cache[key] = polish(p, level_c, guard, pa, pb, fa, fb)
        return cache[key]

    for j in range(ny - 1):
        for i in range(nx - 1):
            corners = (vals[j][i], vals[j][i + 1],
                       vals[j + 1][i + 1], vals[j + 1][i])
            if any(math.isnan(c) for c in corners):
                continue
            if any(xs[i] <= px <= xs[i + 1] and ys[j] <= py <= ys[j + 1]
                   for px, py in primaries):
                continue
            case = sum(1 << k for k, c in enumerate(corners) if c < 0.0)
            if case in (0, 15):
                continue
            keys = (("h", i, j), ("v", i + 1, j),
                    ("h", i, j + 1), ("v", i, j))
            if case in (5, 10):
                inside = f(0.5 * (xs[i] + xs[i + 1]),
                           0.5 * (ys[j] + ys[j + 1])) < 0.0
                if case == 5:
                    pairs = ((0, 1), (2, 3)) if inside else ((3, 0), (1, 2))
                else:
                    pairs = ((3, 0), (1, 2)) if inside else ((0, 1), (2, 3))
            else:
                pairs = _SEGMENTS[case]
            raw_segments += [(keys[a], keys[b]) for a, b in pairs]
    return ZeroVelocityCurve(level_c=level_c,
                             segments=_stitch(raw_segments, vertex))


def _vertices(curve: ZeroVelocityCurve) -> np.ndarray:
    pts = [v for seg in curve.segments for v in seg]
    return np.array(pts) if pts else np.empty((0, 2))


def test_window_and_resolution_validation():
    for name, level, window, resolution in [
            ("resolution", 3.0, WIDE, 8),
            ("resolution", 3.0, WIDE, 4097),
            ("window", 3.0, (1.5, -1.5, -1.5, 1.5), 64),
            ("window", 3.0, (-1.5, 1.5, 1.5, 1.5), 64),
            ("window", 3.0, (-math.inf, 1.5, -1.5, 1.5), 64),
            ("window", 3.0, (-1.5, 1.5, -1.5, math.inf), 64),
            ("window", 3.0, (-1.5, math.nan, -1.5, 1.5), 64),
            ("level_c", math.nan, WIDE, 64),
            ("level_c", math.inf, WIDE, 64)]:
        with pytest.raises(ValueError, match=name):
            zero_velocity_curve(CLASSICAL, level, window, resolution)


def test_level_outside_range_gives_empty_curve():
    # the amended potential never drops below the triangular-point level
    low = zero_velocity_curve(CLASSICAL, 2.0, WIDE, 32)
    assert low.segments == ()
    assert low.level_c == 2.0
    high = zero_velocity_curve(CLASSICAL, 1e6, WIDE, 32)
    assert high.segments == ()


def test_vertices_lie_on_the_level_set():
    level = C_L4 + 0.01
    curve = zero_velocity_curve(CLASSICAL, level, WIDE, 128)
    pts = _vertices(curve)
    assert len(pts) > 100
    for x, y in pts:
        g = conservative_gradient(CLASSICAL, x, y)
        scale = max(1.0, 2.0 * math.hypot(g.ax, g.ay))
        assert abs(2.0 * amended_potential(CLASSICAL, x, y) - level) \
            < 1e-6 * scale


def test_contour_surrounds_the_triangular_point():
    # just above the local minimum the level set is a tiny oval, so the
    # probe window and offset must match the grid pitch
    window = (0.4 - 0.0475, 0.4 + 0.0475, SQRT3_2 - 0.0475, SQRT3_2 + 0.0475)
    curve = zero_velocity_curve(CLASSICAL, C_L4 + 1e-6, window, 128)
    pts = _vertices(curve)
    assert len(pts) >= 8
    cell = 0.095 / 127
    dist = np.hypot(pts[:, 0] - 0.4, pts[:, 1] - SQRT3_2)
    assert dist.min() <= math.sqrt(2.0) * cell


def test_mirror_symmetry_in_y():
    curve = zero_velocity_curve(CLASSICAL, C_L4 + 0.01, WIDE, 128)
    pts = _vertices(curve)
    mirrored = pts * np.array([1.0, -1.0])
    # worst nearest-neighbour gap between the set and its reflection
    from scipy.spatial import cKDTree
    tree = cKDTree(pts)
    gap = tree.query(mirrored)[0].max()
    assert gap < 1e-9


def test_primaries_are_masked():
    curve = zero_velocity_curve(CLASSICAL, 3.9, WIDE, 128)
    pts = _vertices(curve)
    assert len(curve.segments) >= 2
    assert np.all(np.isfinite(pts))
    r1 = np.hypot(pts[:, 0] + 0.1, pts[:, 1])
    r2 = np.hypot(pts[:, 0] - 0.9, pts[:, 1])
    assert r1.min() > 1e-6
    assert r2.min() > 1e-6


def test_closed_loops_repeat_their_first_vertex():
    curve = zero_velocity_curve(CLASSICAL, C_L4 + 0.01, WIDE, 128)
    loops = [seg for seg in curve.segments if seg[0] == seg[-1]]
    assert loops
    assert all(len(seg) >= 5 for seg in loops)


def test_vertices_stay_inside_the_window():
    window = (0.0, 1.5, 0.0, 1.5)
    curve = zero_velocity_curve(CLASSICAL, 3.2, window, 64)
    pts = _vertices(curve)
    assert len(pts) > 0
    assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 1.5)
    assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= 1.5)


def test_extraction_is_deterministic():
    a = zero_velocity_curve(CLASSICAL, 3.2, WIDE, 64)
    b = zero_velocity_curve(CLASSICAL, 3.2, WIDE, 64)
    assert a == b


SMALL = (0.4 - 0.0475, 0.4 + 0.0475, SQRT3_2 - 0.0475, SQRT3_2 + 0.0475)


EQUAL = SystemParams(mu=0.5)


FIXTURES = pytest.mark.parametrize("p, level, window, resolution", [
    (CLASSICAL, C_L4 + 0.01, WIDE, 128),
    (CLASSICAL, C_L4 + 1e-6, SMALL, 128),
    (CLASSICAL, 3.9, WIDE, 128),
    (CLASSICAL, 3.2, (0.0, 1.5, 0.0, 1.5), 64),
    (CLASSICAL, 3.2, WIDE, 64),
    # the curve crosses the cells that hold the primaries
    (CLASSICAL, 4.2, WIDE, 18),
    # a node 5e-7 from the primary at (-1/2, 0): inside the guard
    (EQUAL, 9.0, (-1.0 + 5e-7, 1.0 + 5e-7, -1.0, 1.0), 17),
])


@FIXTURES
def test_grid_pass_matches_scalar_reference(p, level, window, resolution):
    curve = zero_velocity_curve(p, level, window, resolution)
    assert curve.segments
    assert curve == _reference_curve(p, level, window, resolution)


@FIXTURES
def test_polish_matches_brentq(p, level, window, resolution):
    # gaps in units of the edge length; where f is flat along the edge
    # (the oval just above L4) the rounding of f, about eps*|C|, leaves
    # the root undetermined over eps*|C|/|fb - fa| and both solvers may
    # stop anywhere in that band
    excess = []

    def both(p, level_c, guard, pa, pb, fa, fb):
        v = _polish_edge(p, level_c, guard, pa, pb, fa, fb)
        w = _brentq_edge(p, level_c, guard, pa, pb, fa, fb)
        band = 4.0 * np.finfo(float).eps * abs(level_c) / abs(fb - fa)
        excess.append(math.dist(v, w) / math.dist(pa, pb) - band)
        return v

    _reference_curve(p, level, window, resolution, polish=both)
    assert excess
    assert max(excess) <= 1e-12


def test_polish_probe_inside_the_guard_stays_on_the_curve():
    # the grid row at y = 5e-7 passes 5e-7 from the primary at (-1/2, 0),
    # which is the midpoint of the row's edge from x = -0.5625 to -0.4375:
    # the first bisection probe lands inside the guard, counts as f > 0
    # and leaves the crossing near x = -0.5625 in the bracket
    window = (-1.0625, 0.9375, -1.0 + 5e-7, 1.0 + 5e-7)
    y = window[2] + (window[3] - window[2]) * 8 / 16
    pa, pb = (-0.5625, y), (-0.4375, y)
    ua, ub = (amended_potential(EQUAL, *pt) for pt in (pa, pb))
    level = ua + ub
    fa, fb = 2.0 * ua - level, 2.0 * ub - level
    assert fa < 0.0 < fb
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = zero_velocity_curve(EQUAL, level, window, 17)
    pts = _vertices(curve)
    assert len(pts) > 0
    assert np.all(np.isfinite(pts))
    on_edge = pts[(pts[:, 1] == y) & (pts[:, 0] >= pa[0])
                  & (pts[:, 0] <= pb[0])]
    assert len(on_edge) > 0
    for x, _ in on_edge:
        assert x < -0.5624
        assert abs(2.0 * amended_potential(EQUAL, x, y) - level) <= 1e-12
    assert curve == _reference_curve(EQUAL, level, window, 17)


def test_nodes_on_both_primaries_are_masked():
    # mu = 1/2 puts the primaries at (-1/2, 0) and (1/2, 0), both nodes
    # of this grid, where the potential itself is singular
    window = (-1.0, 1.0, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = zero_velocity_curve(EQUAL, 3.6, window, 17)
    pts = _vertices(curve)
    assert len(pts) > 0
    assert np.all(np.isfinite(pts))
    assert curve == _reference_curve(EQUAL, 3.6, window, 17)
