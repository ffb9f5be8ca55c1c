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
from prtbp.zvc import _SEGMENTS, _edge_vertex, _stitch

SQRT3_2 = math.sqrt(3.0) / 2.0
CLASSICAL = SystemParams(mu=0.1)
C_L4 = jacobi_constant(CLASSICAL, PhaseState(0.4, SQRT3_2, 0.0, 0.0))
WIDE = (-1.5, 1.5, -1.5, 1.5)


def _reference_curve(p, level_c, window, resolution,
                     guard=COLLISION_GUARD) -> ZeroVelocityCurve:
    """Scalar extraction: one Python visit per grid node and per cell.

    f is evaluated node by node through the public potential, NaN within
    the guard, so the NumPy grid pass must reproduce this curve exactly.
    """
    def f(x, y):
        try:
            return 2.0 * amended_potential(p, x, y, guard) - level_c
        except SingularityError:
            return math.nan

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
            cache[key] = _edge_vertex(f, pa, pb, fa, fb)
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
    with pytest.raises(ValueError):
        zero_velocity_curve(CLASSICAL, 3.0, WIDE, 8)
    with pytest.raises(ValueError):
        zero_velocity_curve(CLASSICAL, 3.0, (1.5, -1.5, -1.5, 1.5), 64)
    with pytest.raises(ValueError):
        zero_velocity_curve(CLASSICAL, 3.0, (-1.5, 1.5, 1.5, 1.5), 64)


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


@pytest.mark.parametrize("p, level, window, resolution", [
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
def test_grid_pass_matches_scalar_reference(p, level, window, resolution):
    curve = zero_velocity_curve(p, level, window, resolution)
    assert curve.segments
    assert curve == _reference_curve(p, level, window, resolution)


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
