"""Tests for zero-velocity curve extraction."""

from __future__ import annotations

import json
import math
import random
import warnings

import numpy as np
import pytest

import prtbp.zvc
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
from prtbp.cli import main
from prtbp.model import _level_kernel, _radii
from prtbp.zvc import (_ALONG_X, _ALONG_Y, _BAND, _ONE_SIGNED, _SEGMENTS,
                       _certifier, _polish, _stitch)

SQRT3_2 = math.sqrt(3.0) / 2.0
CLASSICAL = SystemParams(mu=0.1)
C_L4 = jacobi_constant(CLASSICAL, PhaseState(0.4, SQRT3_2, 0.0, 0.0))
WIDE = (-1.5, 1.5, -1.5, 1.5)


def _scalar_level(p, level_c):
    def f(x, y):
        try:
            return 2.0 * amended_potential(p, x, y) - level_c
        except SingularityError:
            return math.nan
    return f


def _polish_edge(p, level_c, pa, pb, fa, fb):
    """One edge polished alone by the extraction's polish."""
    work = {"polish_probes": 0, "polish_bisections": 0}
    return _polish(_level_kernel(p, level_c), *pa, *pb, fa, fb,
                   _BAND * abs(level_c), work)


def _numpy_level(p, x, y, level_c):
    # f = 2*U1 - C at each point of the arrays, NaN within the guard of a
    # primary
    f = _scalar_level(p, level_c)
    return np.array([f(a, b) for a, b in zip(x.tolist(), y.tolist())])


def _numpy_polish(p, level_c, xa, ya, xb, yb, fa, fb):
    """The earlier polish: 46 NumPy bisections of every edge at once.

    A probe inside the guard gives NaN, which fails ``f < 0`` and so
    counts as f >= 0; an end where f is zero is the vertex itself.
    """
    dx, dy = xb - xa, yb - ya
    neg = fa < 0.0
    lo, hi = np.zeros_like(fa), np.ones_like(fa)
    for _ in range(46):
        s = 0.5 * (lo + hi)
        f = _numpy_level(p, xa + s * dx, ya + s * dy, level_c)
        same = (f < 0.0) == neg
        lo = np.where(same, s, lo)
        hi = np.where(same, hi, s)
    s = 0.5 * (lo + hi)
    x, y = xa + s * dx, ya + s * dy
    at_a, at_b = fa == 0.0, fb == 0.0
    return (np.where(at_a, xa, np.where(at_b, xb, x)),
            np.where(at_a, ya, np.where(at_b, yb, y)))


def _numpy_polish_edge(p, level_c, pa, pb, fa, fb):
    """One edge polished alone, as a one-edge batch of the NumPy pass."""
    x, y = _numpy_polish(p, level_c, *np.array([[*pa, *pb, fa, fb]]).T)
    return float(x[0]), float(y[0])


def _brentq_edge(p, level_c, pa, pb, fa, fb):
    """Scalar polish with SciPy's bracketed solver at xtol = 1e-13."""
    from scipy.optimize import brentq
    if fa == 0.0:
        return pa
    if fb == 0.0:
        return pb
    f = _scalar_level(p, level_c)

    def g(s):
        return f(pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))

    try:
        s = brentq(g, 0.0, 1.0, xtol=1e-13)
    except ValueError:
        s = fa / (fa - fb)
    return (pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))


def _reference_curve(p, level_c, window, resolution,
                     polish=_polish_edge) -> ZeroVelocityCurve:
    """Scalar extraction: one Python visit per grid node and per cell.

    f is evaluated at every node through the public potential, NaN within
    the guard, and each crossing edge is polished on its own, so the
    quadtree pass, which evaluates only the nodes it cannot certify, must
    reproduce this curve exactly.
    """
    f = _scalar_level(p, level_c)
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
            cache[key] = polish(p, level_c, pa, pb, fa, fb)
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
            ("resolution", 3.0, WIDE, 256.9),
            ("resolution", 3.0, WIDE, math.nan),
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


def test_a_level_through_a_grid_node_has_no_zero_length_segment():
    # the level passes exactly through the node (40, 40) of a 65^2 grid,
    # and by symmetry in y through (40, 24): every edge crossing that
    # meets one of them is the node itself, held once by its polyline
    n = 65
    xs = [WIDE[0] + (WIDE[1] - WIDE[0]) * i / (n - 1) for i in range(n)]
    level = 2.0 * amended_potential(CLASSICAL, xs[40], xs[40])
    curve = zero_velocity_curve(CLASSICAL, level, WIDE, n)
    assert len(curve.segments) == 3
    for seg in curve.segments:
        assert all(a != b for a, b in zip(seg, seg[1:]))
    pts = [v for seg in curve.segments for v in seg]
    assert pts.count((xs[40], xs[40])) == 1
    assert pts.count((xs[40], xs[24])) == 1
    loops = [seg for seg in curve.segments if seg[0] == seg[-1]]
    assert loops
    assert all(len(set(seg)) == len(seg) - 1 for seg in loops)
    assert curve == _reference_curve(CLASSICAL, level, WIDE, n)
    # U1 grows toward the window's corner (1.5, 1.5), and the level meets
    # the window there only: the corner cell's one segment joins two
    # crossings that are both the corner node, which leaves no segment
    corner = (1.0, 1.5, 1.0, 1.5)
    level = 2.0 * amended_potential(CLASSICAL, 1.5, 1.5)
    curve = zero_velocity_curve(CLASSICAL, level, corner, 17)
    assert curve.work["active_cells"] == 1
    assert curve.segments == ()
    assert curve == _reference_curve(CLASSICAL, level, corner, 17)


def test_stitch_holds_a_repeated_node_once():
    # crossings "a" and "d" are one grid node, where the loop wraps round
    where = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (1.0, 1.0),
             "d": (0.0, 0.0)}
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    loops = _stitch(square, where.__getitem__)
    assert loops == (((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)),)
    # a loop whose crossings are all one node, where f = 0 and f < 0 at
    # the four neighbours, has no segment
    assert _stitch(square, lambda key: (0.5, 0.5)) == ()


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
    # windows holding one primary each, the curve closed around it
    (CLASSICAL, 8.0, (-0.4, 0.2, -0.3, 0.3), 64),
    (CLASSICAL, 4.0, (0.7, 1.1, -0.2, 0.2), 64),
    # the L4 window of the oval, further above the minimum
    (CLASSICAL, C_L4 + 1e-3, SMALL, 128),
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

    def both(p, level_c, pa, pb, fa, fb):
        v = _polish_edge(p, level_c, pa, pb, fa, fb)
        w = _brentq_edge(p, level_c, pa, pb, fa, fb)
        band = 4.0 * np.finfo(float).eps * abs(level_c) / abs(fb - fa)
        excess.append(math.dist(v, w) / math.dist(pa, pb) - band)
        return v

    _reference_curve(p, level, window, resolution, polish=both)
    assert excess
    assert max(excess) <= 1e-12


def test_polish_probe_inside_the_guard_stays_on_the_curve():
    # the grid row at y = 5e-7 passes 5e-7 from the primary at (-1/2, 0),
    # which is the midpoint of the row's edge from x = -0.5625 to -0.4375:
    # a probe there counts as f > 0, so the vertex stays at the crossing
    # near x = -0.5625
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


def test_polish_probe_budget_on_the_readme_curve():
    # the README's curve: Anderson-Bjorck, stopped in the rounding band,
    # takes 4.69 probes per vertex here (5.61 without the stop), Illinois
    # took 7.38 and bisection 46, so a silent fallback to either shows
    work = zero_velocity_curve(CLASSICAL, 2.92, WIDE, 256).work
    assert work["vertices"] == 204
    assert work["polish_probes"] <= 4.9 * work["vertices"]


def test_polish_bisects_after_a_probe_inside_the_guard():
    # the level puts the first secant point of the edge from x = -0.75 to
    # -0.4375 exactly on the primary at (-1/2, 0): that probe counts as
    # f > 0, and the next step, with no value at that end, bisects
    pa, pb = (-0.75, 0.0), (-0.4375, 0.0)
    ua, ub = (amended_potential(EQUAL, *pt) for pt in (pa, pb))
    level = 2.0 * ua + 2.0 * 0.25 * (ub - ua) / 0.3125
    fa, fb = 2.0 * ua - level, 2.0 * ub - level
    assert fa / (fa - fb) == 0.8
    work = {"polish_probes": 0, "polish_bisections": 0}
    x, y = _polish(_level_kernel(EQUAL, level), *pa, *pb, fa, fb,
                   _BAND * abs(level), work)
    assert work["polish_bisections"] >= 1
    assert work["polish_probes"] <= 46
    assert x < -0.5 and y == 0.0
    assert abs(2.0 * amended_potential(EQUAL, x, y) - level) <= 1e-13
    assert math.dist((x, y), _numpy_polish_edge(
        EQUAL, level, pa, pb, fa, fb)) <= 1e-13


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


@FIXTURES
def test_vertices_match_the_numpy_bisection(p, level, window, resolution):
    # the earlier NumPy bisection, edge by edge, against the
    # Anderson-Bjorck polish: within 1e-13 of each other, plus the band
    # eps*|C|/|fb - fa| of the edge where f is flat along it (see
    # test_polish_matches_brentq)
    excess = []

    def both(p, level_c, pa, pb, fa, fb):
        v = _polish_edge(p, level_c, pa, pb, fa, fb)
        w = _numpy_polish_edge(p, level_c, pa, pb, fa, fb)
        band = 4.0 * np.finfo(float).eps * abs(level_c) / abs(fb - fa)
        excess.append(math.dist(v, w) - 1e-13 - band * math.dist(pa, pb))
        return v

    _reference_curve(p, level, window, resolution, polish=both)
    assert excess
    assert max(excess) <= 0.0


def _random_case(rng):
    """Parameters, a level crossing the window, the window, a resolution."""
    p = SystemParams(mu=rng.choice((0.5, 0.1, 0.01, rng.uniform(1e-3, 0.5))),
                     q1=rng.choice((1.0, rng.uniform(0.8, 1.0))),
                     a2=rng.choice((0.0, rng.uniform(0.0, 1e-2))))
    kind = rng.randrange(4)
    centre, width = [((-p.mu, 0.0), rng.uniform(0.01, 1.0)),
                     ((1.0 - p.mu, 0.0), rng.uniform(1e-3, 0.5)),
                     ((0.5 - p.mu, SQRT3_2), rng.uniform(0.01, 0.3)),
                     ((0.0, 0.0), rng.uniform(1.0, 3.0))][kind]
    x0 = centre[0] + rng.uniform(-0.2, 0.2) * width
    y0 = centre[1] + rng.uniform(-0.2, 0.2) * width
    window = (x0 - width, x0 + width * rng.uniform(0.5, 1.5),
              y0 - width, y0 + width * rng.uniform(0.5, 1.5))
    # 2*U1 at a random point of the window, so the curve passes through it
    while True:
        try:
            level = 2.0 * amended_potential(
                p, rng.uniform(*window[:2]), rng.uniform(*window[2:]))
            break
        except SingularityError:
            continue
    return p, level, window, rng.choice((16, 17, 24, 33, 48))


NEAR_L4 = (0.3, 0.5, SQRT3_2 - 0.1, SQRT3_2 + 0.1)
# the level through the node (0.375, 0.375) of a 257^2 grid on WIDE
NODE_LEVEL = 2.0 * amended_potential(CLASSICAL, 0.375, 0.375)


@pytest.mark.parametrize("p, level, window, resolution", [
    # an oval around L4, where the gradient cancels
    (CLASSICAL, C_L4 + 1e-4, NEAR_L4, 257),
    # closed around each primary, and an outer loop
    (CLASSICAL, 3.9, WIDE, 512),
    (CLASSICAL, 8.0, (-0.4, 0.2, -0.3, 0.3), 257),
    (CLASSICAL, 4.0, (0.7, 1.1, -0.2, 0.2), 257),
    # across the window's edges
    (CLASSICAL, 3.2, (0.0, 1.5, 0.0, 1.5), 512),
    # through a grid node, in a scanned block
    (CLASSICAL, NODE_LEVEL, WIDE, 257),
], ids=["near-l4", "both-primaries", "primary-1", "primary-2", "window-edge",
        "through-a-node"])
def test_scanned_blocks_match_scalar_reference(p, level, window, resolution):
    # fine grids, where blocks are scanned line by line
    curve = zero_velocity_curve(p, level, window, resolution)
    assert curve.work["blocks_scanned"] > 0
    assert curve == _reference_curve(p, level, window, resolution)


def test_no_monotone_verdict_at_l4():
    # the gradient of U1 vanishes at L4: a block around it is never
    # certified monotone along an axis, however small
    x4 = 0.5 - CLASSICAL.mu
    for level in (C_L4, C_L4 + 1e-4):
        for h in (1e-2, 1e-4, 1e-6):
            certify = _certifier(CLASSICAL, level, h / 8, h / 8)
            verdict = certify(x4 - h, x4 + h, SQRT3_2 - h, SQRT3_2 + h)
            assert verdict in (0, _ONE_SIGNED)


@pytest.mark.parametrize("seed", range(60))
def test_random_windows_match_scalar_reference(seed):
    rng = random.Random(seed)
    p, level, window, resolution = _random_case(rng)
    curve = zero_velocity_curve(p, level, window, resolution)
    assert curve == _reference_curve(p, level, window, resolution)
    work = curve.work
    assert work["grid_nodes"] == resolution**2
    assert work["vertices"] == len(
        {v for seg in curve.segments for v in seg})


def _kernel_values(monkeypatch, p, level, window, resolution):
    """(level_c, x, y, f) of every kernel evaluation of one extraction:
    grid nodes, saddle centres, polish probes and the certificate's 2*U1
    at block centres (level 0)."""
    seen = []

    def recording_kernel(p, level_c):
        f = _level_kernel(p, level_c)

        def level(x, y):
            v = f(x, y)
            seen.append((level_c, x, y, v))
            return v
        return level

    monkeypatch.setattr(prtbp.zvc, "_level_kernel", recording_kernel)
    zero_velocity_curve(p, level, window, resolution)
    return seen


def _assert_public_bits(p, seen):
    # repr round-trips every float, so equal reprs are equal bits
    assert seen
    for level_c, x, y, v in seen:
        public = _scalar_level(p, level_c)(x, y)
        assert repr(v) == repr(public), (level_c, x, y)


@FIXTURES
def test_kernel_has_the_bits_of_the_public_potential(monkeypatch, p, level,
                                                     window, resolution):
    _assert_public_bits(p, _kernel_values(monkeypatch, p, level, window,
                                          resolution))


def test_kernel_has_the_public_bits_on_random_windows(monkeypatch):
    for seed in range(60):
        p, level, window, resolution = _random_case(random.Random(seed))
        _assert_public_bits(p, _kernel_values(monkeypatch, p, level, window,
                                              resolution))


def test_kernel_is_nan_within_the_guard_and_on_a_primary():
    f = _level_kernel(EQUAL, 3.0)
    public = _scalar_level(EQUAL, 3.0)
    # 5e-7 and 2e-6 from the primary at (-1/2, 0)
    assert math.isnan(f(-0.5 + 5e-7, 0.0))
    assert math.isnan(public(-0.5 + 5e-7, 0.0))
    assert repr(f(-0.5 + 2e-6, 0.0)) == repr(public(-0.5 + 2e-6, 0.0))
    # on either primary, where the public function raises
    # SingularityError, the kernel gives NaN
    for x in (-0.5, 0.5):
        with pytest.raises(SingularityError, match="within"):
            amended_potential(EQUAL, x, 0.0)
        assert math.isnan(f(x, 0.0))


def test_one_signed_window_evaluates_no_node():
    # 2*U1 >= C_L4 everywhere, so f >= 0.01 on the window around L4: the
    # blocks are certified before any leaf is reached
    window = (0.2, 0.6, 0.5, 0.9)
    curve = zero_velocity_curve(CLASSICAL, C_L4 - 0.01, window, 512)
    assert curve.segments == ()
    assert curve == _reference_curve(CLASSICAL, C_L4 - 0.01, window, 64)
    assert curve.work["blocks_certified"] > 0
    assert curve.work["nodes_evaluated"] == 0


def _random_blocks(rng, draws):
    """Random blocks of random grids, each with a level set from a node
    near the block, so many blocks sit close to the curve or to a
    primary: (p, level, xs, ys, i0, i1, j0, j1, verdict), with the
    verdict of the curve's block certificate."""
    for _ in range(draws):
        p, _, window, resolution = _random_case(rng)
        resolution = 4 * resolution
        xmin, xmax, ymin, ymax = window
        xs = [xmin + (xmax - xmin) * i / (resolution - 1)
              for i in range(resolution)]
        ys = [ymin + (ymax - ymin) * j / (resolution - 1)
              for j in range(resolution)]
        size = rng.choice((1, 2, 4, 8, 16, 32))
        i0 = rng.randrange(resolution - size)
        j0 = rng.randrange(resolution - size)
        i1, j1 = i0 + size, j0 + size
        try:
            near = 2.0 * amended_potential(
                p, xs[min(i1 + 1, resolution - 1)], ys[j0])
        except SingularityError:
            continue
        level = near * (1.0 + rng.choice((1e-2, 1e-4, -1e-4, -1e-2)))
        certify = _certifier(p, level,
                             min(b - a for a, b in zip(xs, xs[1:])),
                             min(b - a for a, b in zip(ys, ys[1:])))
        verdict = certify(xs[i0], xs[i1], ys[j0], ys[j1])
        yield p, level, xs, ys, i0, i1, j0, j1, verdict


def test_certified_blocks_are_one_signed():
    """Every block the Taylor bound certifies has f of the certified sign
    at all of its nodes, each more than twice the guard from both
    primaries."""
    passed = failed = 0
    for p, level, xs, ys, i0, i1, j0, j1, verdict in _random_blocks(
            random.Random(2024), 400):
        if verdict != _ONE_SIGNED:
            failed += 1
            continue
        passed += 1
        cx, cy = 0.5 * (xs[i0] + xs[i1]), 0.5 * (ys[j0] + ys[j1])
        sign = 2.0 * amended_potential(p, cx, cy) - level > 0.0
        for y in ys[j0:j1 + 1]:
            for x in xs[i0:i1 + 1]:
                assert min(_radii(p)(x, y)) > 2.0 * COLLISION_GUARD
                f = 2.0 * amended_potential(p, x, y) - level
                assert f != 0.0 and (f > 0.0) == sign
    assert passed > 50 and failed > 50


def test_monotone_blocks_change_sign_once():
    """Every block certified monotone along an axis has f strictly rising
    or falling, as certified, along each grid line of that axis at every
    node, each node more than twice the guard from both primaries: so
    each line changes sign at most once."""
    passed = failed = 0
    for p, level, xs, ys, i0, i1, j0, j1, verdict in _random_blocks(
            random.Random(2025), 400):
        if abs(verdict) not in (_ALONG_X, _ALONG_Y):
            failed += 1
            continue
        passed += 1
        for y in ys[j0:j1 + 1]:
            for x in xs[i0:i1 + 1]:
                assert min(_radii(p)(x, y)) > 2.0 * COLLISION_GUARD
        grid = [[2.0 * amended_potential(p, x, y) - level
                 for x in xs[i0:i1 + 1]] for y in ys[j0:j1 + 1]]
        lines = grid if abs(verdict) == _ALONG_X else list(zip(*grid))
        for line in lines:
            if verdict < 0:
                line = line[::-1]
            assert all(a < b for a, b in zip(line, line[1:]))
    assert passed >= 50 and failed >= 50


def test_l4_window_evaluates_under_one_percent(tmp_path):
    # the oval just above the minimum at L4, on a 1024^2 grid: the
    # quadtree leaves unevaluated all but the nodes around the oval
    out = tmp_path / "oval.csv"
    assert main(["zvc", "--system.mu", "0.1", "--system.w1", "0",
                 "--job.level_c", repr(C_L4 + 1e-6),
                 "--job.xmin", repr(SMALL[0]), "--job.xmax", repr(SMALL[1]),
                 "--job.ymin", repr(SMALL[2]), "--job.ymax", repr(SMALL[3]),
                 "--job.resolution", "1024", "--output", str(out)]) == 0
    work = json.loads((tmp_path / "oval.meta.json").read_text())
    assert work["grid_nodes"] == 1024**2
    assert 0 < work["nodes_evaluated"] < 0.01 * work["grid_nodes"]
    assert work["active_cells"] > 0 and work["vertices"] > 0


def test_work_takes_no_part_in_equality():
    a = ZeroVelocityCurve(3.0, (((0.0, 1.0), (1.0, 0.0)),))
    b = ZeroVelocityCurve(3.0, (((0.0, 1.0), (1.0, 0.0)),),
                          work={"grid_nodes": 256})
    assert a == b and hash(a) == hash(b)
    assert a != ZeroVelocityCurve(3.0, ())
