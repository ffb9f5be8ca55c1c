"""Zero-velocity curves by marching squares.

The curve 2*U1(x, y) = C bounds the region a particle with Jacobi value C
can reach. The cells of the sampling grid are split by a quadtree, from
the whole grid down to leaves of at most 4x4 cells. A block is skipped
when a Taylor bound around its centre proves f = 2*U1 - C of one sign on
all of it, beyond the rounding of f, at least twice the collision guard
from both primaries: none of its cells can hold the curve. Only the
nodes of the other leaves are evaluated, so most of a fine grid is never
visited (see the Numerical remarks of ``docs/model-notes.md``). Every
value of f comes from one kernel per curve, ``model._level_kernel``,
with the bits of the public ``amended_potential``.

Cells are classified by the corner signs of f. Cells that contain a
primary, or touch one within the collision guard, are masked, and
ambiguous saddle cells are split by the sign of f at the cell centre.

Each crossing is then polished along its grid edge by the
Anderson-Bjorck method, a regula falsi that keeps its bracket, in about
five probes of f per edge, so emitted vertices satisfy f = 0 to near
machine precision rather than to the linear-interpolation error of the
raw grid. A probe inside the collision guard has no value of f; it
counts as f > 0, since U1 grows without bound at a primary, so the
bracket keeps to the crossing on the far side of it.
"""

from __future__ import annotations

import math

from .model import (COLLISION_GUARD, SystemParams, _accelerations,
                    _check_guard_arg, _hessian_bound, _level_kernel,
                    _Record)

Window = tuple[float, float, float, float]

#: Minimum number of grid nodes per axis.
MIN_RESOLUTION = 16

#: Maximum number of grid nodes per axis.
MAX_RESOLUTION = 4096

# quadtree leaves hold at most this many cells per axis
_LEAF = 4

# a certified margin exceeds this share of 2*U1 + |C| + slack, far above
# the few ulps by which f is rounded at a node
_ROUNDING = 1e-12

# widening of a block's half-widths per unit of its coordinates, which
# covers the rounding of its centre and of x + mu in the model
_PAD = 2.0 ** -50

# the polish stops at this bracket width in the edge parameter, or after
# as many probes as bisection needs to reach it: 2**-46 < 1e-13
_WIDTH = 2.0 ** -46
_PROBES = 46

# per-cell segments by corner-sign case; corners c0..c3 run counter-
# clockwise from the lower left, edges 0..3 are bottom,right,top,left
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),),
    11: ((1, 2),), 12: ((3, 1),), 13: ((0, 1),), 14: ((3, 0),),
}


class ZeroVelocityCurve(_Record):
    """Polyline decomposition of one zero-velocity level set.

    ``segments`` is a tuple of polylines, each a tuple of at least two
    (x, y) vertices, no two in a row equal; closed loops repeat their
    first vertex at the end.
    ``work`` counts what the extraction did: ``grid_nodes``,
    ``nodes_evaluated``, ``blocks_certified``, ``active_cells``,
    ``vertices`` (crossings polished), ``polish_probes`` and
    ``polish_bisections``. It is deterministic and takes no part in
    equality.
    """

    _fields = ("level_c", "segments")

    def __init__(self, level_c: float,
                 segments: tuple[tuple[tuple[float, float], ...], ...],
                 work: dict[str, int] | None = None):
        self._freeze(level_c, segments)
        object.__setattr__(self, "work", {} if work is None else work)


def _certifier(p: SystemParams, level_c: float, guard: float):
    """The test whether f is provably of one sign on a block of one curve.

    The returned ``one_signed(xlo, xhi, ylo, yhi)`` decides it for the
    block [xlo, xhi] x [ylo, yhi]. Around the block's centre c with
    half-widths (hx, hy), Taylor's theorem bounds |f - f(c)| by the slack
    |fx| hx + |fy| hy + M (hx^2 + hy^2) / 2, where M bounds the norm of
    f's Hessian at the block's nearest distances to the primaries. The
    block passes when |f(c)| exceeds the slack by more than 1e-12 of
    2*U1(c) + |C| + slack, which covers the rounding of f at every node,
    and when both nearest distances exceed twice the guard, so no node
    lies within it.
    """
    # 2*U1 with the bits of 2.0 * _checked_potential's U1: a centre is
    # never within the guard of a block that gets that far
    two_u = _level_kernel(p, 0.0, guard)
    mu = p.mu
    hypot = math.hypot

    def one_signed(xlo, xhi, ylo, yhi):
        cx = 0.5 * (xlo + xhi)
        cy = 0.5 * (ylo + yhi)
        hx = max(cx - xlo, xhi - cx)
        hy = max(cy - ylo, yhi - cy)
        pad = _PAD * (abs(cx) + hx + abs(cy) + hy + 1.0)
        hx += pad
        hy += pad
        # nearest distances to the primaries at (-mu, 0) and (1 - mu, 0)
        xm = cx + mu
        dy = max(abs(cy) - hy, 0.0)
        r1 = hypot(max(abs(xm) - hx, 0.0), dy)
        r2 = hypot(max(abs(xm - 1.0) - hx, 0.0), dy)
        if not (r1 > 2.0 * guard and r2 > 2.0 * guard):
            return False
        u2 = two_u(cx, cy)
        gx, gy, _, _ = _accelerations(p, cx, cy, 0.0, 0.0)
        m = 2.0 * _hessian_bound(p, r1, r2)
        slack = 2.0 * (abs(gx) * hx + abs(gy) * hy) + 0.5 * m * (hx * hx
                                                                 + hy * hy)
        return (abs(u2 - level_c) - slack
                > _ROUNDING * (u2 + abs(level_c) + slack))

    return one_signed


def _active_cells(p: SystemParams, level, one_signed, xs, ys,
                  work: dict) -> tuple[list, dict]:
    """Cells (j, i, case) the curve crosses, row-major, and node values.

    ``level`` is the curve's kernel f and ``one_signed`` its block
    certificate. The values are f at the nodes evaluated, keyed by
    j * n + i; every node of an active cell is among them.
    """
    n = len(xs)
    primaries = (-p.mu, 1.0 - p.mu)
    values: dict[int, float] = {}
    cells = []
    # blocks of cells [i0, i1) x [j0, j1)
    blocks = [(0, n - 1, 0, n - 1)]
    while blocks:
        i0, i1, j0, j1 = blocks.pop()
        if one_signed(xs[i0], xs[i1], ys[j0], ys[j1]):
            work["blocks_certified"] += 1
            continue
        if i1 - i0 > _LEAF or j1 - j0 > _LEAF:
            icuts = (i0, (i0 + i1) // 2, i1) if i1 - i0 > _LEAF else (i0, i1)
            jcuts = (j0, (j0 + j1) // 2, j1) if j1 - j0 > _LEAF else (j0, j1)
            blocks += [(a, b, c, d) for c, d in zip(jcuts, jcuts[1:])
                       for a, b in zip(icuts, icuts[1:])]
            continue
        # the leaf's node values, row by row, then its cells
        rows = []
        for j in range(j0, j1 + 1):
            row = []
            for i in range(i0, i1 + 1):
                f = values.get(j * n + i)
                if f is None:
                    f = values[j * n + i] = level(xs[i], ys[j])
                row.append(f)
            rows.append(row)
        for j, below, above in zip(range(j0, j1), rows, rows[1:]):
            for i, c0, c1, c2, c3 in zip(range(i0, i1), below, below[1:],
                                         above[1:], above):
                case = ((c0 < 0.0) | (c1 < 0.0) << 1 | (c2 < 0.0) << 2
                        | (c3 < 0.0) << 3)
                if case == 0 or case == 15:
                    continue
                # a NaN corner lies within the guard of a primary
                if c0 != c0 or c1 != c1 or c2 != c2 or c3 != c3:
                    continue
                if ys[j] <= 0.0 <= ys[j + 1] and any(
                        xs[i] <= px <= xs[i + 1] for px in primaries):
                    continue
                cells.append((j, i, case))
    work["nodes_evaluated"] = len(values)
    work["active_cells"] = len(cells)
    cells.sort()
    return cells, values


def _polish(level, xa: float, ya: float, xb: float, yb: float, fa: float,
            fb: float, work: dict) -> tuple[float, float]:
    """Crossing of f = 0 on the edge (xa, ya)-(xb, yb).

    ``level`` is the curve's kernel f. ``fa`` and ``fb`` are the grid
    values of f at the edge ends, of opposite classification (f < 0 at
    exactly one end); an end where f is zero is the vertex itself. The
    Anderson-Bjorck method runs on the edge parameter s in [0, 1]: a
    secant step through the bracket's ends. When the same end is kept
    twice in a row, its value is scaled by m = 1 - f_new / f_replaced,
    with the values of the new probe and of the end it replaces, or by
    1/2 when m is not positive (the Illinois factor). A secant point
    outside the open bracket, or one from an end inside the guard, gives
    way to a bisection step. A probe inside the guard is NaN, which fails
    ``f < 0`` and so counts as f > 0, as it is near a primary; its m is
    NaN, so the kept end is halved. The polish stops at f = 0, at a
    bracket width of 2**-46 or after 46 probes, and returns the bracket's
    midpoint.
    """
    if fa == 0.0:
        return xa, ya
    if fb == 0.0:
        return xb, yb
    dx, dy = xb - xa, yb - ya
    neg = fa < 0.0
    a, b = 0.0, 1.0
    kept = 0  # the end kept by the last step: -1 for a, +1 for b
    probes = bisections = 0
    while b - a > _WIDTH and probes < _PROBES:
        s = b - fb * (b - a) / (fb - fa)
        if not a < s < b:
            s = 0.5 * (a + b)
            bisections += 1
        f = level(xa + s * dx, ya + s * dy)
        probes += 1
        if f == 0.0:
            a = b = s
            break
        # an end kept twice in a row means the end replaced is the last
        # probe, whose value is nonzero
        if (f < 0.0) == neg:
            if kept > 0:
                m = 1.0 - f / fa
                fb *= m if m > 0.0 else 0.5
            a, fa = s, f
            kept = 1
        else:
            if kept < 0:
                m = 1.0 - f / fb
                fa *= m if m > 0.0 else 0.5
            b, fb = s, f
            kept = -1
    work["polish_probes"] += probes
    work["polish_bisections"] += bisections
    s = 0.5 * (a + b)
    return xa + s * dx, ya + s * dy


def zero_velocity_curve(p: SystemParams, level_c: float, window: Window,
                        resolution: int,
                        guard: float = COLLISION_GUARD) -> ZeroVelocityCurve:
    """Extract the zero-velocity curve 2*U1 = level_c inside a window.

    Parameters
    ----------
    p : SystemParams
        System parameters.
    level_c : float
        Finite Jacobi level of the curve.
    window : tuple
        (xmin, xmax, ymin, ymax) finite extent of the sampling grid.
    resolution : int
        Number of grid nodes per axis, a whole number from 16 to 4096.
    guard : float
        Finite collision radius >= 0 about each primary.

    Returns
    -------
    ZeroVelocityCurve
        Stitched polylines; empty when the level set misses the window.
    """
    if not -math.inf < level_c < math.inf:
        raise ValueError(f"level_c must be finite, got {level_c}")
    xmin, xmax, ymin, ymax = window
    if not (-math.inf < xmin < xmax < math.inf
            and -math.inf < ymin < ymax < math.inf):
        raise ValueError(f"window must be finite with xmin < xmax and "
                         f"ymin < ymax, got {window}")
    # a NaN or infinity fails the range before int() sees it
    if not (MIN_RESOLUTION <= resolution <= MAX_RESOLUTION
            and resolution == int(resolution)):
        raise ValueError(f"resolution must be a whole number in "
                         f"[{MIN_RESOLUTION}, {MAX_RESOLUTION}], got "
                         f"{resolution}")
    _check_guard_arg(guard)

    n = int(resolution)
    # NumPy's xmin + (xmax - xmin) * arange(n) / (n - 1), bit for bit
    xs = [xmin + (xmax - xmin) * i / (n - 1) for i in range(n)]
    ys = [ymin + (ymax - ymin) * j / (n - 1) for j in range(n)]
    work = {"grid_nodes": n * n, "nodes_evaluated": 0,
            "blocks_certified": 0, "active_cells": 0, "vertices": 0,
            "polish_probes": 0, "polish_bisections": 0}
    level = _level_kernel(p, level_c, guard)
    cells, values = _active_cells(p, level, _certifier(p, level_c, guard),
                                  xs, ys, work)

    raw_segments: list[tuple] = []
    for j, i, cell in cells:
        edge_keys = (("h", i, j), ("v", i + 1, j),
                     ("h", i, j + 1), ("v", i, j))
        if cell == 5 or cell == 10:
            # a saddle centre inside the guard is NaN, so it counts as
            # outside
            centre_in = level(0.5 * (xs[i] + xs[i + 1]),
                              0.5 * (ys[j] + ys[j + 1])) < 0.0
            if (cell == 5) == centre_in:
                pairs = ((0, 1), (2, 3))
            else:
                pairs = ((3, 0), (1, 2))
        else:
            pairs = _SEGMENTS[cell]
        raw_segments += [(edge_keys[a], edge_keys[b]) for a, b in pairs]

    # every crossing edge once, in first-seen order
    vertices = {}
    for kind, i, j in dict.fromkeys(k for seg in raw_segments for k in seg):
        i2, j2 = (i + 1, j) if kind == "h" else (i, j + 1)
        vertices[kind, i, j] = _polish(
            level, xs[i], ys[j], xs[i2], ys[j2], values[j * n + i],
            values[j2 * n + i2], work)
    work["vertices"] = len(vertices)
    return ZeroVelocityCurve(level_c=level_c,
                             segments=_stitch(raw_segments,
                                              vertices.__getitem__),
                             work=work)


def _stitch(raw_segments, vertex) -> tuple:
    """Chain per-cell segments that share edge crossings into polylines.

    Where the level passes exactly through a grid node, the crossings of
    the edges that meet there are all that node; a polyline holds it
    once, so no segment has zero length. A chain left with one point,
    such as the level touching the window only at a corner node, has no
    segment and is dropped.
    """
    adjacency: dict = {}
    for a, b in raw_segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    visited = set()
    polylines = []

    def walk(start):
        chain = [start]
        visited.add(start)
        while True:
            nxt = next((nb for nb in adjacency[chain[-1]]
                        if nb not in visited), None)
            if nxt is None:
                return chain
            chain.append(nxt)
            visited.add(nxt)

    def points(chain):
        # the chain's vertices, each run of equal ones kept once
        out = [vertex(chain[0])]
        for key in chain[1:]:
            v = vertex(key)
            if v != out[-1]:
                out.append(v)
        return out

    endpoints = [k for k, nbs in adjacency.items() if len(nbs) == 1]
    for key in endpoints:
        if key in visited:
            continue
        line = points(walk(key))
        if len(line) > 1:
            polylines.append(tuple(line))
    for key in adjacency:
        if key in visited:
            continue
        # closed loop: repeat the first vertex to close the polyline
        loop = points(walk(key))
        if len(loop) > 1 and loop[-1] == loop[0]:
            loop.pop()
        if len(loop) > 1:
            polylines.append(tuple(loop) + (loop[0],))
    return tuple(polylines)
