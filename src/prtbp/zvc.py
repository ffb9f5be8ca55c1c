"""Zero-velocity curves by marching squares.

The curve 2*U1(x, y) = C bounds the region a particle with Jacobi value C
can reach. The cells of the sampling grid are split by a quadtree, from
the whole grid down to leaves of at most 4x4 cells. A block is skipped
when a Taylor bound around its centre proves f = 2*U1 - C of one sign on
all of it, beyond the rounding of f, at least twice the collision guard
from both primaries: none of its cells can hold the curve. Where the
bound proves instead that f is strictly monotone along each grid row (or
column) of a block, the curve is a graph there: each line changes sign
at most once, and a block of at most 16x16 cells is scanned line by
line, evaluating little more than the corners of the cells between two
lines' changes. Only those nodes and the nodes of the other leaves are
evaluated, so most of a fine grid is never visited (see the Numerical
remarks of ``docs/model-notes.md``). Every value of f comes from one
kernel per curve, ``model._level_kernel``, with the bits of the public
``amended_potential``.

Cells are classified by the corner signs of f. Cells that contain a
primary, or touch one within the collision guard, are masked, and
ambiguous saddle cells are split by the sign of f at the cell centre.

Each crossing is then polished along its grid edge by the
Anderson-Bjorck method, a regula falsi that keeps its bracket, in about
four probes of f per edge, so emitted vertices satisfy f = 0 to near
machine precision rather than to the linear-interpolation error of the
raw grid. A probe inside the collision guard has no value of f; it
counts as f > 0, since U1 grows without bound at a primary, so the
bracket keeps to the crossing on the far side of it.
"""

from __future__ import annotations

import math

from .model import (COLLISION_GUARD, SystemParams, _hessian_bound,
                    _level_kernel, _Record, _state_kernel)

Window = tuple[float, float, float, float]

#: Minimum number of grid nodes per axis.
MIN_RESOLUTION = 16

#: Maximum number of grid nodes per axis.
MAX_RESOLUTION = 4096

# quadtree leaves hold at most this many cells per axis
_LEAF = 4

# a block where f is certified monotone along one axis is scanned line
# by line once it holds at most this many cells per axis; a larger one
# is split, as splitting is the cheaper way through the parts of it
# that are one-signed
_SCAN = 16

# verdicts of the block certificate besides 0, nothing proved
_ONE_SIGNED = 1
_ALONG_X = 2
_ALONG_Y = 3

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

# or at a probe where |f| <= _BAND * |C|: near the curve, where
# 2*U1 + |C| ~ 2|C|, that is the unit roundoff 2**-53 of 2*U1 + |C|,
# within the rounding of f, where the sign of f is noise
_BAND = 2.0 ** -52

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
    ``vertices`` (crossings polished), ``polish_probes``,
    ``polish_bisections`` and ``blocks_scanned`` (blocks scanned line by
    line where f is monotone). It is deterministic and takes no part in
    equality.
    """

    _fields = ("level_c", "segments")

    def __init__(self, level_c: float,
                 segments: tuple[tuple[tuple[float, float], ...], ...],
                 work: dict[str, int] | None = None):
        self._freeze(level_c, segments)
        object.__setattr__(self, "work", {} if work is None else work)


def _certifier(p: SystemParams, level_c: float, gap_x: float, gap_y: float):
    """The test of what f provably does on a block of one curve.

    The returned ``certify(xlo, xhi, ylo, yhi)`` judges the block
    [xlo, xhi] x [ylo, yhi] of a grid whose node gaps are at least gap_x
    along x and gap_y along y. Around the block's centre c with half-widths
    (hx, hy), Taylor's theorem bounds |f - f(c)| by the slack
    |fx| hx + |fy| hy + M (hx^2 + hy^2) / 2, where M bounds the norm of
    f's Hessian at the block's nearest distances to the primaries. Both
    verdicts need both nearest distances beyond twice ``COLLISION_GUARD``,
    so no node lies within it, and R = 1e-12 (2*U1(c) + |C| + slack) bounds
    the rounding of f at every node.

    It returns ``_ONE_SIGNED`` when |f(c)| exceeds the slack by more than
    R. Otherwise it returns +-``_ALONG_X`` when g = |fx(c)| - M hypot(hx,
    hy) > 0, so f_x keeps its sign on the block, and g (gap_x - 2 pad)
    > 2 R, so two neighbouring nodes of a grid row differ by more than
    their rounding: the computed f then rises (+) or falls (-) strictly
    along every row. +-``_ALONG_Y`` is the same along the columns; only
    the axis along which f changes more per node gap is tried. Else it
    returns 0.
    """
    # a centre is never within the guard of a block that gets that far
    guard = COLLISION_GUARD
    state = _state_kernel(p, guard)
    mu = p.mu
    hypot = math.hypot

    def certify(xlo, xhi, ylo, yhi):
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
            return 0
        u, gx, gy, _, _ = state(cx, cy, 0.0, 0.0)
        u2 = 2.0 * u
        fx = 2.0 * gx
        fy = 2.0 * gy
        m = 2.0 * _hessian_bound(p, r1, r2)
        slack = abs(fx) * hx + abs(fy) * hy + 0.5 * m * (hx * hx + hy * hy)
        rounding = _ROUNDING * (u2 + abs(level_c) + slack)
        if abs(u2 - level_c) - slack > rounding:
            return _ONE_SIGNED
        # the effective points of two neighbouring nodes are at least a
        # node gap less the padding on each side apart
        reach = m * hypot(hx, hy)
        if abs(fx) * gap_x >= abs(fy) * gap_y:
            if (abs(fx) - reach) * (gap_x - 2.0 * pad) > 2.0 * rounding:
                return _ALONG_X if fx > 0.0 else -_ALONG_X
        elif (abs(fy) - reach) * (gap_y - 2.0 * pad) > 2.0 * rounding:
            return _ALONG_Y if fy > 0.0 else -_ALONG_Y
        return 0

    return certify


def _active_cells(p: SystemParams, level, certify, xs, ys,
                  work: dict) -> tuple[list, dict]:
    """Cells the curve crosses, row-major, and node values.

    ``level`` is the curve's kernel f and ``certify`` its block
    certificate. Nodes (i, j) are keyed by j * n + i, and each cell by
    its lower left node: the cells are pairs (key, corner-sign case).
    The values are f at the nodes evaluated; every node of an active
    cell is among them.
    """
    n = len(xs)
    primaries = (-p.mu, 1.0 - p.mu)
    values: dict[int, float] = {}
    cells = []
    # blocks of cells [i0, i1) x [j0, j1), with the monotone verdict
    # inherited from a parent block (0 for none)
    blocks = [(0, n - 1, 0, n - 1, 0)]
    while blocks:
        i0, i1, j0, j1, along = blocks.pop()
        verdict = certify(xs[i0], xs[i1], ys[j0], ys[j1])
        if verdict == _ONE_SIGNED:
            work["blocks_certified"] += 1
            continue
        along = along or verdict
        if along and i1 - i0 <= _SCAN and j1 - j0 <= _SCAN:
            work["blocks_scanned"] += 1
            _scan(level, xs, ys, values, cells, i0, i1, j0, j1, along)
            continue
        if i1 - i0 > _LEAF or j1 - j0 > _LEAF:
            icuts = (i0, (i0 + i1) // 2, i1) if i1 - i0 > _LEAF else (i0, i1)
            jcuts = (j0, (j0 + j1) // 2, j1) if j1 - j0 > _LEAF else (j0, j1)
            blocks += [(a, b, c, d, along) for c, d in zip(jcuts, jcuts[1:])
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
                cells.append((j * n + i, case))
    work["nodes_evaluated"] = len(values)
    work["active_cells"] = len(cells)
    cells.sort()
    return cells, values


def _scan(level, xs, ys, values, cells, i0, i1, j0, j1, along) -> None:
    """The active cells of a block where f is monotone along one axis.

    ``along`` is the block's verdict: f strictly rising (+) or falling
    (-) along each grid row (``_ALONG_X``) or column (``_ALONG_Y``). The
    scan runs over those lines. On each, the negative nodes are one run
    at the line's start (rising) or end (falling), so the line changes
    sign at most once: at k, the first node of the other run, found by a
    walk from the previous line's k. Between two lines with changes k
    and k', the active cells are those from min(k, k') - 1 to
    max(k, k') - 1. Besides the first line's walk, only the nodes in
    that range of both lines are evaluated: the corners of those cells,
    or one node a line where the curve misses both. No node lies within
    the guard, no cell holds a primary, and no cell is a saddle.
    """
    n = len(xs)
    rows = abs(along) == _ALONG_X
    # node pos of line l has the key l * stride + pos * step
    if rows:
        lo, hi, l0, l1, stride, step = i0, i1, j0, j1, n, 1
    else:
        lo, hi, l0, l1, stride, step = j0, j1, i0, i1, 1, n

    def value(line, pos):
        key = line * stride + pos * step
        f = values.get(key)
        if f is None:
            f = values[key] = (level(xs[pos], ys[line]) if rows
                               else level(xs[line], ys[pos]))
        return f

    # on every line, node pos is negative when (pos < k) == first_neg
    first_neg = along > 0
    k = (lo + hi + 1) // 2
    for line in range(l0, l1 + 1):
        # k moves to the first node of the second run, or to hi + 1
        prev = k
        if k > hi:
            k = hi
        if (value(line, k) < 0.0) != first_neg:
            while k > lo and (value(line, k - 1) < 0.0) != first_neg:
                k -= 1
        else:
            k += 1
            while k <= hi and (value(line, k) < 0.0) == first_neg:
                k += 1
        if line == l0:
            continue
        # the band's cells run from a to b - 1, and their corners from a
        # to b on both lines
        a, b = (k - 1, prev) if k < prev else (prev - 1, k)
        if a < lo:
            a = lo
        if b > hi:
            b = hi
        for pos in range(a, b + 1):
            value(line - 1, pos)
            value(line, pos)
        for pos in range(a, b):
            # corner signs: s0, s1 at pos and pos + 1 on the previous
            # line, t0, t1 on this one
            s0 = (pos < prev) == first_neg
            s1 = (pos + 1 < prev) == first_neg
            t0 = (pos < k) == first_neg
            t1 = (pos + 1 < k) == first_neg
            if rows:
                cells.append(((line - 1) * n + pos,
                              s0 | s1 << 1 | t1 << 2 | t0 << 3))
            else:
                cells.append((pos * n + line - 1,
                              s0 | t0 << 1 | t1 << 2 | s1 << 3))


def _polish(level, xa: float, ya: float, xb: float, yb: float, fa: float,
            fb: float, stop: float, work: dict) -> tuple[float, float]:
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
    NaN, so the kept end is halved. The polish returns the first probe
    where |f| <= ``stop``, the curve's rounding band; else it stops at a
    bracket width of 2**-46 or after 46 probes, and returns the
    bracket's midpoint.
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
        if abs(f) <= stop:
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
                        resolution: int) -> ZeroVelocityCurve:
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

    n = int(resolution)
    # NumPy's xmin + (xmax - xmin) * arange(n) / (n - 1), bit for bit
    xs = [xmin + (xmax - xmin) * i / (n - 1) for i in range(n)]
    ys = [ymin + (ymax - ymin) * j / (n - 1) for j in range(n)]
    work = {"grid_nodes": n * n, "nodes_evaluated": 0,
            "blocks_certified": 0, "active_cells": 0, "vertices": 0,
            "polish_probes": 0, "polish_bisections": 0, "blocks_scanned": 0}
    level = _level_kernel(p, level_c)
    # the least node gap per axis: rounding leaves the gaps a few ulps
    # apart
    certify = _certifier(p, level_c, min(b - a for a, b in zip(xs, xs[1:])),
                         min(b - a for a, b in zip(ys, ys[1:])))
    cells, values = _active_cells(p, level, certify, xs, ys, work)

    # an edge's key is 2 * (j * n + i) + 0 for the edge from node (i, j)
    # to the right, + 1 for the edge up from it; a cell's bottom, right,
    # top and left edges lie at these offsets from twice its node's key
    offsets = (0, 3, 2 * n, 1)
    joins = {case: tuple((offsets[a], offsets[b]) for a, b in pairs)
             for case, pairs in _SEGMENTS.items()}
    # the two ways to join a saddle's crossings
    lower = ((offsets[0], offsets[1]), (offsets[2], offsets[3]))
    upper = ((offsets[3], offsets[0]), (offsets[1], offsets[2]))
    raw_segments: list[tuple[int, int]] = []
    for node, cell in cells:
        base = 2 * node
        if cell == 5 or cell == 10:
            # a saddle centre inside the guard is NaN, so it counts as
            # outside
            j, i = divmod(node, n)
            centre_in = level(0.5 * (xs[i] + xs[i + 1]),
                              0.5 * (ys[j] + ys[j + 1])) < 0.0
            pairs = lower if (cell == 5) == centre_in else upper
        else:
            pairs = joins[cell]
        raw_segments += [(base + a, base + b) for a, b in pairs]

    stop = _BAND * abs(level_c)
    vertices = {}
    for segment in raw_segments:
        for key in segment:
            if key in vertices:
                continue
            node = key >> 1
            other = node + n if key & 1 else node + 1
            j, i = divmod(node, n)
            j2, i2 = divmod(other, n)
            vertices[key] = _polish(level, xs[i], ys[j], xs[i2], ys[j2],
                                    values[node], values[other], stop, work)
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
