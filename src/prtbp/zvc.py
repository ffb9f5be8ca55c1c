"""Zero-velocity curves by marching squares.

The curve 2*U1(x, y) = C bounds the region a particle with Jacobi value C
can reach. f = 2*U1 - C is evaluated on the whole sampling grid through
the model's potential, and NumPy classifies the cells by the corner signs
of f. Grid cells that contain a primary, or touch one within the
collision guard, are masked. Only the cells the curve crosses are visited
in Python: crossings are located on cell edges, and ambiguous saddle
cells are split by the sign of f at the cell centre.

Each crossing is polished along its grid edge with a bracketed scalar
root solve, so emitted vertices satisfy f = 0 to near machine precision
rather than to the linear-interpolation error of the raw grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import SingularityError
from .model import (COLLISION_GUARD, SystemParams, _potential, _radii,
                    amended_potential)

Window = tuple[float, float, float, float]

#: Minimum number of grid nodes per axis.
MIN_RESOLUTION = 16

# per-cell segments by corner-sign case; corners c0..c3 run counter-
# clockwise from the lower left, edges 0..3 are bottom,right,top,left
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),),
    11: ((1, 2),), 12: ((3, 1),), 13: ((0, 1),), 14: ((3, 0),),
}


@dataclass(frozen=True)
class ZeroVelocityCurve:
    """Polyline decomposition of one zero-velocity level set.

    ``segments`` is a tuple of polylines, each a tuple of (x, y)
    vertices; closed loops repeat their first vertex at the end.
    """

    level_c: float
    segments: tuple[tuple[tuple[float, float], ...], ...]


def _edge_vertex(f, pa, pb, fa, fb) -> tuple[float, float]:
    # crossing on the edge pa-pb: polish the linear-interpolation root
    # with a bracketed solve so the vertex sits on the level set
    if fa == 0.0:
        return pa
    if fb == 0.0:
        return pb

    def g(s: float) -> float:
        return f(pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))

    try:
        s = brentq(g, 0.0, 1.0, xtol=1e-13)
    except ValueError:
        # fall back to plain linear interpolation if the scalar solve
        # cannot bracket (sign noise at the last bit)
        s = fa / (fa - fb)
    return (pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))


def zero_velocity_curve(p: SystemParams, level_c: float, window: Window,
                        resolution: int,
                        guard: float = COLLISION_GUARD) -> ZeroVelocityCurve:
    """Extract the zero-velocity curve 2*U1 = level_c inside a window.

    Parameters
    ----------
    p : SystemParams
        System parameters.
    level_c : float
        Jacobi level of the curve.
    window : tuple
        (xmin, xmax, ymin, ymax) extent of the sampling grid.
    resolution : int
        Number of grid nodes per axis, at least 16.

    Returns
    -------
    ZeroVelocityCurve
        Stitched polylines; empty when the level set misses the window.
    """
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"window must satisfy xmin < xmax and ymin < ymax, "
                         f"got {window}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(
            f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")

    def f(x: float, y: float) -> float:
        try:
            return 2.0 * amended_potential(p, x, y, guard) - level_c
        except SingularityError:
            return math.nan

    nx = ny = int(resolution)
    xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
    ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    # rows run along y and columns along x; nodes inside the guard are NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = 2.0 * _potential(p, xs, ys[:, None]) - level_c
    vals[np.minimum(*_radii(p, xs, ys[:, None])) < guard] = math.nan

    # corners c0..c3 of cell (j, i): (j, i), (j, i+1), (j+1, i+1), (j+1, i)
    corners = (vals[:-1, :-1], vals[:-1, 1:], vals[1:, 1:], vals[1:, :-1])
    case = sum((c < 0.0).astype(np.uint8) << k for k, c in enumerate(corners))
    masked = np.logical_or.reduce([np.isnan(c) for c in corners])
    for px, py in ((-p.mu, 0.0), (1.0 - p.mu, 0.0)):
        masked |= (((ys[:-1] <= py) & (py <= ys[1:]))[:, None]
                   & ((xs[:-1] <= px) & (px <= xs[1:])))
    active = (case != 0) & (case != 15) & ~masked

    xs, ys = xs.tolist(), ys.tolist()
    vertex_cache: dict = {}
    raw_segments: list[tuple] = []

    def vertex(edge_key):
        v = vertex_cache.get(edge_key)
        if v is None:
            kind, i, j = edge_key
            i2, j2 = (i + 1, j) if kind == "h" else (i, j + 1)
            v = _edge_vertex(f, (xs[i], ys[j]), (xs[i2], ys[j2]),
                             float(vals[j, i]), float(vals[j2, i2]))
            vertex_cache[edge_key] = v
        return v

    # row-major, as np.argwhere returns them, so segment order is stable
    for j, i in np.argwhere(active).tolist():
        cell = int(case[j, i])
        edge_keys = (("h", i, j), ("v", i + 1, j),
                     ("h", i, j + 1), ("v", i, j))
        if cell in (5, 10):
            centre = f(0.5 * (xs[i] + xs[i + 1]),
                       0.5 * (ys[j] + ys[j + 1]))
            inside = centre < 0.0
            if cell == 5:
                pairs = ((0, 1), (2, 3)) if inside else ((3, 0), (1, 2))
            else:
                pairs = ((3, 0), (1, 2)) if inside else ((0, 1), (2, 3))
        else:
            pairs = _SEGMENTS[cell]
        raw_segments += [(edge_keys[a], edge_keys[b]) for a, b in pairs]

    return ZeroVelocityCurve(level_c=level_c,
                             segments=_stitch(raw_segments, vertex))


def _stitch(raw_segments, vertex) -> tuple:
    """Chain per-cell segments that share edge crossings into polylines."""
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

    endpoints = [k for k, nbs in adjacency.items() if len(nbs) == 1]
    for key in endpoints:
        if key in visited:
            continue
        chain = walk(key)
        polylines.append(tuple(vertex(k) for k in chain))
    for key in adjacency:
        if key in visited:
            continue
        chain = walk(key)
        if len(chain) > 1:
            # closed loop: repeat the first vertex to close the polyline
            polylines.append(tuple(vertex(k) for k in chain)
                             + (vertex(chain[0]),))
    return tuple(polylines)
