"""Zero-velocity curves by marching squares.

The curve 2*U1(x, y) = C bounds the region a particle with Jacobi value C
can reach. f = 2*U1 - C is evaluated on the whole sampling grid through
the model's potential, and NumPy classifies the cells by the corner signs
of f. Grid cells that contain a primary, or touch one within the
collision guard, are masked. Only the cells the curve crosses are visited
in Python: crossings are located on cell edges, and ambiguous saddle
cells are split by the sign of f at the cell centre, all centres in one
evaluation.

All crossings are then polished together along their grid edges by one
NumPy bisection pass of fixed length, so emitted vertices satisfy f = 0
to near machine precision rather than to the linear-interpolation error
of the raw grid. A probe inside the collision guard has no value of f;
it counts as f > 0, since U1 grows without bound at a primary, so the
bisection keeps to the crossing on the far side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import COLLISION_GUARD, SystemParams, _potential, _radii

if TYPE_CHECKING:
    import numpy as np

Window = tuple[float, float, float, float]

#: Minimum number of grid nodes per axis.
MIN_RESOLUTION = 16

#: Maximum number of grid nodes per axis.
MAX_RESOLUTION = 4096

# halvings of the unit edge parameter: 2**-46 < 1e-13
_HALVINGS = 46

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


def _level(p: SystemParams, x, y, level_c: float,
           guard: float) -> np.ndarray:
    # f = 2*U1 - C on arrays, NaN within the guard of a primary
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        f = 2.0 * _potential(p, x, y) - level_c
    f[np.minimum(*_radii(p, x, y)) < guard] = math.nan
    return f


def _polish(p: SystemParams, level_c: float, guard: float, xa, ya, xb, yb,
            fa, fb) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of f = 0 on the edges (xa, ya)-(xb, yb), as arrays.

    ``fa`` and ``fb`` are the grid values of f at the edge ends, of
    opposite classification (f < 0 at exactly one end). Each edge is
    bisected in its parameter s in [0, 1], and an end where f is zero is
    the vertex itself. A probe inside the guard gives NaN, which fails
    ``f < 0`` and so counts as f >= 0, as it is near a primary.
    """
    import numpy as np

    dx, dy = xb - xa, yb - ya
    neg = fa < 0.0
    lo, hi = np.zeros_like(fa), np.ones_like(fa)
    for _ in range(_HALVINGS):
        s = 0.5 * (lo + hi)
        f = _level(p, xa + s * dx, ya + s * dy, level_c, guard)
        same = (f < 0.0) == neg
        lo = np.where(same, s, lo)
        hi = np.where(same, hi, s)
    s = 0.5 * (lo + hi)
    x, y = xa + s * dx, ya + s * dy
    at_a, at_b = fa == 0.0, fb == 0.0
    return (np.where(at_a, xa, np.where(at_b, xb, x)),
            np.where(at_a, ya, np.where(at_b, yb, y)))


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
        Number of grid nodes per axis, from 16 to 4096.

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
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [{MIN_RESOLUTION}, "
                         f"{MAX_RESOLUTION}], got {resolution}")

    import numpy as np

    nx = ny = int(resolution)
    xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
    ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    # rows run along y and columns along x
    vals = _level(p, xs, ys[:, None], level_c, guard)

    # corners c0..c3 of cell (j, i): (j, i), (j, i+1), (j+1, i+1), (j+1, i)
    corners = (vals[:-1, :-1], vals[:-1, 1:], vals[1:, 1:], vals[1:, :-1])
    case = sum((c < 0.0).astype(np.uint8) << k for k, c in enumerate(corners))
    masked = np.logical_or.reduce([np.isnan(c) for c in corners])
    for px, py in ((-p.mu, 0.0), (1.0 - p.mu, 0.0)):
        masked |= (((ys[:-1] <= py) & (py <= ys[1:]))[:, None]
                   & ((xs[:-1] <= px) & (px <= xs[1:])))
    active = (case != 0) & (case != 15) & ~masked

    # row-major, as np.nonzero returns them, so segment order is stable
    cj, ci = np.nonzero(active)
    cases = case[cj, ci]
    # a saddle centre inside the guard is NaN, so it counts as outside
    saddle = (cases == 5) | (cases == 10)
    inside = np.zeros(len(cases), dtype=bool)
    inside[saddle] = _level(
        p, 0.5 * (xs[ci[saddle]] + xs[ci[saddle] + 1]),
        0.5 * (ys[cj[saddle]] + ys[cj[saddle] + 1]), level_c, guard) < 0.0

    raw_segments: list[tuple] = []
    for j, i, cell, centre_in in zip(cj.tolist(), ci.tolist(),
                                     cases.tolist(), inside.tolist()):
        edge_keys = (("h", i, j), ("v", i + 1, j),
                     ("h", i, j + 1), ("v", i, j))
        if cell == 5:
            pairs = ((0, 1), (2, 3)) if centre_in else ((3, 0), (1, 2))
        elif cell == 10:
            pairs = ((3, 0), (1, 2)) if centre_in else ((0, 1), (2, 3))
        else:
            pairs = _SEGMENTS[cell]
        raw_segments += [(edge_keys[a], edge_keys[b]) for a, b in pairs]

    # every crossing edge once, in first-seen order, polished in one pass
    keys = list(dict.fromkeys(k for seg in raw_segments for k in seg))
    horizontal = np.array([k[0] == "h" for k in keys], dtype=bool)
    i, j = np.array([k[1:] for k in keys], dtype=np.intp).reshape(-1, 2).T
    i2, j2 = i + horizontal, j + ~horizontal
    vx, vy = _polish(p, level_c, guard, xs[i], ys[j], xs[i2], ys[j2],
                     vals[j, i], vals[j2, i2])
    vertices = dict(zip(keys, zip(vx.tolist(), vy.tolist())))
    return ZeroVelocityCurve(level_c=level_c,
                             segments=_stitch(raw_segments,
                                              vertices.__getitem__))


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
