"""The sweep grid is built without NumPy, from NumPy's own formulas.

A linear grid has the bits of ``np.linspace``. A geometric grid raises
10 to a linear grid of exponents with ``math.log10`` and Python's ``**``;
NumPy's vectorized log10 and power may use CPU-specific kernels, so
``np.geomspace`` is matched to 1 ulp, with exact endpoints. The 1-ulp
bound assumes NumPy's log10 of the endpoints equals ``math.log10``'s,
as it does for these ranges; an exponent 1 ulp off moves the interior
points by more.
"""

from __future__ import annotations

import numpy as np
import pytest

from prtbp.cli import _sweep_grid

# (start, stop, count): the benchmark's sweep ranges, negative same-sign
# endpoints, descending grids, and the shortest grids
RANGES = [
    (1e-4, 2e-2, 2000),
    (1e-5, 1e-2, 2000),
    (0.9, 0.999, 2000),
    (1e-3, 0.3, 2000),
    (-1e-4, -2e-2, 200),
    (-0.3, -1e-3, 37),
    (2e-2, 1e-4, 51),
    (1e-4, 2e-2, 1),
    (1e-4, 2e-2, 2),
    (-0.5, -0.25, 2),
]


def _grid(spacing: str, start: float, stop: float, count: int) -> np.ndarray:
    grid = _sweep_grid({"spacing": spacing, "start": start, "stop": stop,
                        "count": count})
    assert all(type(v) is float for v in grid)
    return np.array(grid)


@pytest.mark.parametrize("start, stop, count", RANGES)
def test_linear_grid_is_bitwise_linspace(start, stop, count):
    grid = _grid("linear", start, stop, count)
    assert np.array_equal(grid.view(np.int64),
                          np.linspace(start, stop, count).view(np.int64))


@pytest.mark.parametrize("start, stop, count", RANGES)
def test_geometric_grid_within_one_ulp_of_geomspace(start, stop, count):
    grid = _grid("geometric", start, stop, count)
    reference = np.geomspace(start, stop, count)
    assert len(grid) == count
    # same-sign values: adjacent floats differ by 1 in their bit patterns
    assert np.max(np.abs(grid.view(np.int64)
                         - reference.view(np.int64))) <= 1
    assert grid[0] == start
    if count > 1:
        assert grid[-1] == stop
        steps = np.diff(grid) * np.sign(stop - start)
        assert np.all(steps > 0)
