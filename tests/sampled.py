"""The tests' sampled route to integrals: fields summed on the 2-D grid.

The library integrates only through 1-D Gauss sums
(``generators.project``); the tests compare it with this independent
sum over the tensor grid's points.
"""

import numpy as np


def sampled_inner(grid, f, g) -> float:
    """Integral of f*g over fields sampled on ``grid``, shape
    (m_rad, m_ang) or (4, m_rad, m_ang); spinor components are summed."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.shape[-2:] != (grid.m_rad, grid.m_ang):
        raise ValueError("mismatched grids: fields must be sampled on this grid")
    return float(np.sum(grid.w_r * grid.w_phi * f * g))
