"""Two-mode fermionic layer.

Occupation basis is ordered {|00>, |10>, |01>, |11>} with
|10> = bdag_x|0> and |11> = bdag_x bdag_y|0>.  Mode y carries the
Jordan-Wigner sign over mode x, so bdag_y|10> = -|11>; all other signs
follow from the canonical anticommutation relations.

The 'barred' modes rotate (x, y) by the polar angle,

    bdag_xbar =  bdag_x cos(phi) + bdag_y sin(phi)
    bdag_ybar = -bdag_x sin(phi) + bdag_y cos(phi),

and are a computational device only: stored spinor fields always use
the fixed (unbarred) basis, with the rotation applied pointwise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jordan_wigner",
]


def jordan_wigner(n_modes: int) -> list[np.ndarray]:
    """Annihilation matrices for n fermion modes with JW sign strings.

    Mode i (0-based) acts on bit i of the occupation index, with the
    parity string over modes 0..i-1.  Basis states are indexed by the
    integer whose bit j is the occupation of mode j.
    """
    dim = 2**n_modes
    ops = []
    for i in range(n_modes):
        m = np.zeros((dim, dim))
        for s in range(dim):
            if (s >> i) & 1:
                sign = 1.0 if bin(s & ((1 << i) - 1)).count("1") % 2 == 0 else -1.0
                m[s ^ (1 << i), s] = sign
        ops.append(m)
    return ops

