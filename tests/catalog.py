"""The tests' catalog algebra: sums and multiples of catalog states.

The library writes every state straight from the closed forms
(``irreps``).  The tests compose the same states from the one-fermion
states with these helpers, as an independent reference, and read a
state's fermion parity off its terms.
"""

from ttwsusy.states import FERMION_NUMBER, CatalogState, CatalogTerm


def zero() -> CatalogState:
    """The state with no terms."""
    return CatalogState(())


def scaled(state: CatalogState, c: float) -> CatalogState:
    """The state with every coefficient multiplied by c."""
    return CatalogState(tuple(CatalogTerm(c * t.coeff, t.N, t.n, t.occ) for t in state.terms))


def simplify(state: CatalogState) -> CatalogState:
    """The state's nonzero terms summed per (N, n, occupation), in order of
    first appearance, with zero sums dropped."""
    acc: dict[tuple, float] = {}
    for t in state.terms:
        if t.is_zero:
            continue
        key = (t.N, t.n, t.occ)
        acc[key] = acc.get(key, 0.0) + t.coeff
    return CatalogState(tuple(CatalogTerm(c, *key) for key, c in acc.items() if c != 0.0))


def add(a: CatalogState, b: CatalogState) -> CatalogState:
    """The simplified sum of two states, the terms of a first."""
    return simplify(CatalogState(a.terms + b.terms))


def fermion_parity(state: CatalogState) -> int:
    """The fermion parity that every nonzero term of the state shares."""
    (parity,) = {FERMION_NUMBER[t.occ] % 2 for t in state.terms if not t.is_zero}
    return parity
