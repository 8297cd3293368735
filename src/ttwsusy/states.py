"""Catalog states and their analytic evaluation as spinor fields.

A catalog state is a finite linear combination of factorized basis
functions closed under the action of all eight superalgebra
generators.  Each term is labelled by (N, n, shift, occ):

    occ 0 (vacuum):   Z_N^((2n+a+b)k)(z)          Phi_n^(a,b)(phi)        |00>
    occ 1 (xbar):     z^(-1/2) Z_N^((2n+a+b)k)(z) Phi_n^(a,b)(phi)        bdag_xbar|0>
    occ 2 (ybar):     z^(-1/2) Z_N^((2n+a+b)k)(z) Phi_{n-1}^(a+1,b+1)     bdag_ybar|0>
    occ 3 (xbar ybar):          Z_N^((2n+a+b)k)(z) Phi_{n-1}^(a+1,b+1)    bdag_xbar bdag_ybar|0>

where Z and Phi are the radial/angular eigenfunction factors.  The
``shift`` field records the (a,b) -> (a+1,b+1) shift explicitly; terms
with a negative radial or angular index are the zero function (the
ladder expansions use that sentinel implicitly).

Because the barred fermion modes depend on phi, a term's fixed-basis
spinor components pick up cos(phi)/sin(phi) factors, and the angular
derivative acts on those too.  ``state_bundle`` returns the exact
values and first/second polar derivatives of every fixed-basis
component on a set of sample points; the generator module applies
its differential operators to these bundles, so there is no
discretization error anywhere.

Every term is a radial factor (a function of r alone) times an angular
spinor factor (angular factor times fermion trig, a function of phi
alone).  ``FactorTable`` memoizes both, as evaluated by
``model.radial_levels``/``angular_parts``, on any broadcastable pair
(r, phi), combines them by broadcasting and hands them out for the
separable projection of the generator matrices.  Radial factors are
evaluated for every level of one (sector, one-fermion) key at once.
Equal-shape arrays sample scattered points; a grid's ``(grid.r,
grid.phi)``, a column of radial nodes against a row of angular nodes,
samples the whole tensor grid while evaluating each factor on the 1-D
nodes only.

Spinor fields themselves are plain float arrays of shape
(4, *broadcast shape) in the fixed fermion basis: (4, n_points) for
scattered points, (4, m_rad, m_ang) on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, angular_parts, radial_levels

__all__ = [
    "CatalogState",
    "CatalogTerm",
    "FactorTable",
    "OCC_VAC",
    "OCC_XBAR",
    "OCC_XYBAR",
    "OCC_YBAR",
    "StateBundle",
    "state_bundle",
    "state_field",
]

OCC_VAC, OCC_XBAR, OCC_YBAR, OCC_XYBAR = 0, 1, 2, 3

FERMION_NUMBER = {OCC_VAC: 0, OCC_XBAR: 1, OCC_YBAR: 1, OCC_XYBAR: 2}

# default (a,b) shift per occupation, following the ladder expansions
_OCC_SHIFT = {OCC_VAC: 0, OCC_XBAR: 0, OCC_YBAR: 1, OCC_XYBAR: 1}


@dataclass(frozen=True)
class CatalogTerm:
    coeff: float
    N: int
    n: int
    shift: int
    occ: int

    @property
    def angular_index(self) -> int:
        return self.n - self.shift

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0.0 or self.N < 0 or self.angular_index < 0


def term(coeff: float, N: int, n: int, occ: int, shift: int | None = None) -> CatalogTerm:
    """Catalog term with the occupation's conventional (a,b) shift."""
    return CatalogTerm(float(coeff), N, n, _OCC_SHIFT[occ] if shift is None else shift, occ)


@dataclass(frozen=True)
class CatalogState:
    """Finite linear combination of catalog terms (immutable)."""

    terms: tuple[CatalogTerm, ...]

    @classmethod
    def of(cls, *terms_: CatalogTerm) -> "CatalogState":
        return cls(tuple(t for t in terms_ if not t.is_zero))

    @classmethod
    def zero(cls) -> "CatalogState":
        return cls(())

    def __add__(self, other: "CatalogState") -> "CatalogState":
        return CatalogState(self.terms + other.terms).simplify()

    def scaled(self, c: float) -> "CatalogState":
        return CatalogState(tuple(replace(t, coeff=c * t.coeff) for t in self.terms))

    def simplify(self) -> "CatalogState":
        acc: dict[tuple, float] = {}
        for t in self.terms:
            if t.is_zero:
                continue
            key = (t.N, t.n, t.shift, t.occ)
            acc[key] = acc.get(key, 0.0) + t.coeff
        return CatalogState(
            tuple(CatalogTerm(c, N, n, shift, occ) for (N, n, shift, occ), c in acc.items() if c != 0.0)
        )

    @property
    def is_zero(self) -> bool:
        return all(t.is_zero for t in self.terms)

    def fermion_parity(self) -> int:
        """0 for even (0- or 2-fermion) states, 1 for odd; mixed parity is rejected."""
        parities = {FERMION_NUMBER[t.occ] % 2 for t in self.terms if not t.is_zero}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("catalog state mixes fermion parities")
        return parities.pop()


@dataclass
class StateBundle:
    """Values and polar derivatives of the four fixed-basis components."""

    val: np.ndarray
    d_r: np.ndarray
    d_rr: np.ndarray
    d_phi: np.ndarray
    d_phiphi: np.ndarray

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "StateBundle":
        return cls(*(np.zeros((4, *shape)) for _ in range(5)))


def _occupation_trig(occ: int, phi: np.ndarray):
    """Nonzero fixed-basis components as (index, t, t', t'') triples."""
    one = np.ones_like(phi)
    zero = np.zeros_like(phi)
    if occ == OCC_VAC:
        return [(0, one, zero, zero)]
    if occ == OCC_XYBAR:
        # bdag_xbar bdag_ybar|0> = bdag_x bdag_y|0> for every phi
        return [(3, one, zero, zero)]
    c, s = np.cos(phi), np.sin(phi)
    if occ == OCC_XBAR:
        return [(1, c, -s, -c), (2, s, c, -s)]
    if occ == OCC_YBAR:
        return [(1, -s, -c, s), (2, c, -s, -c)]
    raise ValueError(f"unknown occupation {occ}")


class FactorTable:
    """Memoized radial factors and angular spinor factors on one set of points.

    ``r`` and ``phi`` are any broadcastable pair: equal-shape arrays for
    scattered points, or a grid's column of radial nodes and row of
    angular nodes (``grid.r``, ``grid.phi``), in which case fields come
    out on the whole tensor grid while every factor is evaluated on the
    1-D nodes only.  Factors are keyed without the term coefficient, so
    states sharing basis functions share their evaluation; the table
    holds no array of the broadcast shape.
    """

    def __init__(self, params: ModelParams, r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if np.any(r <= 0) or np.any(phi <= 0) or np.any(phi >= params.phi_max):
            raise ValueError("sample points must lie strictly inside the domain")
        self.params = params
        self.r = r
        self.phi = phi
        self.shape = np.broadcast_shapes(r.shape, phi.shape)
        self._radial: dict[tuple[int, bool], tuple] = {}
        self._angular: dict[tuple[int, int], tuple] = {}
        self._spinor: dict[tuple[int, int, int], list] = {}

    def _levels(self, n: int, one_fermion: bool, top: int):
        """Radial level stacks of sector n, levels 0..top at least."""
        stacks = self._radial.get((n, one_fermion))
        if stacks is None or len(stacks[0]) <= top:
            stacks = self._radial[n, one_fermion] = radial_levels(self.params, top, n, self.r, one_fermion)
        return stacks

    def radial(self, N: int, n: int, one_fermion: bool):
        """(R, dR/dr, d2R/dr2) of the radial factor on r's shape."""
        return tuple(part[N] for part in self._levels(n, one_fermion, N))

    def radials(self, keys) -> list:
        """``radial(*key)`` for every (N, n, one_fermion) key, with one level
        pass per (n, one_fermion) up to the highest N asked for."""
        tops: dict[tuple[int, bool], int] = {}
        for N, n, one_fermion in keys:
            tops[n, one_fermion] = max(N, tops.get((n, one_fermion), N))
        for (n, one_fermion), top in tops.items():
            self._levels(n, one_fermion, top)
        return [self.radial(*key) for key in keys]

    def spinor(self, occ: int, shift: int, m: int):
        """Nonzero fixed-basis components (index, S, dS/dphi, d2S/dphi2) on
        phi's shape of occupation ``occ``'s fermion trig t times the
        angular factor A of index m and (a,b) shift: S = t A."""
        if (occ, shift, m) not in self._spinor:
            if (shift, m) not in self._angular:
                self._angular[shift, m] = angular_parts(self.params, m, self.phi, shift)
            A0, A1, A2 = self._angular[shift, m]
            self._spinor[occ, shift, m] = [
                (idx, t * A0, t1 * A0 + t * A1, t2 * A0 + 2.0 * t1 * A1 + t * A2)
                for idx, t, t1, t2 in _occupation_trig(occ, self.phi)
            ]
        return self._spinor[occ, shift, m]

    def _angular_sums(self, state: CatalogState, derivs: bool) -> dict:
        """Per radial factor and component, the coefficient-weighted sum of
        the angular spinor factors (value, and with ``derivs`` d/dphi and
        d2/dphi2) of every term that shares it."""
        sums: dict[tuple[int, int, bool], dict[int, tuple]] = {}
        for trm in state.terms:
            if trm.is_zero:
                continue
            comps = sums.setdefault((trm.N, trm.n, FERMION_NUMBER[trm.occ] == 1), {})
            c = trm.coeff
            for idx, s0, s1, s2 in self.spinor(trm.occ, trm.shift, trm.angular_index):
                part = (c * s0, c * s1, c * s2) if derivs else (c * s0,)
                prev = comps.get(idx)
                comps[idx] = part if prev is None else tuple(x + y for x, y in zip(prev, part))
        return sums

    def bundle(self, state: CatalogState) -> StateBundle:
        """Exact values and polar derivatives of the state's components,
        shape (4, *broadcast shape)."""
        out = StateBundle.zeros(self.shape)
        sums = self._angular_sums(state, derivs=True)
        for (R, R_r, R_rr), comps in zip(self.radials(sums), sums.values()):
            for idx, (a0, a1, a2) in comps.items():
                out.val[idx] += R * a0
                out.d_r[idx] += R_r * a0
                out.d_rr[idx] += R_rr * a0
                out.d_phi[idx] += R * a1
                out.d_phiphi[idx] += R * a2
        return out

    def field(self, state: CatalogState) -> np.ndarray:
        """The state as a (4, *broadcast shape) fixed-basis spinor field."""
        vals = np.zeros((4, *self.shape))
        sums = self._angular_sums(state, derivs=False)
        for (R, _, _), comps in zip(self.radials(sums), sums.values()):
            for idx, (a0,) in comps.items():
                vals[idx] += R * a0
        return vals


def state_bundle(state: CatalogState, params: ModelParams, r, phi) -> StateBundle:
    """Exact values and polar derivatives of the state's components at the
    broadcastable points (r, phi), each of shape (4, *broadcast shape).

    Equal-shape r and phi sample scattered points; a column of radial
    nodes against a row of angular nodes samples the tensor grid they
    span, with every factor evaluated on the 1-D nodes (see
    ``FactorTable``)."""
    return FactorTable(params, r, phi).bundle(state)


def state_field(state: CatalogState, params: ModelParams, r, phi) -> np.ndarray:
    """Sample the state as a (4, *broadcast shape) fixed-basis spinor field
    at the broadcastable points (r, phi); see ``FactorTable``."""
    return FactorTable(params, r, phi).field(state)
