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
(r, phi).  ``FactorTable.expand`` is the one place that groups terms
by factor key: it writes a list of states as a coefficient array over
(radial key, angular key) pairs plus the factor arrays.  A bundle or
field is a contraction of one state's expansion, broadcast over the
table's points; ``generators.project`` contracts the expansions of
row and column states with 1-D Gauss sums.  Radial factors are
evaluated for every level of one (sector, one-fermion) key at once.
Equal-shape arrays sample scattered points; a grid's ``(grid.r,
grid.phi)``, a column of radial nodes against a row of angular nodes,
samples the whole tensor grid while evaluating each factor on the 1-D
nodes only.  One table per set of points serves every state sampled
there; ``state_bundle``/``state_field`` build a one-shot table.

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
    holds no array of the broadcast shape.  ``expand`` groups states'
    terms over the factors, and ``bundle``/``field`` contract it.
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

    def expand(self, states: list[CatalogState]):
        """Expand states over products of the table's factors, as (C, R, S):
        C (states, radial keys, angular keys) holds each state's coefficient
        per (radial factor, angular spinor factor) pair, R (3, *r.shape,
        radial keys) the radial factors and S (3, angular keys, 4,
        *phi.shape) the angular spinor factors, each with their first two
        derivatives.  A radial key is (N, n, one-fermion), an angular key
        (occ, shift, angular index); every level of one (n, one-fermion)
        comes from one level pass up to the highest N asked for.

        Each radial key's factors are divided by the power of two at their
        largest |value| and its coefficients multiplied by it.  Scaling by
        a power of two is exact, so every contraction is the same to the
        last bit, while the bare factors (up to z^(alpha/2), with alpha the
        sector exponent) cannot overflow against a grid's e^z / z^alpha
        weights before the normalization constants in C apply."""
        rad_keys: dict[tuple, int] = {}
        ang_keys: dict[tuple, int] = {}
        entries = []
        for i, st in enumerate(states):
            for t in st.terms:
                if not t.is_zero:
                    rk = rad_keys.setdefault((t.N, t.n, FERMION_NUMBER[t.occ] == 1), len(rad_keys))
                    ak = ang_keys.setdefault((t.occ, t.shift, t.angular_index), len(ang_keys))
                    entries.append((i, rk, ak, t.coeff))
        C = np.zeros((len(states), len(rad_keys), len(ang_keys)))
        for i, rk, ak, c in entries:
            C[i, rk, ak] += c
        tops: dict[tuple[int, bool], int] = {}
        for N, n, one_fermion in rad_keys:
            tops[n, one_fermion] = max(N, tops.get((n, one_fermion), N))
        for (n, one_fermion), top in tops.items():
            self._levels(n, one_fermion, top)
        R = np.zeros((3, *self.r.shape, len(rad_keys)))
        for j, key in enumerate(rad_keys):
            R[..., j] = self.radial(*key)
        exponent = np.frexp(np.max(np.abs(R[0]), axis=tuple(range(self.r.ndim)), initial=0.0))[1]
        S = np.zeros((3, len(ang_keys), 4, *self.phi.shape))
        for a, key in enumerate(ang_keys):
            for idx, *parts in self.spinor(*key):
                S[:, a, idx] = parts
        return np.ldexp(C, exponent[:, None]), np.ldexp(R, -exponent), S

    def _contract(self, state: CatalogState, orders) -> list:
        """The state's fields for each (radial, angular) derivative order
        of ``orders``, each of shape (4, *broadcast shape), from
        ``expand([state])``; components no term reaches stay zero."""
        C, R, S = self.expand([state])
        S = S[: 1 + max(d for _, d in orders)]
        coeff = C[0].reshape(C.shape[1], 1, C.shape[2], *(1,) * self.phi.ndim)
        out = [np.zeros((4, *self.shape)) for _ in orders]
        for idx in range(4):
            if not S[:, :, idx].any():
                continue
            # per radial key, its coefficient-weighted angular spinor factors
            ang = np.sum(coeff * S[None, :, :, idx], axis=2)
            # radial keys one at a time, in key order, like a loop over the
            # terms: a BLAS contraction would reorder the sums' last bits
            for j in range(C.shape[1]):
                for o, (d_r, d_phi) in zip(out, orders):
                    o[idx] += R[d_r, ..., j] * ang[j, d_phi]
        return out

    def bundle(self, state: CatalogState) -> StateBundle:
        """Exact values and polar derivatives of the state's components,
        shape (4, *broadcast shape)."""
        return StateBundle(*self._contract(state, ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))))

    def field(self, state: CatalogState) -> np.ndarray:
        """The state as a (4, *broadcast shape) fixed-basis spinor field."""
        return self._contract(state, ((0, 0),))[0]


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
