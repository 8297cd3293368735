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
component on a set of sample points; the generator module assembles
its differential operators pointwise from these bundles, so there is
no discretization error anywhere.

Every factor of a term is a function of r alone (radial factor) or of
phi alone (angular factor, fermion trig), so the single evaluator,
``FactorTable``, takes any broadcastable pair (r, phi) and combines
the factors by broadcasting.  Equal-shape arrays sample scattered
points; a column of radial nodes against a row of angular nodes
(``grid.r_nodes[:, None]``, ``grid.phi_nodes[None, :]``) samples the
whole tensor grid while evaluating each factor on the 1-D nodes only.

Spinor fields themselves are plain float arrays of shape
(4, *broadcast shape) in the fixed fermion basis: (4, npts) for
scattered points, (4, m_rad, m_ang) on a tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams
from .specfun import jacobi, laguerre

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


def _radial_parts(params: ModelParams, N: int, n: int, one_fermion: bool, r: np.ndarray):
    """(R, dR/dr, d2R/dr2) of the radial factor of sector n at level N."""
    z = params.omega * r**2
    alpha = params.sector_alpha(n)
    p = 0.5 * alpha - (0.5 if one_fermion else 0.0)
    logz = np.log(z)
    pref = np.exp(p * logz - 0.5 * z - 0.5 * alpha * math.log(params.omega))
    L = laguerre(N, alpha, z)
    Ld = -laguerre(N - 1, alpha + 1.0, z) if N >= 1 else np.zeros_like(z)
    Ldd = laguerre(N - 2, alpha + 2.0, z) if N >= 2 else np.zeros_like(z)
    g = p / z - 0.5
    R = pref * L
    Rz = pref * (g * L + Ld)
    Rzz = pref * ((g * g - p / z**2) * L + 2.0 * g * Ld + Ldd)
    # chain rule for z = omega r^2
    return R, 2.0 * params.omega * r * Rz, 2.0 * params.omega * Rz + 4.0 * params.omega * z * Rzz


def _angular_parts(params: ModelParams, shift: int, m: int, phi: np.ndarray):
    """(A, dA/dphi, d2A/dphi2) of the angular factor with (a,b) shifted by
    ``shift`` and Jacobi degree m."""
    A_exp = params.a + shift
    B_exp = params.b + shift
    mu, nu = A_exp - 0.5, B_exp - 0.5
    k = params.k

    c = np.cos(k * phi)
    s = np.sin(k * phi)
    xi = np.clip(-np.cos(2.0 * k * phi), -1.0, 1.0)
    tan, cot = s / c, c / s

    env = c**A_exp * s**B_exp
    env1 = env * k * (B_exp * cot - A_exp * tan)
    env2 = env * ((k * (B_exp * cot - A_exp * tan)) ** 2 - k * k * (B_exp / s**2 + A_exp / c**2))

    P = jacobi(m, mu, nu, xi)
    Pd = 0.5 * (m + mu + nu + 1.0) * jacobi(m - 1, mu + 1.0, nu + 1.0, xi) if m >= 1 else np.zeros_like(xi)
    Pdd = (
        0.25 * (m + mu + nu + 1.0) * (m + mu + nu + 2.0) * jacobi(m - 2, mu + 2.0, nu + 2.0, xi)
        if m >= 2
        else np.zeros_like(xi)
    )
    xi1 = 4.0 * k * s * c
    xi2 = 4.0 * k * k * (c * c - s * s)
    Pphi = Pd * xi1
    Pphiphi = Pdd * xi1 * xi1 + Pd * xi2

    A0 = env * P
    A1 = env1 * P + env * Pphi
    A2 = env2 * P + 2.0 * env1 * Pphi + env * Pphiphi
    return A0, A1, A2


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
    """Memoized radial, angular and fermion-trig factors on one set of points.

    ``r`` and ``phi`` are any broadcastable pair: equal-shape arrays for
    scattered points, or a column of radial nodes and a row of angular
    nodes (``grid.r_nodes[:, None]``, ``grid.phi_nodes[None, :]``), in
    which case fields come out on the whole tensor grid while every
    factor is evaluated on the 1-D nodes only.  Factors are keyed
    without the term coefficient, so states sharing basis functions
    share their evaluation; the table holds no array of the broadcast
    shape.
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
        self._radial: dict[tuple[int, int, bool], tuple] = {}
        self._angular: dict[tuple[int, int], tuple] = {}
        self._trig: dict[int, list] = {}

    def _radial_of(self, N: int, n: int, one_fermion: bool):
        if (N, n, one_fermion) not in self._radial:
            self._radial[N, n, one_fermion] = _radial_parts(self.params, N, n, one_fermion, self.r)
        return self._radial[N, n, one_fermion]

    def _angular_of(self, shift: int, m: int):
        if (shift, m) not in self._angular:
            self._angular[shift, m] = _angular_parts(self.params, shift, m, self.phi)
        return self._angular[shift, m]

    def _trig_of(self, occ: int):
        if occ not in self._trig:
            self._trig[occ] = _occupation_trig(occ, self.phi)
        return self._trig[occ]

    def _angular_sums(self, state: CatalogState, derivs: bool) -> dict:
        """Per radial factor and component, the coefficient-weighted sum of
        the angular factors (value, and with ``derivs`` d/dphi, d2/dphi2
        including the fermion trig) of every term that shares it."""
        sums: dict[tuple[int, int, bool], dict[int, tuple]] = {}
        for trm in state.terms:
            if trm.is_zero:
                continue
            A0, A1, A2 = self._angular_of(trm.shift, trm.angular_index)
            comps = sums.setdefault((trm.N, trm.n, FERMION_NUMBER[trm.occ] == 1), {})
            c = trm.coeff
            for idx, t, t1, t2 in self._trig_of(trm.occ):
                part = (c * t * A0,)
                if derivs:
                    part += (c * (t1 * A0 + t * A1), c * (t2 * A0 + 2.0 * t1 * A1 + t * A2))
                prev = comps.get(idx)
                comps[idx] = part if prev is None else tuple(x + y for x, y in zip(prev, part))
        return sums

    def bundle(self, state: CatalogState) -> StateBundle:
        """Exact values and polar derivatives of the state's components,
        shape (4, *broadcast shape)."""
        out = StateBundle.zeros(self.shape)
        for key, comps in self._angular_sums(state, derivs=True).items():
            R, R_r, R_rr = self._radial_of(*key)
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
        for key, comps in self._angular_sums(state, derivs=False).items():
            R = self._radial_of(*key)[0]
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
