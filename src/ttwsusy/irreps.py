"""Closed-form ladder data and irreducible-representation bases.

For a fixed angular quantum number n the bound states organize into a
single superalgebra irrep.  Writing

    lam = (n + a + b) k      mu = n k      alpha_n = lam + mu = (2n+a+b)k
    tau = (n + (a+b)/2) k + 1/2            q = -[(a+b)k + 1]/2

the zero-fermion states |tau, tau+N, q> carry the radial ladder

    K+ -> sqrt((N+1)(2 tau + N))     K- -> sqrt(N (2 tau + N - 1)),

the odd raising operators generate one- and two-fermion states with
closed-form expansions (``v_action``), and the one-fermion states
recombine into two orthonormal radial towers with lowest weights
tau -/+ 1/2 (``mixing_coeffs``).  For n = 0 the one-fermion towers
coincide, the two-fermion tower is empty and the irrep is a shortened
(atypical) lowest-weight one.

The irrep is Z2-graded: the zero- and two-fermion towers are even, the
one-fermion towers odd, and every generator maps one parity to one
parity.  ``sector_basis`` lists a sector's even towers before its odd
ones (``FAMILIES`` order), so a generator's block splits into four
quarters, each one slice of rows by one slice of columns.

This module also evaluates the quadratic and cubic Casimir operators,
as matrix polynomials in one sector's eight generator blocks and as
closed forms n(n+a+b)k^2 and -(a+b) n (n+a+b) k^3 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, weights_of
from .states import _OCC_SHIFT, OCC_VAC, OCC_XBAR, OCC_XYBAR, OCC_YBAR, CatalogState, CatalogTerm, term

__all__ = [
    "BasisState",
    "IrrepLabel",
    "casimir_eigenvalues",
    "casimir_matrices",
    "classify",
    "k_ladder_coeff",
    "mixing_coeffs",
    "one_fermion_state",
    "overlap",
    "sector_basis",
    "sp2_family_state",
    "two_fermion_state",
    "v_action",
    "zero_fermion_state",
]

# the sp(2,R) towers of a sector in basis order, each with the (tau, q)
# offsets of its lowest weight from the sector's (tau, q): the even towers
# (zero and two fermions) first, then the odd ones (one fermion), since
# the q offset is half the fermion number
FAMILIES = {"zero": (0.0, 0.0), "double": (0.0, 1.0), "lower": (-0.5, 0.5), "upper": (0.5, 0.5)}


def _families(n: int) -> tuple[str, ...]:
    """The towers of sector n: all four, but only zero and upper in the
    atypical n = 0 sector, whose lower and two-fermion towers are empty."""
    return ("zero", "upper") if n == 0 else tuple(FAMILIES)


def _lam_mu(params: ModelParams, n: int) -> tuple[float, float]:
    return (n + params.a + params.b) * params.k, n * params.k


def k_ladder_coeff(direction: str, tau: float, N: int) -> float:
    """Radial ladder matrix element sqrt((N+1)(2tau+N)) or sqrt(N(2tau+N-1))."""
    if direction == "+":
        return math.sqrt((N + 1.0) * (2.0 * tau + N))
    if direction == "-":
        return math.sqrt(N * (2.0 * tau + N - 1.0))
    raise ValueError("direction must be '+' or '-'")


def zero_fermion_state(params: ModelParams, N: int, n: int) -> CatalogState:
    """Normalized |tau, tau+N, q> = Psi_{N,n} x fermion vacuum."""
    return CatalogState.of(term((-1.0) ** N, N, n, OCC_VAC))


def _v_terms(direction: str, lam: float, mu: float, N: int) -> tuple:
    """The closed-form terms of ``v_action`` on |tau, tau+N, q> as
    (coefficient, N, occupation) triples, zero terms included."""
    alpha = lam + mu
    c = (-1.0) ** N
    if direction == "+":
        return (
            (c * (N + lam + 1.0), N, OCC_XBAR),
            (-c * math.sqrt((N + 1.0) * (N + alpha + 1.0)), N + 1, OCC_XBAR),
            (-c * math.sqrt(lam * mu), N, OCC_YBAR),
        )
    if direction == "-":
        return (
            (c * (N + mu), N, OCC_XBAR),
            (-c * math.sqrt(N * (N + alpha)), N - 1, OCC_XBAR),
            (c * math.sqrt(lam * mu), N, OCC_YBAR),
        )
    raise ValueError("direction must be '+' or '-'")


def v_action(direction: str, params: ModelParams, N: int, n: int) -> CatalogState:
    """Exact finite expansion of the odd raising/lowering action on
    the zero-fermion state |tau, tau+N, q>.

    The 1/sqrt(z) prefactor of the one-fermion pieces is carried by
    the occupation convention of the catalog terms.  The coefficients are
    algebraic, from the factor norms' ratios c_{N+1}/c_N = sqrt((N+1)/(N+alpha+1))
    and sqrt(mu/lam) (ybar angular factor over xbar).
    """
    lam, mu = _lam_mu(params, n)
    return CatalogState.of(*(term(c, N_, n, occ) for c, N_, occ in _v_terms(direction, lam, mu, N)))


def _one_fermion_terms(sign: str, lam: float, mu: float, N: int, n: int, scale: float = 1.0) -> list:
    """The terms of the normalized one-fermion state |+-, tau+N+-1/2,
    q+1/2> of sector n times ``scale``, as (coefficient, N, occupation)
    triples: the closed-form terms of ``v_action`` that ``CatalogState.of``
    keeps (nonzero, with nonnegative radial and angular indices), each
    times 1 / sqrt of the image's norm and then times ``scale``; none
    where the image vanishes."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if sign == "-" and N + mu == 0.0:
        return []
    norm = 1.0 / math.sqrt(N + lam + 1.0 if sign == "+" else N + mu)
    return [
        (scale * (norm * c), N_, occ)
        for c, N_, occ in _v_terms(sign, lam, mu, N)
        if c != 0.0 and N_ >= 0 and n - _OCC_SHIFT[occ] >= 0
    ]


def _state(terms, n: int) -> CatalogState:
    """The catalog state of sector n with these (coefficient, N, occupation) terms."""
    return CatalogState(tuple(CatalogTerm(c, N_, n, occ) for c, N_, occ in terms))


def one_fermion_state(sign: str, params: ModelParams, N: int, n: int) -> CatalogState:
    """Normalized one-fermion state |+-, tau+N+-1/2, q+1/2>."""
    return _state(_one_fermion_terms(sign, *_lam_mu(params, n), N, n), n)


def two_fermion_state(params: ModelParams, N: int, n: int) -> CatalogState:
    """Normalized |+-, tau+N, q+1>; zero for n = 0 (angular index n - 1 < 0)."""
    return CatalogState.of(term((-1.0) ** N, N, n, OCC_XYBAR))


def overlap(params: ModelParams, N: int, n: int) -> float:
    """Overlap of the two normalized one-fermion states at equal weight,

        sqrt( N [N + (2n+a+b)k] / ([N + (n+a+b)k] [N + nk]) ),

    defined for N >= 1 (there is no lowering image at N = 0)."""
    if N < 1:
        raise ValueError("overlap requires N >= 1")
    lam, mu = _lam_mu(params, n)
    return math.sqrt(N * (N + lam + mu) / ((N + lam) * (N + mu)))


def mixing_coeffs(params: ModelParams, N: int, n: int) -> tuple[float, float, float, float]:
    """Coefficients (alpha_N, beta_N, gamma_N, delta_N) recombining the
    one-fermion states into the orthonormal tau-1/2 and tau+1/2 towers."""
    if n < 1:
        raise ValueError("mixing_coeffs requires n >= 1 (denominators vanish at n = 0)")
    lam, mu = _lam_mu(params, n)
    alpha_n = lam + mu
    a_N = math.sqrt((N + alpha_n) * (N + mu) / (mu * alpha_n))
    b_N = -math.sqrt(N * (N + lam) / (mu * alpha_n))
    g_N = math.sqrt((N + 1.0) * (N + mu + 1.0) / (lam * alpha_n))
    d_N = -math.sqrt((N + lam + 1.0) * (N + alpha_n + 1.0) / (lam * alpha_n))
    return a_N, b_N, g_N, d_N


def _family_state(params: ModelParams, family: str, level: int, n: int, mixing) -> CatalogState:
    """State ``level`` of tower ``family`` in sector n, ``mixing`` the
    level's ``mixing_coeffs`` (``None`` for n = 0).  A mixed one-fermion
    state is written from the closed forms of its two scaled one-fermion
    states: the terms of the first, then those of the second, each
    nonzero coefficient added to the sum of its (N, occupation) pair, the
    pairs kept in the order they first appear, and a pair whose sum is
    zero dropped."""
    if family == "zero":
        return zero_fermion_state(params, level, n)
    if family == "double":
        return two_fermion_state(params, level, n)
    lam, mu = _lam_mu(params, n)
    if n == 0:
        return _state(_one_fermion_terms("+", lam, mu, level, n), n)
    a_N, b_N, g_N, d_N = mixing
    if family == "upper":
        terms = _one_fermion_terms("-", lam, mu, level + 1, n, g_N) + _one_fermion_terms("+", lam, mu, level, n, d_N)
    elif level == 0:
        return _state(_one_fermion_terms("-", lam, mu, level, n, a_N), n)
    else:
        terms = _one_fermion_terms("-", lam, mu, level, n, a_N) + _one_fermion_terms("+", lam, mu, level - 1, n, b_N)
    summed: dict[tuple, float] = {}
    for c, N_, occ in terms:
        if c != 0.0:
            summed[N_, occ] = summed.get((N_, occ), 0.0) + c
    return _state(((c, N_, occ) for (N_, occ), c in summed.items() if c != 0.0), n)


def sp2_family_state(params: ModelParams, family: str, level: int, n: int) -> CatalogState:
    """Orthonormal basis state of one sp(2,R) tower inside sector n.

    family 'zero':   |tau, tau+level, q>
    family 'lower':  |tau-1/2, tau-1/2+level, q+1/2>   (n >= 1 only)
    family 'upper':  |tau+1/2, tau+1/2+level, q+1/2>
    family 'double': |tau, tau+level, q+1>             (n >= 1 only)

    The one-fermion towers mix the two one-fermion states with
    ``mixing_coeffs``: upper = gamma_N |-, N+1> + delta_N |+, N> and
    lower = alpha_N |-, N> + beta_N |+, N-1>.  Each state is written
    straight from the closed-form coefficients of ``v_action`` and
    ``mixing_coeffs``, bit for bit the sum of the scaled
    ``one_fermion_state``s.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family not in _families(n):
        raise ValueError(f"the {family} tower is empty for n = 0")
    return _family_state(params, family, level, n, mixing_coeffs(params, level, n) if n >= 1 else None)


@dataclass(frozen=True)
class BasisState:
    """One orthonormal basis state with its expected weight labels and
    its fermion parity, 0 for the even towers and 1 for the odd ones."""

    n: int
    family: str
    level: int
    state: CatalogState
    k0: float
    y: float

    @property
    def parity(self) -> int:
        # the tower's q offset is half its fermion number
        return int(2.0 * FAMILIES[self.family][1]) % 2


def sector_basis(params: ModelParams, n: int, levels: int) -> list[BasisState]:
    """Orthonormal super-basis of sector n up to radial level ``levels``,
    the one owner of a sector's layout: every tower of ``_families(n)`` in
    ``FAMILIES`` order, so every even state comes before every odd one
    and each parity is one contiguous slice, each tower level by level,
    each state as ``sp2_family_state`` writes it, from the closed
    forms with no intermediate catalog state, and ``mixing_coeffs``
    formed once per level for both one-fermion towers."""
    w = weights_of(params, n)
    mixing = [mixing_coeffs(params, level, n) if n >= 1 else None for level in range(levels + 1)]
    out = []
    for family in _families(n):
        dk0, dy = FAMILIES[family]
        for level in range(levels + 1):
            state = _family_state(params, family, level, n, mixing[level])
            out.append(BasisState(n, family, level, state, w.tau + dk0 + level, w.q + dy))
    return out


def casimir_matrices(mats: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic and cubic Casimir operators as matrix polynomials in one
    block of generator matrices (one angular sector),

        C2 = K0(K0-1) - Y(Y+1) - K+K- + V-W+ - V+W-
        C3 = (K0+Y)(K0-Y-1)(Y+1/2) - (Y+1/2)K+K-
             + [K-V+ - (K0-3Y)V-]W+/2 + [K+V- - (K0+3Y)V+]W-/2.
    """
    K0, Kp, Km, Y = mats["K0"], mats["K+"], mats["K-"], mats["Y"]
    Vp, Vm, Wp, Wm = mats["V+"], mats["V-"], mats["W+"], mats["W-"]
    eye = np.eye(K0.shape[0])
    c2 = K0 @ (K0 - eye) - Y @ (Y + eye) - Kp @ Km + Vm @ Wp - Vp @ Wm
    c3 = (
        (K0 + Y) @ (K0 - Y - eye) @ (Y + 0.5 * eye)
        - (Y + 0.5 * eye) @ Kp @ Km
        + 0.5 * (Km @ Vp - (K0 - 3.0 * Y) @ Vm) @ Wp
        + 0.5 * (Kp @ Vm - (K0 + 3.0 * Y) @ Vp) @ Wm
    )
    return c2, c3


def casimir_eigenvalues(params: ModelParams, n: int) -> tuple[float, float]:
    """Closed-form Casimir pair of sector n; both vanish at n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k, a, b = params.k, params.a, params.b
    c2 = n * (n + a + b) * k * k
    return c2, -0.5 * (a + b) * k * c2


@dataclass(frozen=True)
class IrrepLabel:
    """Classification of the sector-n irrep and its even-subalgebra content."""

    n: int
    kind: str  # 'atypical-LWS' or 'non-LWS'
    blocks: tuple[tuple[float, float], ...]
    motion_integral_eigenvalue: float


def classify(params: ModelParams, n: int) -> IrrepLabel:
    """Irrep kind, (tau-like, q-like) block list and the eigenvalue
    (2n+a+b)^2 k^2 of the angular integral of motion."""
    w = weights_of(params, n)
    x_eig = (2 * n + params.a + params.b) ** 2 * params.k**2
    blocks = tuple((w.tau + FAMILIES[f][0], w.q + FAMILIES[f][1]) for f in _families(n))
    return IrrepLabel(n, "atypical-LWS" if n == 0 else "non-LWS", blocks, x_eig)
