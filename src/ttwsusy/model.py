"""Model parameters, exact eigenfunctions, spectrum and inner products.

The planar Hamiltonian treated here is the deformed oscillator

    H_k = -d_r^2 - (1/r) d_r - (1/r^2) d_phi^2 + omega^2 r^2
          + (k^2/r^2) [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)]

on 0 <= r < infinity, 0 < phi < pi/(2k).  omega is an exact scale: in
the oscillator radius rho = sqrt(omega) r, H_k / omega is the same
operator at omega = 1, so the numerical core, all of this module but
``ModelParams`` and the physical ``energy``, ``susy_energy`` and
``eval_wavefunction``, works in oscillator units and takes no omega.
There the bound states factor into a Laguerre radial
part in z = rho^2 and a Jacobi angular part in xi = -cos(2 k phi):

    Psi_{N,n} = (-1)^N c_N z^((n+(a+b)/2)k) L_N^((2n+a+b)k)(z) e^(-z/2)
                * N_ang cos^a(k phi) sin^b(k phi) P_n^((a-1/2, b-1/2))(xi),

normalized for the measure rho drho dphi, and the physical eigenfunction
is sqrt(omega) Psi_{N,n}(sqrt(omega) r, phi), with energies
E_{N,n} = 2 omega [2N + (2n+a+b)k + 1] (DLMF 18.3 norms).  Every r of
this module but ``eval_wavefunction``'s, and of the layers above it up
to ``verify``, is rho.

``radial_levels`` and ``angular_parts`` are the one evaluator of these
normalized factors, and so the one owner of every normalization, and
of their first two polar derivatives (also with the shifted exponents
that fermion states carry); ``eval_radial``/``eval_angular``, the
wavefunctions and ``states.FactorTable`` all go through them.
``radial_levels`` gives every radial level 0..N_max of one sector at
once, with or without the one-fermion z^(-1/2) or both, from one
Laguerre recurrence pass over the stacked parameters alpha, alpha + 1
and alpha + 2.

Inner products use the measure rho drho dphi.  Substituting z and xi maps
them onto Gauss-Laguerre x Gauss-Jacobi rules; the grid absorbs the
z^alpha e^-z and cos^2a sin^2b envelopes into its weights so that the
remaining integrand is polynomial and the quadrature exact.  A sector
pair has one grid, whose radial reference exponent is one below the
pair's, so that the 1/z of a pair of one-fermion factors stays
polynomial and a pair of zero- or two-fermion factors is z times a
polynomial: see ``Grid.for_pair``.  A grid holds
1-D arrays only: its nodes and weights are a radial column and an
angular row, so fields sampled on ``(grid.r, grid.phi)`` have the
(m_rad, m_ang) shape while each factor is evaluated on the 1-D nodes.
Integrals are never summed on the 2-D grid: ``generators.project``
takes each entry as sums of products of 1-D radial and angular Gauss
sums, and the Gram matrix of these eigenfunctions
(``generators.wavefunction_gram``) is one such projection of the
zero-fermion states.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import gauss_rule, jacobi, jacobi_deriv, laguerre_level_derivatives, laguerre_levels

__all__ = [
    "OMEGA_RANGE",
    "AngularRow",
    "Grid",
    "ModelParams",
    "Weights",
    "angular_parts",
    "energy",
    "eval_angular",
    "eval_radial",
    "eval_wavefunction",
    "radial_levels",
    "susy_energy",
    "weights_of",
]


# the numerical core and every residual take no omega: only the physical
# outputs scale with it, the energies as omega and the fields of
# ``eval_wavefunction`` as sqrt(omega), and ``eigenvalue-residual`` reads
# energy / omega, which loses bits once the energy is subnormal, below
# about 1e-308, and overflows above about 1e306; the range keeps a factor
# of about 1e150 from both ends
OMEGA_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class ModelParams:
    """Deformation k, coupling exponents a, b and oscillator frequency: finite
    reals > 0, omega within ``OMEGA_RANGE`` (the constructor raises
    ``ValueError`` on anything else)."""

    k: float
    a: float
    b: float
    omega: float = 1.0

    def __post_init__(self):
        for name in ("k", "a", "b", "omega"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not OMEGA_RANGE[0] <= self.omega <= OMEGA_RANGE[1]:
            raise ValueError(
                f"omega must lie in [{OMEGA_RANGE[0]:g}, {OMEGA_RANGE[1]:g}], got {self.omega!r}: the physical "
                "outputs scale with omega, and the range keeps them far inside the float range"
            )
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be positive for normalizable states")

    @property
    def phi_max(self) -> float:
        return math.pi / (2.0 * self.k)

    def require_interior(self, r=None, phi=None) -> None:
        """Raise ``ValueError`` unless every given r is finite and positive and
        every given phi lies strictly inside (0, pi/(2k)); NaN is neither."""
        if r is not None and not np.all(np.greater(r, 0) & np.less(r, math.inf)):
            raise ValueError("r must be finite and positive")
        if phi is not None and not np.all(np.greater(phi, 0) & np.less(phi, self.phi_max)):
            raise ValueError("phi must lie strictly inside (0, pi/(2k))")

    def sector_alpha(self, n: int) -> float:
        """Laguerre parameter (2n+a+b)k of the angular sector n."""
        return (2 * n + self.a + self.b) * self.k


@dataclass(frozen=True)
class Weights:
    """sp(2,R) lowest weight tau and so(2) charge q of a sector."""

    tau: float
    q: float


def energy(params: ModelParams, N: int, n: int) -> float:
    """E_{N,n} = 2 omega [2N + (2n+a+b)k + 1]."""
    return 2.0 * params.omega * (2 * N + params.sector_alpha(n) + 1.0)


def susy_energy(params: ModelParams, N: int, n: int) -> float:
    """Excitation energy above the ground state, 4 omega (N + n k)."""
    return energy(params, N, n) - energy(params, 0, 0)


def weights_of(params: ModelParams, n: int) -> Weights:
    """tau = (n + (a+b)/2) k + 1/2 and q = -[(a+b)k + 1]/2."""
    tau = (n + 0.5 * (params.a + params.b)) * params.k + 0.5
    q = -0.5 * ((params.a + params.b) * params.k + 1.0)
    return Weights(tau, q)


def _log_radial_norm(params: ModelParams, N: int, n: int) -> float:
    """log c_N = log sqrt(2 N! / Gamma(N+alpha+1)), alpha = (2n+a+b)k, in oscillator units."""
    return 0.5 * (math.log(2.0) + math.lgamma(N + 1.0) - math.lgamma(N + params.sector_alpha(n) + 1.0))


def _log_angular_norm(params: ModelParams, m: int, shift: int) -> float:
    """log N_ang of the angular factor m at exponents a' = a + shift, b' = b + shift."""
    a, b = params.a + shift, params.b + shift
    lg = [math.lgamma(x) for x in (m + 1.0, a + b + m, a + m + 0.5, b + m + 0.5)]
    return 0.5 * (math.log(2.0 * params.k * (2 * m + a + b)) + lg[0] + lg[1] - lg[2] - lg[3])


def radial_levels(params: ModelParams, N_max: int, n: int, r, one_fermion=False):
    """(R, dR/dr, d2R/dr2) of the normalized radial factor of sector n at
    every level N = 0..N_max, each stacked along a new first axis (shape
    (N_max + 1, *r.shape)), r the oscillator radius rho: R = c_N
    z^(alpha/2) L_N^(alpha)(z) e^(-z/2), z = r^2, alpha = (2n+a+b)k,
    times z^(-1/2) for a one-fermion factor.  ``one_fermion`` may also be
    a tuple of flags: then the result is one such triple per flag, in
    order, all from the one pass, since the flags differ only in the
    z^(-1/2) prefactor; each triple is bit for bit the one its flag alone
    gives.  log c_0 is in the prefactor's one exponent, so R is finite
    for every alpha; c_N / c_0 is the running product of sqrt(j / (j +
    alpha)), which keeps digits lgamma differences lose.  L and its two
    derivatives come from one recurrence pass over the three stacked
    parameters, by the shifts of ``laguerre_level_derivatives``.
    Requires r > 0; a non-finite r raises ``laguerre_levels``'
    ValueError."""
    z = r**2
    alpha = params.sector_alpha(n)
    # the pass rejects a non-finite z before any prefactor is formed
    L, L1, L2 = laguerre_levels(N_max, np.array([alpha, alpha + 1.0, alpha + 2.0]), z)
    Ld, Ldd = laguerre_level_derivatives(L1, L2)
    log_z, log_c0 = np.log(z), _log_radial_norm(params, 0, n)
    j = np.arange(1.0, N_max + 1.0)
    ratios = np.cumprod(np.r_[1.0, np.sqrt(j / (j + alpha))]).reshape(-1, *(1,) * z.ndim)
    out = []
    for flag in one_fermion if isinstance(one_fermion, tuple) else (one_fermion,):
        p = 0.5 * alpha - (0.5 if flag else 0.0)
        pref = np.exp(p * log_z - 0.5 * z + log_c0) * ratios
        g = p / z - 0.5
        R = pref * L
        Rz = pref * (g * L + Ld)
        Rzz = pref * ((g * g - p / z**2) * L + 2.0 * g * Ld + Ldd)
        # chain rule for z = r^2
        out.append((R, 2.0 * r * Rz, 2.0 * Rz + 4.0 * z * Rzz))
    return tuple(out) if isinstance(one_fermion, tuple) else out[0]


def angular_parts(params: ModelParams, m: int, phi, shift: int = 0):
    """(A, dA/dphi, d2A/dphi2) of the normalized angular factor
    A = N_ang cos^a' sin^b' P_m^((a'-1/2, b'-1/2))(xi), a' = a + shift,
    b' = b + shift; N_ang and the envelope share one exponent, so A is
    finite for every a, b.  Requires 0 < phi < pi/(2k)."""
    A_exp = params.a + shift
    B_exp = params.b + shift
    mu, nu = A_exp - 0.5, B_exp - 0.5
    k = params.k

    c = np.cos(k * phi)
    s = np.sin(k * phi)
    xi = np.clip(-np.cos(2.0 * k * phi), -1.0, 1.0)
    tan, cot = s / c, c / s

    env = np.exp(_log_angular_norm(params, m, shift) + A_exp * np.log(c) + B_exp * np.log(s))
    env1 = env * k * (B_exp * cot - A_exp * tan)
    env2 = env * ((k * (B_exp * cot - A_exp * tan)) ** 2 - k * k * (B_exp / s**2 + A_exp / c**2))

    P = jacobi(m, mu, nu, xi)
    Pd = jacobi_deriv(m, mu, nu, xi)
    # Pd is (m+mu+nu+1)/2 P_{m-1}^(mu+1, nu+1); differentiate that once more
    Pdd = 0.5 * (m + mu + nu + 1.0) * jacobi_deriv(m - 1, mu + 1.0, nu + 1.0, xi) if m >= 1 else np.zeros_like(xi)
    # chain rule for xi = -cos(2 k phi)
    xi1 = 4.0 * k * s * c
    xi2 = 4.0 * k * k * (c * c - s * s)
    Pphi = Pd * xi1
    Pphiphi = Pdd * xi1 * xi1 + Pd * xi2

    A0 = env * P
    A1 = env1 * P + env * Pphi
    A2 = env2 * P + 2.0 * env1 * Pphi + env * Pphiphi
    return A0, A1, A2


def eval_radial(params: ModelParams, N: int, n: int, z):
    """Unnormalized radial factor z^((n+(a+b)/2)k) L_N^(alpha)(z) e^(-z/2) of
    z = r^2, r the oscillator radius rho."""
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z < math.inf)):
        raise ValueError("radial argument z = rho^2 must be finite and >= 0")
    inside = z > 0
    r = np.sqrt(np.where(inside, z, 1.0))
    out = np.where(inside, radial_levels(params, N, n, r)[0][N] * math.exp(-_log_radial_norm(params, N, n)), 0.0)
    return out if out.ndim else float(out)


def eval_angular(params: ModelParams, n: int, phi):
    """Unnormalized angular factor cos^a sin^b P_n^((a-1/2, b-1/2))(xi)."""
    params.require_interior(phi=phi)
    out = angular_parts(params, n, np.asarray(phi, dtype=float))[0] * math.exp(-_log_angular_norm(params, n, 0))
    return out if out.ndim else float(out)


def eval_wavefunction(params: ModelParams, N: int, n: int, r, phi):
    """Normalized eigenfunction Psi_{N,n}(r, phi) = (-1)^N sqrt(omega)
    R(sqrt(omega) r) A at interior points of the physical radius r."""
    params.require_interior(r, phi)
    radial = radial_levels(params, N, n, math.sqrt(params.omega) * np.asarray(r, dtype=float))[0][N]
    out = (-1.0) ** N * math.sqrt(params.omega) * radial * angular_parts(params, n, np.asarray(phi, dtype=float))[0]
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Quadrature grids


def _read_only(value):
    """``value`` with every array in it, through tuples and lists, made
    read-only: the objects below are shared by every caller, so a write
    into one raises instead of changing what later callers read."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


# keyed on the exact exponents: a rule built for a rounded exponent would
# integrate against a weight the grid does not divide out
@lru_cache(maxsize=256)
def _laguerre_rule(order: int, alpha: float):
    rule = gauss_rule("gauss-laguerre", order, alpha=alpha)
    _read_only((rule.nodes, rule.weights, rule.log_weights))
    return rule


# the angular rule depends on (a, b) and the order alone, so the sets of
# a k scan at fixed (a, b), and sets that differ only in omega, share it
@lru_cache(maxsize=64)
def _jacobi_rule(order: int, alpha: float, beta: float):
    rule = gauss_rule("gauss-jacobi", order, alpha=alpha, beta=beta)
    _read_only((rule.nodes, rule.weights))
    return rule


class AngularRow:
    """The angles ``phi`` a set of factor tables samples, with ``w_phi``
    their quadrature weights on a grid (``None`` elsewhere), and the
    angular layer on them: ``value(key, compute)`` calls ``compute()``
    the first time ``key`` is asked for and gives its result, made
    read-only, from then on.  The states and generators layers keep
    here only 1-D functions of phi: the angular factors, the (cos phi,
    sin phi) pair of the one-fermion trig and the operators' term
    tables.
    ``_angular_row`` keeps one row of (1, m_ang) nodes per (params,
    m_ang) in each process, which every grid of the set shares, so each
    of these is evaluated once per set; a table on other points keeps a
    row of its own."""

    def __init__(self, phi, w_phi=None):
        self.phi = phi
        self.w_phi = w_phi
        self._values: dict = {}

    def value(self, key, compute):
        out = self._values.get(key)
        if out is None:
            out = self._values[key] = _read_only(compute())
        return out


@lru_cache(maxsize=32)
def _angular_row(params: ModelParams, m_ang: int) -> AngularRow:
    """The one ``AngularRow`` of (params, m_ang) in this process: the
    set's Gauss-Jacobi nodes and weights as read-only (1, m_ang) rows."""
    ang = _jacobi_rule(m_ang, params.a - 0.5, params.b - 0.5)
    phi = (np.arccos(-ang.nodes) / (2.0 * params.k))[None, :]
    # the angular envelope leaves float range at huge a or b; that is
    # Grid's ValueError, so numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wphi = ang.weights / (2.0 * params.k * (1.0 - ang.nodes) ** params.a * (1.0 + ang.nodes) ** params.b)
    return AngularRow(_read_only(phi), _read_only(wphi[None, :]))


class Grid:
    """Tensor quadrature grid for the measure r dr dphi, r the oscillator
    radius rho: its radial nodes are sqrt(z) for the Gauss-Laguerre nodes z.

    ``r``/``w_r`` hold the radial nodes/weights as (m_rad, 1) columns and
    ``phi``/``w_phi`` the angular ones as (1, m_ang) rows; the grid keeps
    no (m_rad, m_ang) array.  ``f(..., grid.r, grid.phi)`` samples any
    product of a radial and an angular factor on the whole grid while
    evaluating each factor on the 1-D nodes only.  Every array is
    read-only.  Only the radial exponent differs between the grids of one
    parameter set, so they share one ``angular``, the set's
    ``AngularRow``, whose ``phi`` and ``w_phi`` are the grid's and which
    keeps the set's angular functions of phi;
    ``for_pair`` gives one grid per (params, alpha, orders) in each
    process (params with its omega, which no grid reads, so sets that
    differ only in omega build equal grids of their own).

    ``alpha`` is the radial reference exponent: sums against the product
    weights w_r w_phi are exact whenever the integrand has the form
    z^alpha e^-z * poly(z)  x  cos^2a sin^2b * poly(xi)
    (shifted angular envelopes contribute (1-xi^2)/4 polynomial
    factors and stay exact).
    """

    def __init__(self, params: ModelParams, alpha: float, m_rad: int = 80, m_ang: int = 80):
        if not -1.0 < alpha < math.inf:
            raise ValueError("radial reference exponent must be finite and exceed -1")
        self.params = params
        self.alpha = float(alpha)
        self.m_rad = m_rad
        self.m_ang = m_ang

        rad = _laguerre_rule(m_rad, self.alpha)
        self.angular = _angular_row(params, m_ang)
        self.r = _read_only(np.sqrt(rad.nodes)[:, None])
        # plain weights: sum_i wz_i f(z_i) == integral f dz / 2 = integral f r dr
        # for f = z^alpha e^-z poly; from log weights, finite for every alpha
        wz = np.exp(rad.log_weights + rad.nodes - self.alpha * np.log(rad.nodes)) / 2.0
        self.w_r = _read_only(wz[:, None])
        self.phi, self.w_phi = self.angular.phi, self.angular.w_phi
        if not (np.all(np.isfinite(wz)) and np.all(np.isfinite(self.w_phi))):
            raise ValueError(
                f"quadrature weights are not finite at radial exponent alpha = {self.alpha:g} "
                f"and angular exponents a = {params.a:g}, b = {params.b:g}"
            )

    @classmethod
    def for_pair(cls, params: ModelParams, n1: int, n2: int, m_rad: int = 80, m_ang: int = 80) -> "Grid":
        """Grid exact for products of sector-n1 and sector-n2 states of
        either fermion parity: radial exponent (n1 + n2 + a + b) k - 1, one
        below the pair's for the 1/z of a pair of one-fermion factors; the
        one grid of its (params, alpha, orders) in this process.  Raises
        ``ValueError``, naming k, a, b and the pair, where (n1 + n2 + a + b) k
        is too small for the exponent to exceed -1 after rounding (about
        1.1e-16 and below)."""
        alpha = (n1 + n2 + params.a + params.b) * params.k - 1.0
        if not alpha > -1.0:
            raise ValueError(
                f"radial reference exponent (n1 + n2 + a + b) k - 1 of sector pair ({n1}, {n2}) rounds to {alpha!r} "
                f"at k = {params.k!r}, a = {params.a!r}, b = {params.b!r}: it must exceed -1"
            )
        return _grid(params, alpha, m_rad, m_ang)


# keyed on the exact exponent, as the rules are
@lru_cache(maxsize=256)
def _grid(params: ModelParams, alpha: float, m_rad: int, m_ang: int) -> Grid:
    return Grid(params, alpha, m_rad, m_ang)
