"""Model parameters, exact eigenfunctions, spectrum and inner products.

The planar Hamiltonian treated here is the deformed oscillator

    H_k = -d_r^2 - (1/r) d_r - (1/r^2) d_phi^2 + omega^2 r^2
          + (k^2/r^2) [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)]

on 0 <= r < infinity, 0 < phi < pi/(2k).  Its bound states factor into
a Laguerre radial part in z = omega r^2 and a Jacobi angular part in
xi = -cos(2 k phi):

    Psi_{N,n} = (-1)^N c_N (z/omega)^((n+(a+b)/2)k) L_N^((2n+a+b)k)(z) e^(-z/2)
                * N_ang cos^a(k phi) sin^b(k phi) P_n^((a-1/2, b-1/2))(xi)

with energies E_{N,n} = 2 omega [2N + (2n+a+b)k + 1] (DLMF 18.3 norms).

``radial_levels`` and ``angular_parts`` are the one evaluator of these
normalized factors, and so the one owner of every normalization, and
of their first two polar derivatives (also with the shifted exponents
that fermion states carry); ``eval_radial``/``eval_angular``, the
wavefunctions and ``states.FactorTable`` all go through them.
``radial_levels`` gives every radial level 0..N_max of one sector at
once, from one Laguerre recurrence pass per parameter.

Inner products use the measure r dr dphi.  Substituting z and xi maps
them onto Gauss-Laguerre x Gauss-Jacobi rules; the grid absorbs the
z^alpha e^-z and cos^2a sin^2b envelopes into its weights so that the
remaining integrand is polynomial and the quadrature exact.  Radial
reference exponents are chosen per angular sector (and per fermion
parity, which contributes a 1/z): see ``Grid.for_pair``.  A grid holds
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

from .specfun import gauss_rule, jacobi, jacobi_deriv, laguerre_levels

__all__ = [
    "Grid",
    "ModelParams",
    "Weights",
    "angular_parts",
    "energy",
    "eval_angular",
    "eval_radial",
    "eval_wavefunction",
    "norm_constant",
    "radial_levels",
    "susy_energy",
    "weights_of",
]


@dataclass(frozen=True)
class ModelParams:
    """Deformation k, coupling exponents a, b and oscillator frequency: finite
    reals > 0 (the constructor raises ``ValueError`` on anything else)."""

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
    """log c_N = log sqrt(2 omega^(alpha+1) N! / Gamma(N+alpha+1)), alpha = (2n+a+b)k."""
    alpha = params.sector_alpha(n)
    log_mass = math.log(2.0) + (alpha + 1.0) * math.log(params.omega)
    return 0.5 * (log_mass + math.lgamma(N + 1.0) - math.lgamma(N + alpha + 1.0))


def _log_angular_norm(params: ModelParams, m: int, shift: int) -> float:
    """log N_ang of the angular factor m at exponents a' = a + shift, b' = b + shift."""
    a, b = params.a + shift, params.b + shift
    lg = [math.lgamma(x) for x in (m + 1.0, a + b + m, a + m + 0.5, b + m + 0.5)]
    return 0.5 * (math.log(2.0 * params.k * (2 * m + a + b)) + lg[0] + lg[1] - lg[2] - lg[3])


def radial_levels(params: ModelParams, N_max: int, n: int, r, one_fermion: bool = False):
    """(R, dR/dr, d2R/dr2) of the normalized radial factor of sector n at
    every level N = 0..N_max, each stacked along a new first axis (shape
    (N_max + 1, *r.shape)): R = c_N (z/omega)^(alpha/2) L_N^(alpha)(z)
    e^(-z/2), z = omega r^2, alpha = (2n+a+b)k, times z^(-1/2) for a
    one-fermion factor.  log c_0 is in the prefactor's one exponent, so R
    is finite for every alpha; c_N / c_0 is the running product of
    sqrt(j / (j + alpha)), which keeps digits lgamma differences lose.
    L and its two derivatives take one recurrence pass each.  Requires
    r > 0; a non-finite r raises ``laguerre_levels``' ValueError."""
    z = params.omega * r**2
    alpha = params.sector_alpha(n)
    p = 0.5 * alpha - (0.5 if one_fermion else 0.0)
    # the first pass rejects a non-finite z before the prefactor is formed
    L = laguerre_levels(N_max, alpha, z)
    pref = np.exp(p * np.log(z) - 0.5 * z - 0.5 * alpha * math.log(params.omega) + _log_radial_norm(params, 0, n))
    j = np.arange(1.0, N_max + 1.0)
    pref = pref * np.cumprod(np.r_[1.0, np.sqrt(j / (j + alpha))]).reshape(-1, *(1,) * z.ndim)
    # d/dz L_N^(alpha) = -L_{N-1}^(alpha+1), d2/dz2 L_N^(alpha) = L_{N-2}^(alpha+2)
    Ld, Ldd = np.zeros_like(L), np.zeros_like(L)
    if N_max >= 1:
        Ld[1:] = -laguerre_levels(N_max - 1, alpha + 1.0, z)
    if N_max >= 2:
        Ldd[2:] = laguerre_levels(N_max - 2, alpha + 2.0, z)
    g = p / z - 0.5
    R = pref * L
    Rz = pref * (g * L + Ld)
    Rzz = pref * ((g * g - p / z**2) * L + 2.0 * g * Ld + Ldd)
    # chain rule for z = omega r^2
    return R, 2.0 * params.omega * r * Rz, 2.0 * params.omega * Rz + 4.0 * params.omega * z * Rzz


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
    """Unnormalized radial factor (z/omega)^((n+(a+b)/2)k) L_N^(alpha)(z) e^(-z/2)."""
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z < math.inf)):
        raise ValueError("radial argument z = omega r^2 must be finite and >= 0")
    inside = z > 0
    r = np.sqrt(np.where(inside, z, 1.0) / params.omega)
    out = np.where(inside, radial_levels(params, N, n, r)[0][N] * math.exp(-_log_radial_norm(params, N, n)), 0.0)
    return out if out.ndim else float(out)


def eval_angular(params: ModelParams, n: int, phi):
    """Unnormalized angular factor cos^a sin^b P_n^((a-1/2, b-1/2))(xi)."""
    params.require_interior(phi=phi)
    out = angular_parts(params, n, np.asarray(phi, dtype=float))[0] * math.exp(-_log_angular_norm(params, n, 0))
    return out if out.ndim else float(out)


def norm_constant(params: ModelParams, N: int, n: int) -> float:
    """(-1)^N c_N N_ang, Psi_{N,n} over ``eval_radial`` x ``eval_angular``: the
    phase makes the matrix elements of the radial sp(2,R) ladder positive."""
    if N < 0 or n < 0:
        raise ValueError("quantum numbers must be nonnegative")
    return (-1.0) ** N * math.exp(_log_radial_norm(params, N, n) + _log_angular_norm(params, n, 0))


def eval_wavefunction(params: ModelParams, N: int, n: int, r, phi):
    """Normalized eigenfunction Psi_{N,n}(r, phi) = (-1)^N R A at interior points."""
    params.require_interior(r, phi)
    radial = radial_levels(params, N, n, np.asarray(r, dtype=float))[0][N]
    out = (-1.0) ** N * radial * angular_parts(params, n, np.asarray(phi, dtype=float))[0]
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Quadrature grids


# keyed on the exact exponents: a rule built for a rounded exponent would
# integrate against a weight the grid does not divide out
@lru_cache(maxsize=256)
def _laguerre_rule(order: int, alpha: float):
    return gauss_rule("gauss-laguerre", order, alpha=alpha)


@lru_cache(maxsize=64)
def _jacobi_rule(order: int, alpha: float, beta: float):
    return gauss_rule("gauss-jacobi", order, alpha=alpha, beta=beta)


class Grid:
    """Tensor quadrature grid for the measure r dr dphi.

    ``r``/``w_r`` hold the radial nodes/weights as (m_rad, 1) columns and
    ``phi``/``w_phi`` the angular ones as (1, m_ang) rows; the grid keeps
    no (m_rad, m_ang) array.  ``f(..., grid.r, grid.phi)`` samples any
    product of a radial and an angular factor on the whole grid while
    evaluating each factor on the 1-D nodes only.

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
        ang = _jacobi_rule(m_ang, params.a - 0.5, params.b - 0.5)
        self.r = np.sqrt(rad.nodes / params.omega)[:, None]
        self.phi = (np.arccos(-ang.nodes) / (2.0 * params.k))[None, :]
        # plain weights: sum_i wz_i f(z_i) == integral f dz / (2 omega)
        # for f = z^alpha e^-z poly; from log weights, finite for every alpha
        wz = np.exp(rad.log_weights + rad.nodes - self.alpha * np.log(rad.nodes)) / (2.0 * params.omega)
        # the angular envelope leaves float range at huge a or b; that is
        # the ValueError below, so numpy need not warn of it first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            wphi = ang.weights / (2.0 * params.k * (1.0 - ang.nodes) ** params.a * (1.0 + ang.nodes) ** params.b)
        self.w_r, self.w_phi = wz[:, None], wphi[None, :]
        if not (np.all(np.isfinite(wz)) and np.all(np.isfinite(wphi))):
            raise ValueError(
                f"quadrature weights are not finite at radial exponent alpha = {self.alpha:g} "
                f"and angular exponents a = {params.a:g}, b = {params.b:g}"
            )

    @classmethod
    def for_pair(
        cls, params: ModelParams, n1: int, n2: int, m_rad: int = 80, m_ang: int = 80, *, odd: bool = False
    ) -> "Grid":
        """Grid exact for products of sector-n1 and sector-n2 states: radial
        exponent (n1 + n2 + a + b) k, less 1 with ``odd`` for the 1/z
        carried by a pair of one-fermion factors."""
        return cls(params, (n1 + n2 + params.a + params.b) * params.k - (1.0 if odd else 0.0), m_rad, m_ang)
