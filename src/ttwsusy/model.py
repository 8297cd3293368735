"""Model parameters, exact eigenfunctions, spectrum and inner products.

The planar Hamiltonian treated here is the deformed oscillator

    H_k = -d_r^2 - (1/r) d_r - (1/r^2) d_phi^2 + omega^2 r^2
          + (k^2/r^2) [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)]

on 0 <= r < infinity, 0 < phi < pi/(2k).  Its bound states factor into
a Laguerre radial part in z = omega r^2 and a Jacobi angular part in
xi = -cos(2 k phi):

    Psi_{N,n} = C_{N,n} * (z/omega)^((n+(a+b)/2)k) L_N^((2n+a+b)k)(z) e^(-z/2)
                * cos^a(k phi) sin^b(k phi) P_n^((a-1/2, b-1/2))(xi)

with energies E_{N,n} = 2 omega [2N + (2n+a+b)k + 1].

``radial_levels`` and ``angular_parts`` are the one evaluator of these
factors and of their first two polar derivatives (also with the shifted
exponents that fermion states carry); ``eval_radial``/``eval_angular``,
the wavefunctions and ``states.FactorTable`` all go through them.
``radial_levels`` gives every radial level 0..N_max of one sector at
once, from one Laguerre recurrence pass per parameter.

Inner products use the measure r dr dphi.  Substituting z and xi maps
them onto Gauss-Laguerre x Gauss-Jacobi rules; the grid absorbs the
z^alpha e^-z and cos^2a sin^2b envelopes into its weights so that the
remaining integrand is polynomial and the quadrature exact.  Radial
reference exponents are chosen per angular sector (and per fermion
parity, which contributes a 1/z): see ``Grid.for_pair``.  A grid's
nodes are a radial column and an angular row, so fields sampled on
``(grid.r, grid.phi)`` have the grid's (m_rad, m_ang) shape, and its
weights are the outer product of 1-D radial and angular weights.
``Grid.inner`` sums two such fields on the 2-D grid.  Integrals of
separable functions need not: ``generators.project`` takes each entry
as sums of products of 1-D radial and angular Gauss sums, and the Gram
matrix of these eigenfunctions (``generators.wavefunction_gram``) is
one such projection of the zero-fermion states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import gauss_rule, jacobi, jacobi_deriv, laguerre_levels, log_gamma

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
    """Deformation k, coupling exponents a, b and oscillator frequency."""

    k: float
    a: float
    b: float
    omega: float = 1.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be positive for normalizable states")

    @property
    def warn_regime(self) -> bool:
        """True when a or b lies in (0, 1/2]: normalizable but the
        angular quadrature weight exponents drop below zero."""
        return min(self.a, self.b) <= 0.5

    @property
    def phi_max(self) -> float:
        return math.pi / (2.0 * self.k)

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


def radial_levels(params: ModelParams, N_max: int, n: int, r, one_fermion: bool = False):
    """(R, dR/dr, d2R/dr2) of the radial factor of sector n at every level
    N = 0..N_max, each stacked along a new first axis (shape
    (N_max + 1, *r.shape)): R = (z/omega)^p L_N^(alpha)(z) e^(-z/2) with
    z = omega r^2, alpha = (2n+a+b)k and p = alpha/2, less 1/2 for a
    one-fermion factor.  The Laguerre values and their two derivatives
    take one recurrence pass each.  Requires r > 0."""
    z = params.omega * r**2
    alpha = params.sector_alpha(n)
    p = 0.5 * alpha - (0.5 if one_fermion else 0.0)
    pref = np.exp(p * np.log(z) - 0.5 * z - 0.5 * alpha * math.log(params.omega))
    L = laguerre_levels(N_max, alpha, z)
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
    """(A, dA/dphi, d2A/dphi2) of the angular factor
    A = cos^a' sin^b' P_m^((a'-1/2, b'-1/2))(xi), a' = a + shift,
    b' = b + shift.  Requires 0 < phi < pi/(2k)."""
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
    if np.any(z < 0):
        raise ValueError("radial argument z = omega r^2 must be >= 0")
    inside = z > 0
    r = np.sqrt(np.where(inside, z, 1.0) / params.omega)
    out = np.where(inside, radial_levels(params, N, n, r)[0][N], 0.0)
    return out if out.ndim else float(out)


def eval_angular(params: ModelParams, n: int, phi):
    """Unnormalized angular factor cos^a sin^b P_n^((a-1/2, b-1/2))(xi)."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi <= 0) or np.any(phi >= params.phi_max):
        raise ValueError("phi must lie strictly inside (0, pi/(2k))")
    out = np.asarray(angular_parts(params, n, phi)[0])
    return out if out.ndim else float(out)


def norm_constant(params: ModelParams, N: int, n: int) -> float:
    """Normalization constant of Psi_{N,n}, with the (-1)^N phase.

    The phase makes the raising/lowering matrix elements of the radial
    sp(2,R) ladder positive.  Gamma-function ratios are evaluated in
    log space and exponentiated once.
    """
    if N < 0 or n < 0:
        raise ValueError("quantum numbers must be nonnegative")
    a, b, k = params.a, params.b, params.k
    alpha = params.sector_alpha(n)
    lg = log_gamma([N + 1.0, N + alpha + 1.0, n + 1.0, a + b + n, a + n + 0.5, b + n + 0.5])
    log_rad = 0.5 * (math.log(2.0) + (alpha + 1.0) * math.log(params.omega) + lg[0] - lg[1])
    log_ang = 0.5 * (math.log(2.0 * k) + lg[2] + math.log(2 * n + a + b) + lg[3] - lg[4] - lg[5])
    return (-1.0) ** N * math.exp(log_rad + log_ang)


def eval_wavefunction(params: ModelParams, N: int, n: int, r, phi):
    """Normalized eigenfunction Psi_{N,n}(r, phi) at interior points."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    z = params.omega * r**2
    out = norm_constant(params, N, n) * eval_radial(params, N, n, z) * eval_angular(params, n, phi)
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

    ``r``/``w_r`` hold the radial nodes/weights as (m_rad, 1) columns,
    ``phi``/``w_phi`` the angular ones as (1, m_ang) rows and ``w = w_r *
    w_phi`` the (m_rad, m_ang) weights, so ``f(..., grid.r, grid.phi)``
    samples any product of a radial and an angular factor on the whole
    grid while evaluating each factor on the 1-D nodes only.

    ``alpha`` is the radial reference exponent: sums against the plain
    weights are exact whenever the integrand has the form
    z^alpha e^-z * poly(z)  x  cos^2a sin^2b * poly(xi)
    (shifted angular envelopes contribute (1-xi^2)/4 polynomial
    factors and stay exact).
    """

    def __init__(self, params: ModelParams, alpha: float, m_rad: int = 80, m_ang: int = 80):
        if alpha <= -1.0:
            raise ValueError("radial reference exponent must exceed -1")
        self.params = params
        self.alpha = float(alpha)
        self.m_rad = m_rad
        self.m_ang = m_ang

        rad = _laguerre_rule(m_rad, self.alpha)
        ang = _jacobi_rule(m_ang, params.a - 0.5, params.b - 0.5)
        self.r = np.sqrt(rad.nodes / params.omega)[:, None]
        self.phi = (np.arccos(-ang.nodes) / (2.0 * params.k))[None, :]
        # plain weights: sum_i wz_i f(z_i) == integral f dz / (2 omega)
        # for f = z^alpha e^-z poly; computed in logs to dodge overflow
        wz = np.exp(np.log(rad.weights) + rad.nodes - self.alpha * np.log(rad.nodes)) / (2.0 * params.omega)
        wphi = ang.weights / (2.0 * params.k * (1.0 - ang.nodes) ** params.a * (1.0 + ang.nodes) ** params.b)
        self.w_r, self.w_phi = wz[:, None], wphi[None, :]
        self.w = self.w_r * self.w_phi
        if not np.all(np.isfinite(self.w)):
            raise ValueError(
                f"quadrature weights overflow at radial exponent alpha = {self.alpha:g}: "
                "the Gauss-Laguerre rule needs Gamma(alpha + 1), which is out of float range past alpha ~ 171"
            )

    @classmethod
    def for_pair(
        cls, params: ModelParams, n1: int, n2: int, m_rad: int = 80, m_ang: int = 80, *, odd: bool = False
    ) -> "Grid":
        """Grid exact for products of sector-n1 and sector-n2 states: radial
        exponent (n1 + n2 + a + b) k, less 1 with ``odd`` for the 1/z
        carried by a pair of one-fermion factors."""
        return cls(params, (n1 + n2 + params.a + params.b) * params.k - (1.0 if odd else 0.0), m_rad, m_ang)

    @classmethod
    def for_sector(cls, params: ModelParams, n: int, odd: bool = False, m_rad: int = 80, m_ang: int = 80) -> "Grid":
        """The pair grid of sector n with itself (``for_pair(n, n)``)."""
        return cls.for_pair(params, n, n, m_rad, m_ang, odd=odd)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Integral of f*g over fields sampled on this grid, shape
        (m_rad, m_ang) or (4, m_rad, m_ang); spinor components are summed."""
        f = np.asarray(f)
        g = np.asarray(g)
        if f.shape != g.shape or f.shape[-2:] != self.w.shape:
            raise ValueError("mismatched grids: fields must be sampled on this grid")
        return float(np.sum(self.w * f * g))
