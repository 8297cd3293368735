"""Orthogonal polynomials, log-gamma and Gauss quadrature rules.

Everything downstream — wavefunction normalisation, inner products,
matrix elements of the superalgebra generators — reduces to evaluating
generalized Laguerre and Jacobi polynomials and integrating their
products against the natural weights.  This module provides the stable
three-term recurrences (``laguerre_levels`` returns every level
0..N of one Laguerre family from a single pass, and ``laguerre`` is
its last level), the parameter-shift derivative identities

    d/dz L_N^(alpha)(z)      = -L_{N-1}^(alpha+1)(z)
    d/dx P_n^(alpha,beta)(x) = (n+alpha+beta+1)/2 * P_{n-1}^(alpha+1,beta+1)(x)

``log_gamma`` (on ``math.lgamma``), and Gauss-Laguerre / Gauss-Jacobi
rules with their accuracy contract (an m-point rule integrates
polynomials of degree <= 2m-1 against its weight exactly, to
roundoff).  The rules are built here, in numpy: Golub-Welsch nodes
from the eigenvalues of the Jacobi matrix (taken as singular values of
the matrix shifted to be positive semidefinite, see ``_nodes``), one
Newton step, and weights from the derivative of the orthogonal
polynomial at the refined nodes.  Nothing here, and so nothing in the
package, imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "jacobi",
    "jacobi_deriv",
    "laguerre",
    "laguerre_deriv",
    "laguerre_levels",
    "log_gamma",
]


def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    if x.ndim == 0:
        return math.lgamma(x)
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def laguerre_levels(n_max: int, alpha: float, z):
    """Every level L_0^(alpha)(z), ..., L_{n_max}^(alpha)(z) from one forward
    recurrence pass, stacked along a new first axis: shape (n_max + 1, *z.shape)."""
    if n_max < 0:
        raise ValueError("laguerre requires n >= 0")
    if alpha <= -1.0:
        raise ValueError("laguerre requires alpha > -1")
    z = np.asarray(z, dtype=float)
    out = np.empty((n_max + 1, *z.shape))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + alpha - z
    for j in range(1, n_max):
        out[j + 1] = ((2 * j + alpha + 1 - z) * out[j] - (j + alpha) * out[j - 1]) / (j + 1)
    return out


def laguerre(n: int, alpha: float, z):
    """Generalized Laguerre polynomial L_n^(alpha)(z): the last level of
    ``laguerre_levels``."""
    p = laguerre_levels(n, alpha, z)[n]
    return p if p.ndim else float(p)


def laguerre_deriv(n: int, alpha: float, z):
    """dL_n^(alpha)/dz; identically zero for n = 0."""
    if n == 0:
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        return out if out.ndim else 0.0
    return -laguerre(n - 1, alpha + 1.0, z)


def jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) on [-1, 1] by recurrence."""
    if n < 0:
        raise ValueError("jacobi requires n >= 0")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("jacobi requires alpha, beta > -1")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("jacobi argument must lie in [-1, 1]")
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 0.5 * ((alpha + beta + 2.0) * x + (alpha - beta))
    for j in range(2, n + 1):
        c1 = 2.0 * j * (j + alpha + beta) * (2 * j + alpha + beta - 2)
        c2 = (2 * j + alpha + beta - 1) * (alpha * alpha - beta * beta)
        c3 = (2 * j + alpha + beta - 1) * (2 * j + alpha + beta) * (2 * j + alpha + beta - 2)
        c4 = 2.0 * (j + alpha - 1) * (j + beta - 1) * (2 * j + alpha + beta)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p if p.ndim else float(p)


def jacobi_deriv(n: int, alpha: float, beta: float, x):
    """dP_n^(alpha,beta)/dx; identically zero for n = 0."""
    if n == 0:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        return out if out.ndim else 0.0
    return 0.5 * (n + alpha + beta + 1.0) * jacobi(n - 1, alpha + 1.0, beta + 1.0, x)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an m-point Gauss rule.

    kind 'gauss-laguerre': weight z^alpha e^-z on (0, inf);
    kind 'gauss-jacobi':   weight (1-x)^alpha (1+x)^beta on (-1, 1).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    alpha: float
    beta: float
    order: int


def _laguerre_normalised(m: int, alpha: float, x: np.ndarray):
    """(q_m, q_m - q_{m-1}) with q_j = L_j^(alpha)(x) / binom(j + alpha, j), by
    the difference form of the recurrence (as in cephes' eval_genlaguerre),
    which keeps the Newton step on the nodes accurate."""
    d = -x / (alpha + 1.0)
    q = d + 1.0
    for k in range(1, m):
        d = (k * d - x * q) / (k + alpha + 1.0)
        q = d + q
    return q, d


def _nodes(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetric tridiagonal Jacobi matrix.

    The matrix less its Gershgorin lower bound s is positive
    semidefinite, so its eigenvalues are s plus the singular values of
    the shifted matrix.  Those come from LAPACK's gesdd, which for
    orders up to about 160 runs on the calling thread; ``eigvalsh``
    wakes OpenBLAS's thread pool from order 72 on, whose spinning
    threads cost more CPU than the rule and take the second core from
    a parallel run.  Above order 160 gesdd threads too, which costs
    speed only.  The Newton step of ``_refined`` polishes the nodes
    either way."""
    radius = np.zeros_like(diag)
    radius[1:] += np.abs(off)
    radius[:-1] += np.abs(off)
    shift = float(np.min(diag - radius))
    shifted = np.diag(diag - shift) + np.diag(off, -1) + np.diag(off, 1)
    return shift + np.linalg.svd(shifted, compute_uv=False)[::-1]


def _refined(x, p, dp, sigma, drift, c: float, mu0: float):
    """Refine the nodes x by one Newton step delta = -p/p' and return them
    with their Gauss weights, proportional to 1 / (sigma(x) p'(x)^2) and
    scaled to sum to the weight's mass mu0.

    p solves sigma p'' = drift p' - c p, so where p = -p' delta,
    p'' = p' (drift + c delta) / sigma, and p' at the refined nodes is
    p' (1 + delta (drift + c delta) / sigma) to second order in delta: no
    second recurrence pass is needed.  p' is divided by e^(midpoint of its
    log-magnitude range), a constant that the scaling cancels, so the
    weights cannot overflow."""
    delta = -p / dp
    dp = dp * (1.0 + (drift + c * delta) / sigma(x) * delta)
    x = x + delta
    log_dp = np.log(np.abs(dp))
    dp = dp / np.exp(0.5 * (log_dp.max() + log_dp.min()))
    w = 1.0 / (sigma(x) * dp * dp)
    return x, w * (mu0 / w.sum())


def _laguerre_rule(m: int, alpha: float):
    try:
        mu0 = math.gamma(alpha + 1.0)
    except OverflowError:
        mu0 = math.inf  # Grid reports the overflow, naming alpha
    k = np.arange(m, dtype=float)
    x = _nodes(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)))
    # L_m and L_m' are q_m and m (q_m - q_{m-1}) / x times one constant
    q, d = _laguerre_normalised(m, alpha, x)
    # x L'' = (x - alpha - 1) L' - m L
    return _refined(x, q, m * d / x, lambda y: y, x - alpha - 1.0, m, mu0)


def _jacobi_rule(m: int, a: float, b: float):
    if a + b < 169.0:
        mu0 = 2.0 ** (a + b + 1.0) * (math.gamma(a + 1.0) / math.gamma(a + b + 2.0)) * math.gamma(b + 1.0)
    else:  # Gamma(a + b + 2) is past the float range, the ratio need not be
        log_mu0 = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        mu0 = math.exp(log_mu0) if log_mu0 < 709.0 else math.inf
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = 2.0 / s * np.sqrt((k + a) * (k + b) / (s + 1.0))
    # the factor sqrt(k (k+a+b) / (s-1)) is 1 at k = 1, also where a + b = -1 makes it 0/0
    off[1:] *= np.sqrt(k[1:] * (k[1:] + a + b) / (s[1:] - 1.0))
    x = _nodes(diag, off)
    # (1 - x^2) P'' = (a - b + (a + b + 2) x) P' - m (m + a + b + 1) P
    x, w = _refined(
        x,
        jacobi(m, a, b, x),
        jacobi_deriv(m, a, b, x),
        lambda y: (1.0 - y) * (1.0 + y),
        a - b + (a + b + 2.0) * x,
        m * (m + a + b + 1.0),
        mu0,
    )
    if a == b:
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w


def gauss_rule(kind: str, order: int, alpha: float = 0.0, beta: float = 0.0) -> QuadratureRule:
    """Build the m-point Gauss rule for the requested weight function.

    The nodes are the eigenvalues of the Jacobi matrix of the weight's
    three-term recurrence (Golub & Welsch, Math. Comp. 23, 1969), refined
    by one Newton step; ``_nodes`` says why the eigenvalues come from an
    SVD.  The weights follow from p_m' at the refined nodes and the
    weight's mass mu0 (Gamma(alpha + 1), or 2^(alpha+beta+1) B(alpha + 1,
    beta + 1)).  Past the float range mu0, and with it every weight, is
    inf."""
    if order < 1:
        raise ValueError("gauss_rule requires order >= 1")
    if kind == "gauss-laguerre":
        if alpha <= -1.0:
            raise ValueError("gauss-laguerre weight requires alpha > -1")
        nodes, weights = _laguerre_rule(order, alpha)
    elif kind == "gauss-jacobi":
        if alpha <= -1.0 or beta <= -1.0:
            raise ValueError("gauss-jacobi weight requires alpha, beta > -1")
        nodes, weights = _jacobi_rule(order, alpha, beta)
    else:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    return QuadratureRule(nodes, weights, kind, float(alpha), float(beta), order)
