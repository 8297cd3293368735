"""Cartesian constructions for k = 1, 2, 3 and their polar counterparts.

k = 1: supersymmetrized Smorodinsky-Winternitz oscillator, separable in
cartesian coordinates.  k = 2: the rational BC2 model in the sector
0 < y < x.  k = 3: the three-particle Calogero-Marchioro-Wolfes model;
after the orthogonal coordinate and fermion-mode transformation

    u = (x1 - x2)/sqrt(2),  v = (x1 + x2 - 2 x3)/sqrt(6),  X = (x1+x2+x3)/sqrt(3)

its supersymmetrized Hamiltonian splits into a relative part, equal to
the polar k = 3 construction in (u, v) = (r cos phi, r sin phi), plus a
one-dimensional centre-of-mass superoscillator.

As in ``model`` and ``generators``, every coordinate here is in
oscillator units, the physical one times sqrt(omega), and no operator
takes omega: each Hs below is Hs / omega and each Q is Q / sqrt(omega),
the omega = 1 operator in these coordinates.

The checks apply both constructions to generic test spinors: catalog
basis states pulled back through the coordinate maps, plus random
polynomial x Gaussian spinors, so agreement is tested well beyond the
eigenstates.  A catalog state's polar bundle comes from the
``states.FactorTable`` of its sample points, and ``cart_from_polar``
turns it into the cartesian data; ``PolyGaussSpinor.sample`` gives
both forms from one set of cartesian partials, each a product of two
1-D factors from ``_gauss_monomials``, which also differentiates the
centre-of-mass factor.  Derivatives are analytic on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .model import ModelParams
from .states import StateBundle

__all__ = [
    "CartData",
    "PolyGaussSpinor",
    "bc2_super",
    "bc2_superpotential",
    "cart_from_polar",
    "cm_super",
    "cmw_mode_matrices",
    "cmw_rel_super",
    "cmw_super",
    "embed_product_values",
    "make_cmw_test_state",
    "random_polygauss",
    "sw_super",
    "sw_superpotential",
]

_BX, _BY = fock.annihilators()
_BDX, _BDY = _BX.T, _BY.T


def _comm(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Test spinors


@dataclass
class CartData:
    """Cartesian values/derivatives of a 4-component spinor: only the
    combinations the cartesian operators need (first derivatives and
    the full Laplacian)."""

    val: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    lap: np.ndarray


def cart_from_polar(bundle: StateBundle, r: np.ndarray, phi: np.ndarray) -> CartData:
    """The cartesian data of a spinor from its polar bundle at the points
    (r, phi), compact or not: the cartesian operators act on all four
    components, so this is where a table bundle takes its dense form."""
    bundle = bundle.dense()
    c, s = np.cos(phi), np.sin(phi)
    d_x = c * bundle.d_r - (s / r) * bundle.d_phi
    d_y = s * bundle.d_r + (c / r) * bundle.d_phi
    lap = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
    return CartData(bundle.val, d_x, d_y, lap)


def _gauss_monomials(degree: int, x: np.ndarray) -> np.ndarray:
    """x^i e for e = exp(-x^2/2) and i = 0..degree, with its first two
    x derivatives (i x^(i-1) - x^(i+1)) e and
    (i(i-1) x^(i-2) - (2i+1) x^i + x^(i+2)) e; shape
    (3, degree + 1, *x.shape).  The one evaluator of polynomial x Gaussian
    derivatives: the planar Gaussian factorizes into two of these."""
    x = np.asarray(x, dtype=float)
    j = np.arange(-2, degree + 3).reshape(-1, *[1] * x.ndim)
    # x^j for j = -2..degree+2; the negative powers are zero rows, not quotients, as x may be 0
    pw = np.where(j >= 0, x ** np.maximum(j, 0), 0.0)
    i, n = j[2:-2], degree + 1
    d1 = i * pw[1 : n + 1] - pw[3 : n + 3]
    d2 = i * (i - 1) * pw[:n] - (2 * i + 1) * pw[2 : n + 2] + pw[4:]
    return np.stack([pw[2 : n + 2], d1, d2]) * np.exp(-0.5 * x**2)


class PolyGaussSpinor:
    """Components q_s(x, y) exp(-(x^2+y^2)/2) with polynomial q_s;
    ``coeffs[s, i, j]`` multiplies x^i y^j in q_s."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def sample(self, r: np.ndarray, phi: np.ndarray) -> tuple[CartData, StateBundle]:
        """The spinor's cartesian data and polar bundle at the points (r, phi),
        both from one set of cartesian partials.  The Gaussian factorizes,
        so each partial contracts the coefficients with two 1-D factors."""
        c, s = np.cos(phi), np.sin(phi)
        x, y = r * c, r * s
        gx, gy = (_gauss_monomials(n - 1, t) for n, t in zip(self.coeffs.shape[1:], (x, y)))

        def partial(a, b):
            return np.einsum("sij,ip,jp->sp", self.coeffs, gx[a], gy[b])

        f, fx, fy, fxx, fxy, fyy = (partial(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        cart = CartData(f, fx, fy, fxx + fyy)
        bundle = StateBundle(
            f,
            c * fx + s * fy,
            c * c * fxx + 2 * c * s * fxy + s * s * fyy,
            -y * fx + x * fy,
            y * y * fxx - 2 * x * y * fxy + x * x * fyy - x * fx - y * fy,
        )
        return cart, bundle


def random_polygauss(rng) -> PolyGaussSpinor:
    """A four-component ``PolyGaussSpinor`` of degree 3 in x and in y, its
    coefficients uniform in [-1, 1), drawn by
    ``rng.uniform(low, high, size)``: any generator with numpy's ``uniform``
    method, a numpy ``Generator`` or the suite's own seeded stream."""
    return PolyGaussSpinor(rng.uniform(-1.0, 1.0, size=(4, 4, 4)))


# ---------------------------------------------------------------------------
# k = 1: separable oscillator with inverse-square barriers


def sw_superpotential(params: ModelParams, x, y):
    return -params.a * np.log(np.abs(x)) - params.b * np.log(np.abs(y))


def sw_super(params: ModelParams, cart: CartData, x: np.ndarray, y: np.ndarray):
    """Cartesian supersymmetrized Hamiltonian and supercharge at k = 1.

    Hs / omega = -lap + r^2 + a^2/x^2 + b^2/y^2 + 2 (n_x + n_y)
                 + (a/x^2)[bdag_x, b_x] + (b/y^2)[bdag_y, b_y] - 2 (a+b+1)
    Q / sqrt(omega) = (-d_x + x - a/x) b_x + (-d_y + y - b/y) b_y
    """
    if params.k != 1.0:
        raise ValueError("sw_super requires k = 1")
    if not np.all((x > 0) & (x < math.inf) & (y > 0) & (y < math.inf)):
        raise ValueError("axis points are outside the domain")
    a, b = params.a, params.b
    scal = -cart.lap + ((x**2 + y**2) + a * a / x**2 + b * b / y**2 - 2.0 * (a + b + 1.0)) * cart.val
    ferm = (
        2.0 * ((_BDX @ _BX + _BDY @ _BY) @ cart.val)
        + (a / x**2) * (_comm(_BDX, _BX) @ cart.val)
        + (b / y**2) * (_comm(_BDY, _BY) @ cart.val)
    )
    h = scal + ferm
    q = _BX @ (-cart.d_x + (x - a / x) * cart.val) + _BY @ (-cart.d_y + (y - b / y) * cart.val)
    return h, q


# ---------------------------------------------------------------------------
# k = 2: rational BC2 model on the sector 0 < y < x


def bc2_superpotential(params: ModelParams, x, y):
    return -params.a * (np.log(np.abs(x - y)) + np.log(np.abs(x + y))) - params.b * (
        np.log(np.abs(x)) + np.log(np.abs(y))
    )


def bc2_super(params: ModelParams, cart: CartData, x: np.ndarray, y: np.ndarray):
    """Cartesian Hs / omega and Q / sqrt(omega) at k = 2: -lap + r^2 plus the
    pair/axis terms, and (-d_x + x + dW/dx) b_x + (-d_y + y + dW/dy) b_y."""
    if params.k != 2.0:
        raise ValueError("bc2_super requires k = 2")
    if not np.all((y > 0) & (y < x) & (x < math.inf)):
        raise ValueError("points must satisfy 0 < y < x")
    a, b = params.a, params.b
    xm, xp = x - y, x + y
    scal = -cart.lap + (
        (x**2 + y**2)
        + 2.0 * a * a * (1.0 / xm**2 + 1.0 / xp**2)
        + b * b * (1.0 / x**2 + 1.0 / y**2)
        - 2.0 * (2.0 * a + 2.0 * b + 1.0)
    ) * cart.val
    cmm = _comm(_BDX - _BDY, _BX - _BY)
    cpp = _comm(_BDX + _BDY, _BX + _BY)
    ferm = (
        2.0 * ((_BDX @ _BX + _BDY @ _BY) @ cart.val)
        + a * ((1.0 / xm**2) * (cmm @ cart.val) + (1.0 / xp**2) * (cpp @ cart.val))
        + b * ((1.0 / x**2) * (_comm(_BDX, _BX) @ cart.val) + (1.0 / y**2) * (_comm(_BDY, _BY) @ cart.val))
    )
    h = scal + ferm
    q = _BX @ (-cart.d_x + (x - a * (1.0 / xm + 1.0 / xp) - b / x) * cart.val) + _BY @ (
        -cart.d_y + (y + a * (1.0 / xm - 1.0 / xp) - b / y) * cart.val
    )
    return h, q


# ---------------------------------------------------------------------------
# k = 3: three-particle model with three-body terms

# orthogonal map (x1, x2, x3) -> (u, v, X); rows are the mode coefficients
_U3 = np.array(
    [
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
        [1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)],
        [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
    ]
)

_B3 = fock.jordan_wigner(3)
_BD3 = [m.T for m in _B3]
_C3 = [sum(_U3[al, i] * _B3[i] for i in range(3)) for al in range(3)]  # c_u, c_v, c_X
_CD3 = [m.T for m in _C3]


def cmw_mode_matrices():
    """(U, particle-mode annihilators, transformed-mode annihilators)."""
    return _U3.copy(), [m.copy() for m in _B3], [m.copy() for m in _C3]


@dataclass
class Cmw3Data:
    """8-component test function of (u, v, X) with the derivative
    combinations needed by the three-particle operators."""

    val: np.ndarray
    d_u: np.ndarray
    d_v: np.ndarray
    d_X: np.ndarray
    lap2: np.ndarray  # d_uu + d_vv
    d_XX: np.ndarray
    u: np.ndarray
    v: np.ndarray
    X: np.ndarray

    @property
    def particles(self) -> np.ndarray:
        """(3, npts) particle coordinates x_i = (U^T (u,v,X))_i."""
        return _U3.T @ np.stack([self.u, self.v, self.X])

    def d_particle(self, i: int) -> np.ndarray:
        return _U3[0, i] * self.d_u + _U3[1, i] * self.d_v + _U3[2, i] * self.d_X


# Vacuum images of the eight transformed-mode creator monomials
# {1, cdag_u, cdag_v, cdag_u cdag_v} x {1, cdag_X}, ordered 4*t + s.  The map
# e_s x e_t -> monomial vector intertwines every operator word in the (u, v)
# modes with its 4-dim counterpart as long as the cm factor stays in its
# vacuum (t = 0).
_MONOMIALS = [
    m @ (np.linalg.matrix_power(_CD3[2], t) @ np.eye(8)[0])
    for t in (0, 1)
    for m in (np.eye(8), _CD3[0], _CD3[1], _CD3[0] @ _CD3[1])
]


def embed_product_values(rel_vals: np.ndarray, cm_vals) -> np.ndarray:
    """Map a (4, npts) relative spinor times a (2, npts) cm spinor into
    the (8, npts) particle-mode basis."""
    out = np.zeros((8, rel_vals.shape[1]))
    for t in (0, 1):
        for s in range(4):
            out += np.outer(_MONOMIALS[4 * t + s], rel_vals[s] * cm_vals[t])
    return out


def make_cmw_test_state(
    rel: StateBundle, cm_coeffs: np.ndarray, params: ModelParams, r: np.ndarray, phi: np.ndarray, X: np.ndarray
) -> Cmw3Data:
    """Product test state (rel spinor in (u, v)) x (cm spinor in X),
    written in the particle-mode occupation basis.

    ``rel`` is the relative spinor's polar bundle at (r, phi), compact or
    not (see ``cart_from_polar``): 4 components over the transformed-mode
    monomials {1, cdag_u, cdag_v, cdag_u cdag_v}; ``cm_coeffs`` has shape
    (2, D) for the cm monomials {1, cdag_X}.
    """
    u, v = r * np.cos(phi), r * np.sin(phi)
    cart = cart_from_polar(rel, r, phi)
    cm_coeffs = np.asarray(cm_coeffs, dtype=float)
    # the cm spinor and its first two X derivatives, each as (2, npts) values
    chi, chi_X, chi_XX = cm_coeffs @ _gauss_monomials(cm_coeffs.shape[1] - 1, X)
    return Cmw3Data(
        val=embed_product_values(cart.val, chi),
        d_u=embed_product_values(cart.d_x, chi),
        d_v=embed_product_values(cart.d_y, chi),
        d_X=embed_product_values(cart.val, chi_X),
        lap2=embed_product_values(cart.lap, chi),
        d_XX=embed_product_values(cart.val, chi_XX),
        u=u,
        v=v,
        X=X,
    )


def cmw_super(params: ModelParams, data: Cmw3Data):
    """Three-particle supersymmetrized Hamiltonian and supercharge, Hs / omega
    = -lap + |x|^2 + pair and three-body terms, and Q / sqrt(omega).

    Pairwise coordinates are x_ij = x_i - x_j and the three-body ones
    y_ij = x_i + x_j - 2 x_m (m the remaining index); the particle
    coordinates must be finite and all of these nonzero at the sample
    points.
    """
    a, b = params.a, params.b
    xs = data.particles
    if not np.all(np.isfinite(xs)):
        raise ValueError("coincidence points are outside the domain")
    # the ordered pairs i != j; the remaining index is m = 3 - i - j
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    x_ij = {(i, j): xs[i] - xs[j] for i, j in pairs}
    y_ij = {(i, j): xs[i] + xs[j] - 2.0 * xs[3 - i - j] for i, j in pairs}
    if not all(np.all(np.abs(c) >= 1e-12) for c in [*x_ij.values(), *y_ij.values()]):
        raise ValueError("coincidence points are outside the domain")

    lap3 = data.lap2 + data.d_XX
    scal = (
        -lap3
        + (
            np.sum(xs**2, axis=0)
            + a * a * sum(1.0 / x_ij[ij] ** 2 for ij in pairs)
            + 3.0 * b * b * sum(1.0 / y_ij[ij] ** 2 for ij in pairs)
            - 3.0 * (2.0 * a + 2.0 * b + 1.0)
        )
        * data.val
    )
    ferm = 2.0 * (sum(_BD3[i] @ _B3[i] for i in range(3)) @ data.val)
    for i, j in pairs:
        ferm += a / x_ij[i, j] ** 2 * (_comm(_BD3[i], _B3[i] - _B3[j]) @ data.val)
    for i, j in pairs:
        m = 3 - i - j
        op = _comm(_BD3[i], _B3[i] + _B3[j] - 2.0 * _B3[m]) - _comm(_BD3[m], _B3[i] + _B3[j] - 2.0 * _B3[m])
        ferm += b / y_ij[i, j] ** 2 * (op @ data.val)
    h = scal + ferm

    q = np.zeros_like(data.val)
    for i in range(3):
        others = [j for j in range(3) if j != i]
        coeff = xs[i] - a * sum(1.0 / x_ij[i, j] for j in others)
        coeff = coeff - b * (
            sum(1.0 / y_ij[i, j] for j in others) - (1.0 / y_ij[others[0], others[1]] + 1.0 / y_ij[others[1], others[0]])
        )
        q += _B3[i] @ (-data.d_particle(i) + coeff * data.val)
    return h, q


def cmw_rel_super(params: ModelParams, data: Cmw3Data):
    """Relative part in the transformed modes: the six-center angular
    form of Hs / omega plus the planar Q / sqrt(omega), as 8-dim operators."""
    a, b = params.a, params.b
    u, v = data.u, data.v
    r2 = u**2 + v**2
    r = np.sqrt(r2)
    phi = np.arctan2(v, u)

    cu, cv = _C3[0], _C3[1]
    cdu, cdv = _CD3[0], _CD3[1]
    sqrt3 = math.sqrt(3.0)
    cos_ops = [
        _comm(cdu, cu),
        0.25 * _comm(sqrt3 * cdv - cdu, sqrt3 * cv - cu),
        0.25 * _comm(sqrt3 * cdv + cdu, sqrt3 * cv + cu),
    ]
    sin_ops = [
        _comm(cdv, cv),
        0.25 * _comm(sqrt3 * cdu + cdv, sqrt3 * cu + cv),
        0.25 * _comm(sqrt3 * cdu - cdv, sqrt3 * cu - cv),
    ]
    h = -data.lap2 + r2 * data.val
    for jj, (mc, ms) in enumerate(zip(cos_ops, sin_ops)):
        ang = phi - 2.0 * math.pi * jj / 3.0
        h += (a / (r2 * np.cos(ang) ** 2)) * (a * data.val + mc @ data.val)
        h += (b / (r2 * np.sin(ang) ** 2)) * (b * data.val + ms @ data.val)
    h += 2.0 * ((cdu @ cu + cdv @ cv) @ data.val) - 2.0 * (3.0 * a + 3.0 * b + 1.0) * data.val

    c, s = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    c3, s3 = np.cos(3.0 * phi), np.sin(3.0 * phi)
    d_r = c * data.d_u + s * data.d_v
    d_phi = -v * data.d_u + u * data.d_v
    qx = -c * d_r + (s / r) * d_phi + (r * c - (3.0 * a / r) * c2 / c3 - (3.0 * b / r) * s2 / s3) * data.val
    qy = -s * d_r - (c / r) * d_phi + (r * s + (3.0 * a / r) * s2 / c3 - (3.0 * b / r) * c2 / s3) * data.val
    q = cu @ qx + cv @ qy
    return h, q


def cm_super(params: ModelParams, data: Cmw3Data):
    """Centre-of-mass superoscillator Hs / omega = -d_X^2 + X^2 + 2 (n_X - 1/2)
    and its Q / sqrt(omega) = (-d_X + X) c_X, as 8-dim operators in the
    transformed modes."""
    cX, cdX = _C3[2], _CD3[2]
    h = -data.d_XX + data.X**2 * data.val + 2.0 * ((cdX @ cX) @ data.val) - data.val
    q = cX @ (-data.d_X + data.X * data.val)
    return h, q
