"""Cartesian constructions for k = 1, 2, 3 and their polar counterparts.

k = 1: supersymmetrized Smorodinsky-Winternitz oscillator, separable in
cartesian coordinates.  k = 2: the rational BC2 model in the sector
0 < y < x.  k = 3: the three-particle Calogero-Marchioro-Wolfes model;
after the orthogonal coordinate and fermion-mode transformation

    u = (x1 - x2)/sqrt(2),  v = (x1 + x2 - 2 x3)/sqrt(6),  X = (x1+x2+x3)/sqrt(3)

its supersymmetrized Hamiltonian splits into a relative part, equal to
the polar k = 3 construction in (u, v) = (r cos phi, r sin phi), plus a
one-dimensional centre-of-mass superoscillator.

The checks apply both constructions to generic test spinors: catalog
basis states pulled back through the coordinate maps, plus random
polynomial x Gaussian spinors, so agreement is tested well beyond the
eigenstates.  Derivatives are analytic on both sides; second
derivatives only ever enter through the Laplacian, which is computed
in polar form and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .model import ModelParams
from .states import CatalogState, StateBundle, state_bundle

__all__ = [
    "CartData",
    "CatalogTestSpinor",
    "PolyGaussSpinor",
    "bc2_super",
    "bc2_superpotential",
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
    c, s = np.cos(phi), np.sin(phi)
    d_x = c * bundle.d_r - (s / r) * bundle.d_phi
    d_y = s * bundle.d_r + (c / r) * bundle.d_phi
    lap = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
    return CartData(bundle.val, d_x, d_y, lap)


class CatalogTestSpinor:
    """Catalog state used as a test spinor (polar derivatives native)."""

    def __init__(self, state: CatalogState):
        self.state = state

    def polar_bundle(self, params: ModelParams, r, phi) -> StateBundle:
        return state_bundle(self.state, params, r, phi)

    def cart_data(self, params: ModelParams, r, phi) -> CartData:
        return cart_from_polar(self.polar_bundle(params, r, phi), r, phi)


def _poly2_parts(c: np.ndarray, x: np.ndarray, y: np.ndarray):
    dx = np.arange(1, c.shape[0])[:, None] * c[1:, :]
    dy = np.arange(1, c.shape[1])[None, :] * c[:, 1:]
    dxx = np.arange(1, dx.shape[0])[:, None] * dx[1:, :] if dx.shape[0] > 1 else np.zeros((1, c.shape[1]))
    dyy = np.arange(1, dy.shape[1])[None, :] * dy[:, 1:] if dy.shape[1] > 1 else np.zeros((c.shape[0], 1))
    dxy = np.arange(1, dx.shape[1])[None, :] * dx[:, 1:] if dx.shape[1] > 1 else np.zeros((1, 1))

    def ev(cc):
        xp = x[None, :] ** np.arange(cc.shape[0])[:, None]
        yp = y[None, :] ** np.arange(cc.shape[1])[:, None]
        return np.einsum("ij,ip,jp->p", cc, xp, yp)

    return ev(c), ev(dx), ev(dy), ev(dxx), ev(dxy), ev(dyy)


class PolyGaussSpinor:
    """Components q_s(x, y) exp(-omega (x^2+y^2)/2) with polynomial q_s."""

    def __init__(self, coeffs: np.ndarray, omega: float):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.omega = float(omega)

    def _parts(self, x, y):
        w = self.omega
        e = np.exp(-0.5 * w * (x**2 + y**2))
        out = []
        for c in self.coeffs:
            q, qx, qy, qxx, qxy, qyy = _poly2_parts(c, x, y)
            f = q * e
            fx = (qx - w * x * q) * e
            fy = (qy - w * y * q) * e
            fxx = (qxx - 2 * w * x * qx - w * q + w * w * x * x * q) * e
            fyy = (qyy - 2 * w * y * qy - w * q + w * w * y * y * q) * e
            fxy = (qxy - w * x * qy - w * y * qx + w * w * x * y * q) * e
            out.append((f, fx, fy, fxx, fxy, fyy))
        return out

    def cart_data(self, params: ModelParams, r, phi) -> CartData:
        x, y = r * np.cos(phi), r * np.sin(phi)
        parts = self._parts(x, y)
        val = np.stack([p[0] for p in parts])
        d_x = np.stack([p[1] for p in parts])
        d_y = np.stack([p[2] for p in parts])
        lap = np.stack([p[3] + p[5] for p in parts])
        return CartData(val, d_x, d_y, lap)

    def polar_bundle(self, params: ModelParams, r, phi) -> StateBundle:
        c, s = np.cos(phi), np.sin(phi)
        x, y = r * c, r * s
        parts = self._parts(x, y)
        val, d_r, d_rr, d_p, d_pp = (np.zeros((4, r.size)) for _ in range(5))
        for i, (f, fx, fy, fxx, fxy, fyy) in enumerate(parts):
            val[i] = f
            d_r[i] = c * fx + s * fy
            d_p[i] = -y * fx + x * fy
            d_rr[i] = c * c * fxx + 2 * c * s * fxy + s * s * fyy
            d_pp[i] = y * y * fxx - 2 * x * y * fxy + x * x * fyy - x * fx - y * fy
        return StateBundle(val, d_r, d_rr, d_p, d_pp)


def random_polygauss(rng: np.random.Generator, omega: float, degree: int = 3, components: int = 4) -> PolyGaussSpinor:
    return PolyGaussSpinor(rng.uniform(-1.0, 1.0, size=(components, degree + 1, degree + 1)), omega)


# ---------------------------------------------------------------------------
# k = 1: separable oscillator with inverse-square barriers


def sw_superpotential(params: ModelParams, x, y):
    return -params.a * np.log(np.abs(x)) - params.b * np.log(np.abs(y))


def sw_super(params: ModelParams, cart: CartData, x: np.ndarray, y: np.ndarray):
    """Cartesian supersymmetrized Hamiltonian and supercharge at k = 1.

    Hs = -lap + omega^2 r^2 + a^2/x^2 + b^2/y^2 + 2 omega (n_x + n_y)
         + (a/x^2)[bdag_x, b_x] + (b/y^2)[bdag_y, b_y] - 2 omega (a+b+1)
    Q  = (-d_x + omega x - a/x) b_x + (-d_y + omega y - b/y) b_y
    """
    if params.k != 1.0:
        raise ValueError("sw_super requires k = 1")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("axis points are outside the domain")
    a, b, w = params.a, params.b, params.omega
    scal = -cart.lap + (w * w * (x**2 + y**2) + a * a / x**2 + b * b / y**2 - 2.0 * w * (a + b + 1.0)) * cart.val
    ferm = (
        2.0 * w * ((_BDX @ _BX + _BDY @ _BY) @ cart.val)
        + (a / x**2) * (_comm(_BDX, _BX) @ cart.val)
        + (b / y**2) * (_comm(_BDY, _BY) @ cart.val)
    )
    h = scal + ferm
    q = _BX @ (-cart.d_x + (w * x - a / x) * cart.val) + _BY @ (-cart.d_y + (w * y - b / y) * cart.val)
    return h, q


# ---------------------------------------------------------------------------
# k = 2: rational BC2 model on the sector 0 < y < x


def bc2_superpotential(params: ModelParams, x, y):
    return -params.a * (np.log(np.abs(x - y)) + np.log(np.abs(x + y))) - params.b * (
        np.log(np.abs(x)) + np.log(np.abs(y))
    )


def bc2_super(params: ModelParams, cart: CartData, x: np.ndarray, y: np.ndarray):
    """Cartesian supersymmetrized Hamiltonian and supercharge at k = 2."""
    if params.k != 2.0:
        raise ValueError("bc2_super requires k = 2")
    if np.any(y <= 0) or np.any(y >= x):
        raise ValueError("points must satisfy 0 < y < x")
    a, b, w = params.a, params.b, params.omega
    xm, xp = x - y, x + y
    scal = -cart.lap + (
        w * w * (x**2 + y**2)
        + 2.0 * a * a * (1.0 / xm**2 + 1.0 / xp**2)
        + b * b * (1.0 / x**2 + 1.0 / y**2)
        - 2.0 * w * (2.0 * a + 2.0 * b + 1.0)
    ) * cart.val
    cmm = _comm(_BDX - _BDY, _BX - _BY)
    cpp = _comm(_BDX + _BDY, _BX + _BY)
    ferm = (
        2.0 * w * ((_BDX @ _BX + _BDY @ _BY) @ cart.val)
        + a * ((1.0 / xm**2) * (cmm @ cart.val) + (1.0 / xp**2) * (cpp @ cart.val))
        + b * ((1.0 / x**2) * (_comm(_BDX, _BX) @ cart.val) + (1.0 / y**2) * (_comm(_BDY, _BY) @ cart.val))
    )
    h = scal + ferm
    q = _BX @ (-cart.d_x + (w * x - a * (1.0 / xm + 1.0 / xp) - b / x) * cart.val) + _BY @ (
        -cart.d_y + (w * y + a * (1.0 / xm - 1.0 / xp) - b / y) * cart.val
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


def _poly1_parts(h: np.ndarray, omega: float, X: np.ndarray):
    d1 = np.arange(1, h.size) * h[1:]
    d2 = np.arange(1, d1.size) * d1[1:] if d1.size > 1 else np.zeros(1)

    def ev(cc):
        return np.polynomial.polynomial.polyval(X, cc) if cc.size else np.zeros_like(X)

    e = np.exp(-0.5 * omega * X**2)
    q, qx, qxx = ev(h), ev(d1), ev(d2)
    f = q * e
    f1 = (qx - omega * X * q) * e
    f2 = (qxx - 2 * omega * X * qx - omega * q + omega**2 * X**2 * q) * e
    return f, f1, f2


def make_cmw_test_state(
    rel, cm_coeffs: np.ndarray, params: ModelParams, r: np.ndarray, phi: np.ndarray, X: np.ndarray
) -> Cmw3Data:
    """Product test state (rel spinor in (u, v)) x (cm spinor in X),
    written in the particle-mode occupation basis.

    ``rel`` provides 4 components over the transformed-mode monomials
    {1, cdag_u, cdag_v, cdag_u cdag_v}; ``cm_coeffs`` has shape (2, D)
    for the cm monomials {1, cdag_X}.
    """
    u, v = r * np.cos(phi), r * np.sin(phi)
    cart = cart_from_polar(rel.polar_bundle(params, r, phi), r, phi)
    cm_parts = [_poly1_parts(np.asarray(c, dtype=float), params.omega, X) for c in cm_coeffs]
    # the cm spinor and its first two X derivatives, each as (2, npts) values
    chi, chi_X, chi_XX = ([part[i] for part in cm_parts] for i in range(3))
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
    """Three-particle supersymmetrized Hamiltonian and supercharge.

    Pairwise coordinates are x_ij = x_i - x_j and the three-body ones
    y_ij = x_i + x_j - 2 x_m (m the remaining index); all must be
    nonzero at the sample points.
    """
    a, b, w = params.a, params.b, params.omega
    xs = data.particles
    x_ij = {}
    y_ij = {}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            m = 3 - i - j
            x_ij[i, j] = xs[i] - xs[j]
            y_ij[i, j] = xs[i] + xs[j] - 2.0 * xs[m]
    if any(np.any(np.abs(c) < 1e-12) for c in list(x_ij.values()) + list(y_ij.values())):
        raise ValueError("coincidence points are outside the domain")

    lap3 = data.lap2 + data.d_XX
    scal = (
        -lap3
        + (
            w * w * np.sum(xs**2, axis=0)
            + a * a * sum(1.0 / x_ij[i, j] ** 2 for i in range(3) for j in range(3) if i != j)
            + 3.0 * b * b * sum(1.0 / y_ij[i, j] ** 2 for i in range(3) for j in range(3) if i != j)
            - 3.0 * w * (2.0 * a + 2.0 * b + 1.0)
        )
        * data.val
    )
    ferm = 2.0 * w * (sum(_BD3[i] @ _B3[i] for i in range(3)) @ data.val)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ferm += a / x_ij[i, j] ** 2 * (_comm(_BD3[i], _B3[i] - _B3[j]) @ data.val)
    for i in range(3):
        for j in range(3):
            for m in range(3):
                if len({i, j, m}) < 3:
                    continue
                op = _comm(_BD3[i], _B3[i] + _B3[j] - 2.0 * _B3[m]) - _comm(_BD3[m], _B3[i] + _B3[j] - 2.0 * _B3[m])
                ferm += b / y_ij[i, j] ** 2 * (op @ data.val)
    h = scal + ferm

    q = np.zeros_like(data.val)
    for i in range(3):
        others = [j for j in range(3) if j != i]
        coeff = w * xs[i]
        coeff = coeff - a * sum(1.0 / x_ij[i, j] for j in others)
        coeff = coeff - b * (
            sum(1.0 / y_ij[i, j] for j in others) - (1.0 / y_ij[others[0], others[1]] + 1.0 / y_ij[others[1], others[0]])
        )
        q += _B3[i] @ (-data.d_particle(i) + coeff * data.val)
    return h, q


def cmw_rel_super(params: ModelParams, data: Cmw3Data):
    """Relative part in the transformed modes: the six-center angular
    form of Hs plus the planar supercharge, as 8-dim operators."""
    a, b, w = params.a, params.b, params.omega
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
    h = -data.lap2 + w * w * r2 * data.val
    for jj, (mc, ms) in enumerate(zip(cos_ops, sin_ops)):
        ang = phi - 2.0 * math.pi * jj / 3.0
        h += (a / (r2 * np.cos(ang) ** 2)) * (a * data.val + mc @ data.val)
        h += (b / (r2 * np.sin(ang) ** 2)) * (b * data.val + ms @ data.val)
    h += 2.0 * w * ((cdu @ cu + cdv @ cv) @ data.val) - 2.0 * w * (3.0 * a + 3.0 * b + 1.0) * data.val

    c, s = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    c3, s3 = np.cos(3.0 * phi), np.sin(3.0 * phi)
    d_r = c * data.d_u + s * data.d_v
    d_phi = -v * data.d_u + u * data.d_v
    qx = -c * d_r + (s / r) * d_phi + (w * r * c - (3.0 * a / r) * c2 / c3 - (3.0 * b / r) * s2 / s3) * data.val
    qy = -s * d_r - (c / r) * d_phi + (w * r * s + (3.0 * a / r) * s2 / c3 - (3.0 * b / r) * c2 / s3) * data.val
    q = cu @ qx + cv @ qy
    return h, q


def cm_super(params: ModelParams, data: Cmw3Data):
    """Centre-of-mass superoscillator (-d_X^2 + omega^2 X^2 + 2 omega (n_X - 1/2))
    and its supercharge, as 8-dim operators in the transformed modes."""
    w = params.omega
    cX, cdX = _C3[2], _CD3[2]
    h = -data.d_XX + w * w * data.X**2 * data.val + 2.0 * w * ((cdX @ cX) @ data.val) - w * data.val
    q = cX @ (-data.d_X + w * data.X * data.val)
    return h, q
