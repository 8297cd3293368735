"""The eight superalgebra generators as polar differential operators.

The even generators K0, K+-, Y close an sp(2,R) x so(2) algebra and the
odd ones V+-, W+- complete it to osp(2|2,R):

    [K0,K+-] = +-K+-          [K+,K-]   = -2 K0
    [K0,V+-] = +-V+-/2        [K0,W+-]  = +-W+-/2
    [K+-,V-+] = -+V+-         [K+-,W-+] = -+W+-
    [Y,V+-]  = V+-/2          [Y,W+-]   = -W+-/2
    {V+-,W+-} = K+-           {V+-,W-+} = K0 -+ Y

with K0, Y Hermitian, K+-^dag = K-+ and V+-^dag = W-+.  The model
realization is built from the superpotential W = C ln r + F(phi) with

    F(phi) = -a ln cos(k phi) - b ln sin(k phi),   C = -k(a+b),

which solves the angular Riccati equation
-F'' + F'^2 + C^2 = k^2 [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)]
and thereby ties the supersymmetrized Hamiltonian

    Hs = H_k + 4 omega (Gamma + Y) = 4 omega (K0 + Y),
    Q = 2 sqrt(omega) W+,  Qdag = 2 sqrt(omega) V-

to the deformed oscillator H_k.  All operators act analytically on
catalog states through their derivative bundles; sampling is exact at
every grid point, so the algebra residuals measure the formulas, not a
discretization.

``oscillator_realization`` provides the independent boson-fermion
matrix model of the same algebra (no wavefunctions involved), used as
a control for the structure-constant checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .irreps import BasisState, sector_basis
from .model import Grid, ModelParams
from .states import CatalogState, FactorTable, StateBundle, state_bundle

__all__ = [
    "GENERATOR_NAMES",
    "GENERATOR_PARITY",
    "OscillatorRealization",
    "RelationCheck",
    "apply_generator",
    "apply_hamiltonian",
    "apply_susy",
    "check_structure_constants",
    "dilation_identity_residuals",
    "generator_matrices",
    "hamiltonian_super",
    "hermiticity_residuals",
    "interior_mask",
    "oscillator_realization",
    "riccati_residual",
    "superpotential",
    "supercharges",
]

GENERATOR_NAMES = ("K0", "K+", "K-", "Y", "V+", "V-", "W+", "W-")
GENERATOR_PARITY = {"K0": 0, "K+": 0, "K-": 0, "Y": 0, "V+": 1, "V-": 1, "W+": 1, "W-": 1}

_BX, _BY = fock.annihilators()
_BDX, _BDY = _BX.T, _BY.T
_NXX, _NXY = _BDX @ _BX, _BDX @ _BY
_NYX, _NYY = _BDY @ _BX, _BDY @ _BY
_FNUM = np.array([0.0, 1.0, 1.0, 2.0])
# fixed-basis components that a state of each fermion parity occupies
_PARITY_COMPONENTS = {0: [0, 3], 1: [1, 2]}


# ---------------------------------------------------------------------------
# Superpotential and the angular Riccati equation


def superpotential(params: ModelParams, r, phi):
    """W(r, phi) = C ln r + F(phi) with the model solution F, C."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(r <= 0) or np.any(phi <= 0) or np.any(phi >= params.phi_max):
        raise ValueError("superpotential requires interior points")
    k, a, b = params.k, params.a, params.b
    out = -k * (a + b) * np.log(r) - a * np.log(np.cos(k * phi)) - b * np.log(np.sin(k * phi))
    return out if out.ndim else float(out)


def riccati_residual(params: ModelParams, phi, perturb_a: float = 0.0):
    """|(-F'' + F'^2 + C^2) - k^2 [a(a-1) sec^2 + b(b-1) csc^2]|.

    ``perturb_a`` shifts a inside F only; the unperturbed equation is a
    closed-form identity, so a nonzero shift must produce a visible
    residual (sensitivity control)."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi <= 0) or np.any(phi >= params.phi_max):
        raise ValueError("phi must be interior")
    k, a, b = params.k, params.a, params.b
    af = a + perturb_a
    sec2 = 1.0 / np.cos(k * phi) ** 2
    csc2 = 1.0 / np.sin(k * phi) ** 2
    f1 = af * k * np.tan(k * phi) - b * k / np.tan(k * phi)
    f2 = af * k * k * sec2 + b * k * k * csc2
    c = -k * (a + b)
    lhs = -f2 + f1 * f1 + c * c
    rhs = k * k * (a * (a - 1.0) * sec2 + b * (b - 1.0) * csc2)
    out = np.abs(lhs - rhs)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Pointwise operator assembly
#
# Every helper takes a broadcastable pair (r, phi), like ``FactorTable``:
# coefficient arrays are built on r's and phi's own shapes and broadcast
# against the (4, *shape) bundle arrays, and fermion matrices contract
# the leading spinor axis.


def _spinor_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fermion matrix m (4 x 4) applied along the spinor axis of v (4, ...).

    One matmul on a reshaped view: ``np.tensordot(m, v, 1)`` gives the
    same result at about twice the cost on an 80 x 80 grid."""
    return (m @ v.reshape(4, -1)).reshape(v.shape)


def _tt_potential(params: ModelParams, r, phi):
    k, a, b = params.k, params.a, params.b
    return params.omega**2 * r**2 + (k * k / r**2) * (
        a * (a - 1.0) / np.cos(k * phi) ** 2 + b * (b - 1.0) / np.sin(k * phi) ** 2
    )


def _apply_h(bundle: StateBundle, params: ModelParams, r, phi):
    """Deformed-oscillator Hamiltonian H_k, acting per spinor component."""
    pot = _tt_potential(params, r, phi)
    return -bundle.d_rr - bundle.d_r / r - bundle.d_phiphi / r**2 + pot * bundle.val


def _apply_d_superpotential(bundle: StateBundle, params: ModelParams, r, phi):
    """D = [-Laplacian - Laplacian(W) + |grad W|^2] / (4 omega), from the
    superpotential derivatives (independent of the H_k potential form)."""
    k, a, b = params.k, params.a, params.b
    sec2 = 1.0 / np.cos(k * phi) ** 2
    csc2 = 1.0 / np.sin(k * phi) ** 2
    f1 = a * k * np.tan(k * phi) - b * k / np.tan(k * phi)
    f2 = a * k * k * sec2 + b * k * k * csc2
    c = -k * (a + b)
    ang = (-f2 + f1 * f1 + c * c) / r**2
    lap = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
    return (-lap + ang * bundle.val) / (4.0 * params.omega)


def _gamma_coeffs(params: ModelParams, r, phi):
    """Pointwise 2x2 coefficient matrix (g_xx, g_xy, g_yy) of Gamma in the
    fixed fermion basis."""
    k, a, b = params.k, params.a, params.b
    ck = np.cos(k * phi)
    sk = np.sin(k * phi)
    c2 = np.cos(2.0 * phi)
    s2 = np.sin(2.0 * phi)
    ckm2 = np.cos((k - 2.0) * phi)
    skm2 = np.sin((k - 2.0) * phi)
    pref = k / (2.0 * params.omega * r**2)
    pa = a / ck**2
    pb = b / sk**2
    g_xx = pa * (ckm2 * ck + 0.5 * k * (1.0 - c2)) + pb * (skm2 * sk + 0.5 * k * (1.0 - c2))
    g_xy = -pa * (skm2 * ck + 0.5 * k * s2) + pb * (ckm2 * sk - 0.5 * k * s2)
    g_yy = pa * (-ckm2 * ck + 0.5 * k * (1.0 + c2)) + pb * (-skm2 * sk + 0.5 * k * (1.0 + c2))
    # the 1/r^2 prefactor last, so the angular parts stay on phi's shape
    return pref * g_xx, pref * g_xy, pref * g_yy


def _gamma_coeffs_barred(params: ModelParams, r, phi):
    """Same coefficients assembled from the barred-mode expression and
    rotated back; used as an internal consistency oracle."""
    k, a, b = params.k, params.a, params.b
    tan = np.tan(k * phi)
    cot = 1.0 / tan
    sec2 = 1.0 + tan * tan
    csc2 = 1.0 + cot * cot
    pref = k / (2.0 * params.omega * r**2)
    bar_xx = pref * (a + b)
    bar_xy = pref * (-a * tan + b * cot)
    bar_yy = pref * (a * (k * sec2 - 1.0) + b * (k * csc2 - 1.0))
    c, s = np.cos(phi), np.sin(phi)
    # bdag_bar_i bbar_j = sum_kl U_ik U_jl bdag_k b_l with U = [[c, s], [-s, c]]
    g_xx = bar_xx * c * c - 2.0 * bar_xy * c * s + bar_yy * s * s
    g_yy = bar_xx * s * s + 2.0 * bar_xy * c * s + bar_yy * c * c
    g_xy = bar_xx * c * s + bar_xy * (c * c - s * s) - bar_yy * c * s
    return g_xx, g_xy, g_yy


def _apply_gamma(bundle: StateBundle, params: ModelParams, r, phi):
    g_xx, g_xy, g_yy = _gamma_coeffs(params, r, phi)
    v = bundle.val
    return g_xx * _spinor_dot(_NXX, v) + g_xy * _spinor_dot(_NXY + _NYX, v) + g_yy * _spinor_dot(_NYY, v)


def _apply_y(bundle: StateBundle, params: ModelParams):
    shift = 0.5 * (-params.k * (params.a + params.b) - 1.0)
    v = bundle.val
    return (0.5 * _FNUM).reshape((4,) + (1,) * (v.ndim - 1)) * v + shift * v


def _odd_coefficients(params: ModelParams, r, phi, sign: float, kind: str):
    """Coefficient triples (c_r, c_phi, c_0) of the x and y pieces of the
    odd generators in the fixed basis; ``sign`` is +1/-1 for the
    raising/lowering member and ``kind`` is 'V' or 'W'."""
    k, a, b = params.k, params.a, params.b
    c, s = np.cos(phi), np.sin(phi)
    ck, sk = np.cos(k * phi), np.sin(k * phi)
    ckm1, skm1 = np.cos((k - 1.0) * phi), np.sin((k - 1.0) * phi)
    wr = params.omega * r
    flip = 1.0 if kind == "V" else -1.0
    fs_r = flip * sign / r
    cx_r = -sign * c
    cx_p = sign * s / r
    cx_0 = wr * c + fs_r * (k * a * ckm1 / ck + k * b * skm1 / sk)
    cy_r = -sign * s
    cy_p = -sign * c / r
    cy_0 = wr * s + fs_r * (-k * a * skm1 / ck + k * b * ckm1 / sk)
    return (cx_r, cx_p, cx_0), (cy_r, cy_p, cy_0)


def _apply_odd(bundle: StateBundle, params: ModelParams, r, phi, sign: float, kind: str):
    (cx_r, cx_p, cx_0), (cy_r, cy_p, cy_0) = _odd_coefficients(params, r, phi, sign, kind)
    fx = cx_r * bundle.d_r + cx_p * bundle.d_phi + cx_0 * bundle.val
    fy = cy_r * bundle.d_r + cy_p * bundle.d_phi + cy_0 * bundle.val
    mx, my = (_BDX, _BDY) if kind == "V" else (_BX, _BY)
    return (_spinor_dot(mx, fx) + _spinor_dot(my, fy)) / (2.0 * math.sqrt(params.omega))


def _apply_bundle(name: str, bundle: StateBundle, params: ModelParams, r, phi):
    if name == "Y":
        return _apply_y(bundle, params)
    if name in ("V+", "V-", "W+", "W-"):
        return _apply_odd(bundle, params, r, phi, +1.0 if name[1] == "+" else -1.0, name[0])
    if name == "K0":
        return _apply_h(bundle, params, r, phi) / (4.0 * params.omega) + _apply_gamma(bundle, params, r, phi)
    if name in ("K+", "K-"):
        sgn = 1.0 if name == "K+" else -1.0
        z = params.omega * r**2
        h = _apply_h(bundle, params, r, phi) / (4.0 * params.omega)
        zdz = 0.5 * r * bundle.d_r
        return -h + 0.5 * z * bundle.val - sgn * (zdz + 0.5 * bundle.val) - _apply_gamma(bundle, params, r, phi)
    raise ValueError(f"unknown generator {name!r}")


def apply_generator(name: str, state: CatalogState, params: ModelParams, r, phi) -> np.ndarray:
    """Apply one generator analytically to a catalog state; returns the
    resulting spinor field sampled at (r, phi)."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bundle = state_bundle(state, params, r, phi)
    return _apply_bundle(name, bundle, params, r, phi)


def apply_hamiltonian(state: CatalogState, params: ModelParams, r, phi) -> np.ndarray:
    """H_k applied per spinor component (no fermionic terms)."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return _apply_h(state_bundle(state, params, r, phi), params, r, phi)


def apply_susy(name: str, bundle: StateBundle, params: ModelParams, r, phi) -> np.ndarray:
    """Supersymmetric operator ``name`` applied to a state's bundle at (r, phi):

    'Hs':   H_k + 4 omega (Gamma + Y), with the explicit deformed-oscillator potential;
    'Q':    2 sqrt(omega) W+;
    'Qdag': 2 sqrt(omega) V-.
    """
    if name == "Hs":
        gamma_y = _apply_gamma(bundle, params, r, phi) + _apply_y(bundle, params)
        return _apply_h(bundle, params, r, phi) + 4.0 * params.omega * gamma_y
    if name in ("Q", "Qdag"):
        return 2.0 * math.sqrt(params.omega) * _apply_bundle("W+" if name == "Q" else "V-", bundle, params, r, phi)
    raise ValueError(f"unknown supersymmetric operator {name!r}")


def hamiltonian_super(state: CatalogState, params: ModelParams, r, phi, route: str = "potential") -> np.ndarray:
    """Supersymmetrized Hamiltonian Hs.

    route 'potential':      H_k + 4 omega (Gamma + Y), with the explicit
                            deformed-oscillator potential;
    route 'superpotential': 4 omega (K0 + Y) with K0 built from the
                            superpotential derivatives (D + omega r^2/4
                            + Gamma).  Agreement of the two routes is the
                            operator form of the Riccati identity.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bundle = state_bundle(state, params, r, phi)
    if route == "potential":
        return apply_susy("Hs", bundle, params, r, phi)
    if route == "superpotential":
        d = _apply_d_superpotential(bundle, params, r, phi)
        k0b = d + 0.25 * params.omega * r**2 * bundle.val
        gamma_y = _apply_gamma(bundle, params, r, phi) + _apply_y(bundle, params)
        return 4.0 * params.omega * (k0b + gamma_y)
    raise ValueError(f"unknown route {route!r}")


def supercharges(state: CatalogState, params: ModelParams, r, phi) -> tuple[np.ndarray, np.ndarray]:
    """(Q state, Qdag state) with Q = 2 sqrt(omega) W+ and Qdag = 2 sqrt(omega) V-."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bundle = state_bundle(state, params, r, phi)
    return apply_susy("Q", bundle, params, r, phi), apply_susy("Qdag", bundle, params, r, phi)


# ---------------------------------------------------------------------------
# Dilation (degree -2 homogeneity) identities


def _scaled_bundle(state: CatalogState, params: ModelParams, r, phi, lam: float) -> StateBundle:
    """Bundle of the dilated state f_lam(r, phi) = f(lam r, phi)."""
    b = state_bundle(state, params, lam * r, phi)
    return StateBundle(b.val, lam * b.d_r, lam * lam * b.d_rr, b.d_phi, b.d_phiphi)


def dilation_identity_residuals(state: CatalogState, params: ModelParams, r, phi, lam: float = 1.3) -> dict:
    """Residuals of the scaling identities O(f(lam .)) = lam^2 (O f)(lam .)
    for O = D and O = Gamma — the integrated form of [r d_r, O] = -2 O.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = {}
    lhs = _apply_d_superpotential(_scaled_bundle(state, params, r, phi, lam), params, r, phi)
    rhs = lam * lam * _apply_d_superpotential(state_bundle(state, params, lam * r, phi), params, lam * r, phi)
    out["D"] = float(np.max(np.abs(lhs - rhs)))
    bundle_s = state_bundle(state, params, lam * r, phi)
    lhs_g = _apply_gamma(StateBundle(bundle_s.val, *[np.zeros_like(bundle_s.val)] * 4), params, r, phi)
    rhs_g = lam * lam * _apply_gamma(bundle_s, params, lam * r, phi)
    out["Gamma"] = float(np.max(np.abs(lhs_g - rhs_g)))
    return out


# ---------------------------------------------------------------------------
# Truncated matrices in the orthonormal super-basis


def generator_matrices(
    params: ModelParams,
    truncation: tuple[int, int],
    m_rad: int = 80,
    m_ang: int = 80,
    names: tuple[str, ...] = GENERATOR_NAMES,
) -> tuple[dict[str, np.ndarray], list[BasisState]]:
    """Matrices <i|G|j> of the requested generators over the orthonormal
    super-basis with radial level <= N_max and sector n <= n_max.

    Generators preserve the angular sector, so the matrices are
    assembled per sector; cross-sector blocks vanish identically (the
    sampled block-diagonality check lives in the test suite).  Each
    sector grid gets one ``FactorTable`` on the grid's (r column, phi
    row) pair, so rows and columns are sampled on the full tensor grid
    while every factor and operator coefficient is evaluated on the 1-D
    nodes.  A state of fermion parity p occupies only the components
    ``_PARITY_COMPONENTS[p]``, so each column is projected on those two
    components alone.
    """
    N_max, n_max = truncation
    if N_max < 2 or n_max < 2:
        raise ValueError("truncation must be at least (2, 2)")

    sector_bases = [sector_basis(params, n, N_max) for n in range(n_max + 1)]
    basis = [s for bs in sector_bases for s in bs]
    dim = len(basis)
    mats = {g: np.zeros((dim, dim)) for g in names}

    offset = 0
    for n, bs in enumerate(sector_bases):
        par = [0 if s.family in ("zero", "double") else 1 for s in bs]
        tables = {}
        rows_w = {}
        row_idx = {}
        for p in (0, 1):
            grid = Grid.for_sector(params, n, odd=bool(p), m_rad=m_rad, m_ang=m_ang)
            tables[p] = table = FactorTable(params, grid.r, grid.phi)
            idx = [i for i, pi in enumerate(par) if pi == p]
            row_idx[p] = np.array(idx, dtype=int)
            comps = _PARITY_COMPONENTS[p]
            rows_w[p] = np.array([(table.field(bs[i].state)[comps] * grid.w).ravel() for i in idx])

        for j, s in enumerate(bs):
            for p_out, table in tables.items():
                gnames = [g for g in names if par[j] ^ GENERATOR_PARITY[g] == p_out]
                if not gnames:
                    continue
                bundle = table.bundle(s.state)
                comps = _PARITY_COMPONENTS[p_out]
                outs = np.array([_apply_bundle(g, bundle, params, table.r, table.phi)[comps].ravel() for g in gnames])
                cols = rows_w[p_out] @ outs.T
                for gname, col in zip(gnames, cols.T):
                    mats[gname][offset + row_idx[p_out], offset + j] = col
        offset += len(bs)
    return mats, basis


def interior_mask(basis: list[BasisState], truncation: tuple[int, int], depth: int = 1) -> np.ndarray:
    """States whose ladder images up to ``depth`` steps stay inside the
    truncation (fermion sector unrestricted).  The angular sector never
    leaks, so only one sector step is excluded regardless of depth."""
    N_max, n_max = truncation
    return np.array([s.level <= N_max - depth and s.n <= n_max - 1 for s in basis])


# ---------------------------------------------------------------------------
# Structure constants

# (kind, A, B, {rhs terms}); every pair not listed as nonvanishing in the
# superalgebra closes to zero and is checked with an empty rhs.
RELATIONS = [
    ("comm", "K0", "K+", {"K+": 1.0}),
    ("comm", "K0", "K-", {"K-": -1.0}),
    ("comm", "K+", "K-", {"K0": -2.0}),
    ("comm", "K0", "Y", {}),
    ("comm", "K+", "Y", {}),
    ("comm", "K-", "Y", {}),
    ("comm", "K0", "V+", {"V+": 0.5}),
    ("comm", "K0", "V-", {"V-": -0.5}),
    ("comm", "K0", "W+", {"W+": 0.5}),
    ("comm", "K0", "W-", {"W-": -0.5}),
    ("comm", "K+", "V-", {"V+": -1.0}),
    ("comm", "K-", "V+", {"V-": 1.0}),
    ("comm", "K+", "W-", {"W+": -1.0}),
    ("comm", "K-", "W+", {"W-": 1.0}),
    ("comm", "K+", "V+", {}),
    ("comm", "K-", "V-", {}),
    ("comm", "K+", "W+", {}),
    ("comm", "K-", "W-", {}),
    ("comm", "Y", "V+", {"V+": 0.5}),
    ("comm", "Y", "V-", {"V-": 0.5}),
    ("comm", "Y", "W+", {"W+": -0.5}),
    ("comm", "Y", "W-", {"W-": -0.5}),
    ("anti", "V+", "W+", {"K+": 1.0}),
    ("anti", "V-", "W-", {"K-": 1.0}),
    ("anti", "V+", "W-", {"K0": 1.0, "Y": -1.0}),
    ("anti", "V-", "W+", {"K0": 1.0, "Y": 1.0}),
    ("anti", "V+", "V+", {}),
    ("anti", "V-", "V-", {}),
    ("anti", "V+", "V-", {}),
    ("anti", "W+", "W+", {}),
    ("anti", "W-", "W-", {}),
    ("anti", "W+", "W-", {}),
]


@dataclass(frozen=True)
class RelationCheck:
    name: str
    residual: float


def check_structure_constants(mats: dict[str, np.ndarray], interior: np.ndarray) -> list[RelationCheck]:
    """Max-abs residual of every (anti)commutation relation, restricted
    to interior rows and columns."""
    out = []
    for kind, a, b, rhs in RELATIONS:
        ab = mats[a] @ mats[b]
        ba = mats[b] @ mats[a]
        lhs = ab - ba if kind == "comm" else ab + ba
        for gname, coeff in rhs.items():
            lhs = lhs - coeff * mats[gname]
        res = float(np.max(np.abs(lhs[np.ix_(interior, interior)]))) if interior.any() else float("nan")
        symbol = "[{},{}]".format(a, b) if kind == "comm" else "{{{},{}}}".format(a, b)
        rhs_text = " ".join(f"{c:+g} {g}" for g, c in rhs.items()) if rhs else "0"
        out.append(RelationCheck(f"{symbol} = {rhs_text}", res))
    return out


def hermiticity_residuals(mats: dict[str, np.ndarray]) -> dict[str, float]:
    """Transpose relations between generator matrices (real orthonormal basis)."""
    return {
        "K0^T = K0": float(np.max(np.abs(mats["K0"] - mats["K0"].T))),
        "Y^T = Y": float(np.max(np.abs(mats["Y"] - mats["Y"].T))),
        "K+^T = K-": float(np.max(np.abs(mats["K+"].T - mats["K-"]))),
        "V+^T = W-": float(np.max(np.abs(mats["V+"].T - mats["W-"]))),
        "V-^T = W+": float(np.max(np.abs(mats["V-"].T - mats["W+"]))),
    }


# ---------------------------------------------------------------------------
# Boson-fermion oscillator realization (wavefunction-free control)


@dataclass(frozen=True)
class OscillatorRealization:
    mats: dict[str, np.ndarray]
    interior: np.ndarray
    boson_numbers: np.ndarray
    nu: int
    cutoff: int


def oscillator_realization(nu: int = 1, cutoff: int = 12) -> OscillatorRealization:
    """Generators on nu boson modes x nu fermion modes, truncated at
    ``cutoff`` boson quanta per mode:

        K0 = (sum adag_i a_i + nu/2)/2     K+ = sum adag_i^2 / 2
        K- = sum a_i^2 / 2                 Y  = (sum bdag_i b_i - nu/2)/2
        V+ = sum adag_i bdag_i / sqrt(2)   V- = sum a_i bdag_i / sqrt(2)
        W+ = sum adag_i b_i / sqrt(2)      W- = sum a_i b_i / sqrt(2)

    The interior mask keeps states at least two boson quanta away from
    the cutoff in every mode, where products of two generators are
    represented exactly.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if cutoff < 4:
        raise ValueError("cutoff must be >= 4")
    a1 = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    eye_b = np.eye(cutoff)
    ferm = fock.jordan_wigner(nu)
    eye_f = np.eye(2**nu)

    def boson_op(i, m):
        ops = [eye_b] * nu
        ops[i] = m
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return np.kron(out, eye_f)

    def fermi_op(i):
        return np.kron(np.eye(cutoff**nu), ferm[i])

    a_ops = [boson_op(i, a1) for i in range(nu)]
    ad_ops = [m.T for m in a_ops]
    b_ops = [fermi_op(i) for i in range(nu)]
    bd_ops = [m.T for m in b_ops]

    dim = cutoff**nu * 2**nu
    eye = np.eye(dim)
    mats = {
        "K0": 0.5 * (sum(ad @ a for ad, a in zip(ad_ops, a_ops)) + 0.5 * nu * eye),
        "K+": 0.5 * sum(ad @ ad for ad in ad_ops),
        "K-": 0.5 * sum(a @ a for a in a_ops),
        "Y": 0.5 * (sum(bd @ b for bd, b in zip(bd_ops, b_ops)) - 0.5 * nu * eye),
        "V+": sum(ad @ bd for ad, bd in zip(ad_ops, bd_ops)) / math.sqrt(2.0),
        "V-": sum(a @ bd for a, bd in zip(a_ops, bd_ops)) / math.sqrt(2.0),
        "W+": sum(ad @ b for ad, b in zip(ad_ops, b_ops)) / math.sqrt(2.0),
        "W-": sum(a @ b for a, b in zip(a_ops, b_ops)) / math.sqrt(2.0),
    }

    numbers = np.zeros((dim, nu), dtype=int)
    for i, aop in enumerate(a_ops):
        numbers[:, i] = np.rint(np.diag(aop.T @ aop)).astype(int)
    interior = np.all(numbers <= cutoff - 3, axis=1)
    return OscillatorRealization(mats, interior, numbers, nu, cutoff)
