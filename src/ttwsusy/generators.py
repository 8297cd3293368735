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

to the deformed oscillator H_k.  Each operator is written once, as a
table of separable terms coef r^q theta(phi) M d_r^i d_phi^j with M a
fixed-basis fermion matrix, and ``_terms`` is the one map from an
operator name to its table: the eight generators, H_k ("H"), "Hs",
"Q", "Qdag" and the identity "1".  ``apply_operators`` is the one
pointwise route: it applies tables analytically to the derivative
bundle of a state of one ``FactorTable``, exactly at every sample
point, and keeps the tables on the ``FactorTable``; every fermion
matrix has at most one nonzero per row and acts as that row map on
the spinor components the bundle reaches, and nowhere else.
``_project``, the one projection routine, contracts the same table
with 1-D radial and angular Gauss sums between two expansions of
states, each distinct moment once, so the algebra residuals measure
the formulas, not a discretization.  How states break into radial and
angular factors is ``states.FactorTable.expand``, one call per grid:
``sector_matrices`` expands a sector grid's even and odd states in
one, and ``project`` a row and a column list, as ``wavefunction_gram``
and verify's other integral checks (cross-sector elements, one-fermion
overlaps) use it.  ``hamiltonian_super`` stays apart on
purpose: it builds Hs from the superpotential instead of the H_k
potential, as the independent reference of that identity.  Every
generator preserves the angular sector n, so the matrices are built
one block per sector (``sector_matrices``; ``generator_matrices`` is
every sector's), and the relation, Hermiticity and Casimir checks each
work on one block.

``oscillator_realization`` provides the independent boson-fermion
matrix model of the same algebra (no wavefunctions involved), used as
a control for the structure-constant checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import fock
from .irreps import BasisState, sector_basis, zero_fermion_state
from .model import Grid, ModelParams
from .states import CatalogState, FactorTable, StateBundle, state_bundle

__all__ = [
    "GENERATOR_NAMES",
    "GENERATOR_PARITY",
    "OscillatorRealization",
    "RelationCheck",
    "apply_operators",
    "check_structure_constants",
    "dilation_identity_residuals",
    "generator_matrices",
    "hamiltonian_super",
    "hermiticity_residuals",
    "interior_mask",
    "oscillator_realization",
    "project",
    "riccati_residual",
    "sector_matrices",
    "superpotential",
    "wavefunction_gram",
]

GENERATOR_NAMES = ("K0", "K+", "K-", "Y", "V+", "V-", "W+", "W-")
GENERATOR_PARITY = {"K0": 0, "K+": 0, "K-": 0, "Y": 0, "V+": 1, "V-": 1, "W+": 1, "W-": 1}

_BX, _BY = fock.annihilators()
_BDX, _BDY = _BX.T, _BY.T
_NXX, _NYY = _BDX @ _BX, _BDY @ _BY
_NXY_YX = _BDX @ _BY + _BDY @ _BX
_FNUM = _NXX + _NYY
_EYE = np.eye(4)


def _row_map(m: np.ndarray) -> tuple:
    """The nonzeros of a fermion matrix as (row, column, value) triples, row-major."""
    rows, cols = np.nonzero(m)
    return tuple(zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist()))


# Each fixed-basis fermion matrix has at most one nonzero per row, so it
# acts on a spinor as a signed row map: component i of M f is M[i, j] f_j.
# Every term of ``_terms`` carries one of these matrices.
_ROW_MAPS = {id(m): _row_map(m) for m in (_BX, _BY, _BDX, _BDY, _NXX, _NYY, _NXY_YX, _FNUM, _EYE)}


# ---------------------------------------------------------------------------
# Superpotential and the angular Riccati equation


def superpotential(params: ModelParams, r, phi):
    """W(r, phi) = C ln r + F(phi) with the model solution F, C."""
    params.require_interior(r, phi)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k, a, b = params.k, params.a, params.b
    out = -k * (a + b) * np.log(r) - a * np.log(np.cos(k * phi)) - b * np.log(np.sin(k * phi))
    return out if out.ndim else float(out)


def riccati_residual(params: ModelParams, phi, perturb_a: float = 0.0):
    """|(-F'' + F'^2 + C^2) - k^2 [a(a-1) sec^2 + b(b-1) csc^2]|.

    ``perturb_a`` shifts a inside F only; the unperturbed equation is a
    closed-form identity, so a nonzero shift must produce a visible
    residual (sensitivity control)."""
    params.require_interior(phi=phi)
    phi = np.asarray(phi, dtype=float)
    k, a, b = params.k, params.a, params.b
    sec2 = 1.0 / np.cos(k * phi) ** 2
    csc2 = 1.0 / np.sin(k * phi) ** 2
    rhs = k * k * (a * (a - 1.0) * sec2 + b * (b - 1.0) * csc2)
    out = np.abs(_riccati_lhs(params, phi, a + perturb_a) - rhs)
    return out if out.ndim else float(out)


def _riccati_lhs(params: ModelParams, phi, a: float):
    """-F'' + F'^2 + C^2 with exponent ``a`` inside F (C keeps the model's a)."""
    k, b = params.k, params.b
    sec2 = 1.0 / np.cos(k * phi) ** 2
    csc2 = 1.0 / np.sin(k * phi) ** 2
    f1 = a * k * np.tan(k * phi) - b * k / np.tan(k * phi)
    f2 = a * k * k * sec2 + b * k * k * csc2
    c = -k * (params.a + params.b)
    return -f2 + f1 * f1 + c * c


# ---------------------------------------------------------------------------
# Term tables: coef * r^r_pow * theta(phi) * fermion * d_r^d_r d_phi^d_phi,
# theta sampled on the given angles


_Term = namedtuple("_Term", "coef r_pow d_r theta fermion d_phi")


def _scaled(terms: list[_Term], c: float) -> list[_Term]:
    return [t._replace(coef=c * t.coef) for t in terms]


def _h_terms(params: ModelParams, phi) -> list[_Term]:
    """Deformed-oscillator Hamiltonian H_k, acting per spinor component."""
    k, a, b = params.k, params.a, params.b
    pot = k * k * (a * (a - 1.0) / np.cos(k * phi) ** 2 + b * (b - 1.0) / np.sin(k * phi) ** 2)
    return [
        _Term(-1.0, 0, 2, 1.0, _EYE, 0),
        _Term(-1.0, -1, 1, 1.0, _EYE, 0),
        _Term(-1.0, -2, 0, 1.0, _EYE, 2),
        _Term(params.omega**2, 2, 0, 1.0, _EYE, 0),
        _Term(1.0, -2, 0, pot, _EYE, 0),
    ]


def _gamma_terms(params: ModelParams, phi) -> list[_Term]:
    """Gamma = k / (2 omega r^2) [g_xx N_xx + g_xy (N_xy + N_yx) + g_yy N_yy]
    in the fixed fermion basis, N_ij = bdag_i b_j."""
    k, a, b = params.k, params.a, params.b
    ck, sk = np.cos(k * phi), np.sin(k * phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    ckm2, skm2 = np.cos((k - 2.0) * phi), np.sin((k - 2.0) * phi)
    pa, pb = a / ck**2, b / sk**2
    g_xx = pa * (ckm2 * ck + 0.5 * k * (1.0 - c2)) + pb * (skm2 * sk + 0.5 * k * (1.0 - c2))
    g_xy = -pa * (skm2 * ck + 0.5 * k * s2) + pb * (ckm2 * sk - 0.5 * k * s2)
    g_yy = pa * (-ckm2 * ck + 0.5 * k * (1.0 + c2)) + pb * (-skm2 * sk + 0.5 * k * (1.0 + c2))
    pref = k / (2.0 * params.omega)
    return [_Term(pref, -2, 0, g_xx, _NXX, 0), _Term(pref, -2, 0, g_xy, _NXY_YX, 0), _Term(pref, -2, 0, g_yy, _NYY, 0)]


def _y_terms(params: ModelParams) -> list[_Term]:
    """Y = N_f / 2 - [k(a+b) + 1] / 2 with N_f the fermion number."""
    shift = 0.5 * (-params.k * (params.a + params.b) - 1.0)
    return [_Term(0.5, 0, 0, 1.0, _FNUM, 0), _Term(shift, 0, 0, 1.0, _EYE, 0)]


def _odd_terms(params: ModelParams, phi, sign: float, kind: str) -> list[_Term]:
    """Odd generator (mx fx + my fy) / (2 sqrt(omega)) in the fixed basis,
    with (mx, my) = (bdag_x, bdag_y) for kind 'V' and (b_x, b_y) for kind
    'W', and ``sign`` +1/-1 for the raising/lowering member."""
    k, a, b = params.k, params.a, params.b
    c, s = np.cos(phi), np.sin(phi)
    ck, sk = np.cos(k * phi), np.sin(k * phi)
    ckm1, skm1 = np.cos((k - 1.0) * phi), np.sin((k - 1.0) * phi)
    mx, my = (_BDX, _BDY) if kind == "V" else (_BX, _BY)
    h = 0.5 / math.sqrt(params.omega)
    hf = (1.0 if kind == "V" else -1.0) * sign * h
    terms = []
    for m, t_r, t_phi, t_0 in (
        (mx, c, s, k * a * ckm1 / ck + k * b * skm1 / sk),
        (my, s, -c, -k * a * skm1 / ck + k * b * ckm1 / sk),
    ):
        terms += [_Term(-sign * h, 0, 1, t_r, m, 0), _Term(sign * h, -1, 0, t_phi, m, 1)]
        terms += [_Term(params.omega * h, 1, 0, t_r, m, 0), _Term(hf, -1, 0, t_0, m, 0)]
    return terms


_IDENTITY = [_Term(1.0, 0, 0, 1.0, _EYE, 0)]


def _terms(name: str, params: ModelParams, phi) -> list[_Term]:
    """Term table of operator ``name`` with its angular functions on phi:
    a generator of GENERATOR_NAMES, ``"H"`` (H_k), ``"Hs"``, ``"Q"``,
    ``"Qdag"`` or ``"1"`` (the identity)."""
    if name == "1":
        return _IDENTITY
    if name == "H":
        return _h_terms(params, phi)
    if name == "Hs":
        # H_k + 4 omega (Gamma + Y), with the explicit deformed-oscillator potential
        return _h_terms(params, phi) + _scaled(_gamma_terms(params, phi) + _y_terms(params), 4.0 * params.omega)
    if name in ("Q", "Qdag"):
        return _scaled(_terms("W+" if name == "Q" else "V-", params, phi), 2.0 * math.sqrt(params.omega))
    if name == "Y":
        return _y_terms(params)
    if name in ("V+", "V-", "W+", "W-"):
        return _odd_terms(params, phi, +1.0 if name[1] == "+" else -1.0, name[0])
    if name not in ("K0", "K+", "K-"):
        raise ValueError(f"unknown operator {name!r}")
    # K0 = H_k / (4 omega) + Gamma
    k0 = _scaled(_h_terms(params, phi), 0.25 / params.omega) + _gamma_terms(params, phi)
    if name == "K0":
        return k0
    # K+- = -K0 + z/2 -+ (z d_z + 1/2) with z = omega r^2, z d_z = r d_r / 2
    sgn = 1.0 if name == "K+" else -1.0
    return _scaled(k0, -1.0) + [
        _Term(0.5 * params.omega, 2, 0, 1.0, _EYE, 0),
        _Term(-0.5 * sgn, 1, 1, 1.0, _EYE, 0),
        _Term(-0.5 * sgn, 0, 0, 1.0, _EYE, 0),
    ]


def _groups(terms: list[_Term]) -> list[tuple]:
    """The table's terms grouped by (fermion matrix, d_r, d_phi), as
    (row map, d_r, d_phi, terms) in order of first appearance."""
    by_key: dict[tuple, list] = {}
    for t in terms:
        by_key.setdefault((id(t.fermion), t.d_r, t.d_phi), []).append(t)
    return [(_ROW_MAPS[m_id], d_r, d_phi, ts) for (m_id, d_r, d_phi), ts in by_key.items()]


def _apply_groups(groups: list[tuple], bundle: StateBundle, r) -> np.ndarray:
    """Pointwise sum of the grouped terms on a state's bundle at radii r.
    A group's coefficients are summed first, into one array.  Each
    fermion matrix acts as its row map on the components the bundle
    reaches only: a group that maps none of them is skipped before its
    coefficient array is formed, and no other component is read."""
    derivs = {(0, 0): bundle.val, (1, 0): bundle.d_r, (2, 0): bundle.d_rr, (0, 1): bundle.d_phi, (0, 2): bundle.d_phiphi}
    out = np.zeros_like(bundle.val)
    for rows, d_r, d_phi, terms in groups:
        hits = [(i, j, v) for i, j, v in rows if j in bundle.reached]
        if not hits:
            continue
        c = 0.0
        for t in terms:
            c = c + t.coef * r**t.r_pow * t.theta
        for i, j, v in hits:
            part = c * derivs[d_r, d_phi][j]
            # the products a dense 4 x 4 matmul would add are exact zeros
            if v == 1.0:
                out[i] += part
            elif v == -1.0:
                out[i] -= part
            else:
                out[i] += v * part
    return out


def _apply_terms(terms: list[_Term], bundle: StateBundle, r) -> np.ndarray:
    """Pointwise sum of the terms (angular functions sampled on the
    bundle's angles) on a state's bundle at radii r."""
    return _apply_groups(_groups(terms), bundle, r)


def _apply_d_superpotential(bundle: StateBundle, params: ModelParams, r, phi):
    """D = [-Laplacian - Laplacian(W) + |grad W|^2] / (4 omega), from the
    superpotential derivatives (independent of the H_k potential form)."""
    ang = _riccati_lhs(params, phi, params.a) / r**2
    lap = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
    return (-lap + ang * bundle.val) / (4.0 * params.omega)


def apply_operators(names, bundle: StateBundle, table: FactorTable) -> list[np.ndarray]:
    """Each named operator (any name ``_terms`` knows: a generator, "H",
    "Hs", "Q", "Qdag" or "1") applied analytically to a bundle of
    ``table`` (from ``table.bundles``) at the table's points, as a list
    of spinor fields.  Each operator's grouped term table is built on
    first use and kept on the table, so every state sampled there shares
    its angular functions.  The coefficient arrays, of the grid's 2-D
    shape, are formed per application and not kept."""
    ops = table.operators
    for name in names:
        if name not in ops:
            ops[name] = _groups(_terms(name, table.params, table.phi))
    return [_apply_groups(ops[name], bundle, table.r) for name in names]


def hamiltonian_super(bundle: StateBundle, params: ModelParams, r, phi) -> np.ndarray:
    """Hs = 4 omega (K0 + Y) on a state's bundle at (r, phi), with K0
    built from the superpotential derivatives (D + omega r^2/4 + Gamma)
    instead of the H_k potential.  Its agreement with
    ``apply_operators(("Hs",), ...)`` is the operator form of the Riccati
    identity."""
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    d = _apply_d_superpotential(bundle, params, r, phi)
    k0b = d + 0.25 * params.omega * r**2 * bundle.val
    gamma_y = _apply_terms(_gamma_terms(params, phi) + _y_terms(params), bundle, r)
    return 4.0 * params.omega * (k0b + gamma_y)


# ---------------------------------------------------------------------------
# Dilation (degree -2 homogeneity) identities


def dilation_identity_residuals(state: CatalogState, params: ModelParams, r, phi, lam: float = 1.3) -> dict:
    """Residuals of the scaling identities O(f(lam .)) = lam^2 (O f)(lam .)
    for O = D and O = Gamma — the integrated form of [r d_r, O] = -2 O.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    b = state_bundle(state, params, lam * r, phi)
    # bundle of the dilated state f_lam(r, phi) = f(lam r, phi) at r
    dilated = StateBundle(b.val, lam * b.d_r, lam * lam * b.d_rr, b.d_phi, b.d_phiphi)
    rhs = lam * lam * _apply_d_superpotential(b, params, lam * r, phi)
    gamma = _gamma_terms(params, phi)
    rhs_g = lam * lam * _apply_terms(gamma, b, lam * r)
    return {
        "D": float(np.max(np.abs(_apply_d_superpotential(dilated, params, r, phi) - rhs))),
        "Gamma": float(np.max(np.abs(_apply_terms(gamma, dilated, r) - rhs_g))),
    }


# ---------------------------------------------------------------------------
# Truncated matrices in the orthonormal super-basis


def _radial_moment(R_row, R_col, grid: Grid, r_pow: int, d_r: int) -> np.ndarray:
    """Radial Gauss sums of w_r R_row r^r_pow R_col^(d_r) between factors."""
    return R_row[0].T @ (grid.w_r * grid.r**r_pow * R_col[d_r])


def _project(names, rows, cols, grid: Grid) -> dict[str, np.ndarray]:
    """{name: <row|O|col>} from the ``FactorTable.expand`` of row and
    column states on the grid: a term's entry between two factor pairs is
    the radial Gauss sum of w_r R_row r^q R_col^(d_r) times the angular
    one of w_phi S_row . theta M S_col^(d_phi).  Each distinct radial
    moment (r^q, d_r) and angular moment (theta, M, d_phi) is formed once
    and shared by every term of every operator."""
    # drop the unit axes of the grid's radial column and angular row
    (C_row, R_row, S_row), (C_col, R_col, S_col) = (
        (C.reshape(len(C), -1), R[:, :, 0], S[:, :, :, 0]) for C, R, S in (rows, cols)
    )
    n_row, n_col = S_row.shape[1], S_col.shape[1]
    rads: dict[tuple, np.ndarray] = {}
    angs: dict[tuple, np.ndarray] = {}
    out = {}
    for name in names:
        P = np.zeros((C_row.shape[1], C_col.shape[1]))
        for t in _terms(name, grid.params, grid.phi):
            rad = rads.get((t.r_pow, t.d_r))
            if rad is None:
                rad = rads[t.r_pow, t.d_r] = _radial_moment(R_row, R_col, grid, t.r_pow, t.d_r)
            # keyed on values: equal angular functions of different operators share a moment
            a_key = (np.asarray(t.theta).tobytes(), t.fermion.tobytes(), t.d_phi)
            ang = angs.get(a_key)
            if ang is None:
                weighted = (S_row[0] * (grid.w_phi * t.theta)).reshape(n_row, -1)
                ang = angs[a_key] = weighted @ (t.fermion @ S_col[t.d_phi]).reshape(n_col, -1).T
            # np.kron(rad, ang) by broadcasting: the same products, without kron's per-call overhead
            P += t.coef * (rad[:, None, :, None] * ang[None, :, None, :]).reshape(P.shape)
        out[name] = C_row @ P @ C_col.T
    return out


def project(names, rows: list[CatalogState], cols: list[CatalogState], grid: Grid) -> dict[str, np.ndarray]:
    """Matrix elements {name: <row|O|col>} between two lists of catalog
    states on one grid, for any operator names of ``_terms`` (``"1"``
    gives the plain overlap <row|col>).

    Both lists are expanded, in one call, over the 1-D radial and angular
    spinor factors of a ``FactorTable`` on the grid's nodes, and ``_project``
    contracts the expansions with every operator's term table.  So every
    entry is a sum of products of 1-D radial and angular Gauss sums:
    nothing is sampled on the 2-D grid."""
    return _project(names, *FactorTable(grid.params, grid.r, grid.phi).expand(rows, cols), grid)


def wavefunction_gram(params: ModelParams, pairs_max: tuple[int, int], m_rad: int = 80, m_ang: int = 80) -> np.ndarray:
    """Gram matrix of the normalized eigenfunctions with N <= pairs_max[0]
    and n <= pairs_max[1], ordered (N, n) with N fastest.

    The (n1, n2) block is one ``project(("1",), ...)`` of the sectors'
    zero-fermion states on the n1 + n2 pair grid, whose radial exponent
    keeps the integrand polynomial."""
    N_max, n_max = pairs_max
    size = N_max + 1
    states = [[zero_fermion_state(params, N, n) for N in range(size)] for n in range(n_max + 1)]
    gram = np.zeros(((n_max + 1) * size,) * 2)
    for s in range(2 * n_max + 1):
        grid = Grid.for_pair(params, s, 0, m_rad, m_ang)
        for n1 in range(max(0, s - n_max), s // 2 + 1):
            n2 = s - n1
            block = project(("1",), states[n1], states[n2], grid)["1"]
            gram[n1 * size : (n1 + 1) * size, n2 * size : (n2 + 1) * size] = block
            gram[n2 * size : (n2 + 1) * size, n1 * size : (n1 + 1) * size] = block.T
    return gram


def sector_matrices(
    params: ModelParams, n: int, N_max: int, m_rad: int = 80, m_ang: int = 80
) -> tuple[dict[str, np.ndarray], list[BasisState]]:
    """Matrices <i|G|j> of the eight generators over sector n's orthonormal
    super-basis with radial level <= N_max, as ``(block, states)``:
    ``block`` maps each name to the d_n x d_n matrix over ``states``
    (``irreps.sector_basis(params, n, N_max)``), in order.

    Rows of fermion parity p are integrated on the sector grid of parity
    p.  A basis state is a short sum of radial times angular spinor
    factors, a generator a table of separable terms and the grid weights
    a product of 1-D radial and angular weights, so each entry is a sum
    of products of 1-D radial and angular Gauss sums (``_project``, on
    one expansion of each sector grid's even and odd states); nothing is
    sampled on the 2-D grid.
    """
    bs = sector_basis(params, n, N_max)
    # the sector's even and its odd states, as indices into bs
    parts = [[i for i, s in enumerate(bs) if s.state.fermion_parity() == p] for p in (0, 1)]
    block = {g: np.zeros((len(bs), len(bs))) for g in GENERATOR_NAMES}
    for p_out in (0, 1):
        grid = Grid.for_pair(params, n, n, m_rad, m_ang, odd=bool(p_out))
        expanded = list(FactorTable(params, grid.r, grid.phi).expand(*([bs[i].state for i in part] for part in parts)))
        for p_in in (0, 1):
            gens = [g for g in GENERATOR_NAMES if p_out ^ GENERATOR_PARITY[g] == p_in]
            for g, part in _project(gens, expanded[p_out], expanded[p_in], grid).items():
                block[g][np.ix_(parts[p_out], parts[p_in])] = part
    return block, bs


def generator_matrices(
    params: ModelParams, truncation: tuple[int, int], m_rad: int = 80, m_ang: int = 80
) -> tuple[list[dict[str, np.ndarray]], list[BasisState]]:
    """Matrices <i|G|j> of the eight generators over the orthonormal
    super-basis with radial level <= N_max and sector n <= n_max, as
    ``(blocks, basis)``: ``sector_matrices`` of every sector.

    Generators preserve the angular sector, so only the diagonal blocks
    are formed: ``blocks[n]`` maps each name to the d_n x d_n matrix over
    sector n's states, which are the entries of the sector-major list
    ``basis`` with ``s.n == n``, in order.  That the operators do not
    couple sectors is shown by the ``block-diagonality`` check of
    verify's irreps suite, which projects cross-sector elements the same
    way.
    """
    N_max, n_max = truncation
    if N_max < 2 or n_max < 2:
        raise ValueError("truncation must be at least (2, 2)")

    blocks, basis = [], []
    for n in range(n_max + 1):
        block, states = sector_matrices(params, n, N_max, m_rad, m_ang)
        blocks.append(block)
        basis += states
    return blocks, basis


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
    """Max-abs residual of every (anti)commutation relation within one
    block of generator matrices (one angular sector, or the whole
    oscillator realization), restricted to the block's interior rows
    and columns.  The products are formed from the interior rows and
    columns only; a NaN entry gives a NaN residual, and so does an
    empty interior."""
    inner, every = np.flatnonzero(interior), np.arange(len(interior))
    # interior rows, interior columns and interior square of every matrix;
    # np.ix_ keeps each copy C-ordered (m[:, inner] would be Fortran-ordered
    # and take another BLAS path, changing the last bits)
    cuts = {g: (m[np.ix_(inner, every)], m[np.ix_(every, inner)], m[np.ix_(inner, inner)]) for g, m in mats.items()}
    out = []
    for kind, a, b, rhs in RELATIONS:
        ab = cuts[a][0] @ cuts[b][1]
        ba = cuts[b][0] @ cuts[a][1]
        lhs = ab - ba if kind == "comm" else ab + ba
        for gname, coeff in rhs.items():
            lhs = lhs - coeff * cuts[gname][2]
        symbol = "[{},{}]".format(a, b) if kind == "comm" else "{{{},{}}}".format(a, b)
        rhs_text = " ".join(f"{c:+g} {g}" for g, c in rhs.items()) if rhs else "0"
        out.append(RelationCheck(f"{symbol} = {rhs_text}", float(np.max(np.abs(lhs))) if inner.size else float("nan")))
    return out


def hermiticity_residuals(mats: dict[str, np.ndarray]) -> dict[str, float]:
    """Transpose relations within one block of generator matrices (real
    orthonormal basis)."""
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
