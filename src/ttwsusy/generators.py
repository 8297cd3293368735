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

to the deformed oscillator H_k.  The eight generators are dimensionless,
so this module works in oscillator units, r the oscillator radius
rho = sqrt(omega) r_phys (see ``model``), and takes no omega: its tables
are the generators, H_k / omega ("H"), Hs / omega ("Hs"), Q / sqrt(omega)
("Q"), Qdag / sqrt(omega) ("Qdag") and the identity "1", each of them
the omega = 1 operator in rho.  Each operator is written once, as a
table of separable terms coef r^q theta(phi) M d_r^i d_phi^j with M a
fixed-basis fermion matrix, and ``_terms`` is the one map from an
operator name to its table.  ``apply_operators`` is the one
pointwise route: it applies tables analytically to the derivative
bundle of a state of one ``FactorTable``, exactly at every sample
point, and keeps the tables, with each term group's coefficient array
once formed, on the ``FactorTable``; every fermion matrix has at most
one nonzero per row and acts as that row map on the spinor components
the bundle reaches, and nowhere else, so an image is a compact
``states.SpinorField`` of the components it reaches.
``_project``, the one projection routine, contracts the same tables
with 1-D radial and angular Gauss sums between two expansions of
states, so the algebra residuals measure the formulas, not a
discretization.  It takes the tables of all its operators at once, as
one stack of index arrays per operator list and set (``_stacked``):
every distinct radial moment comes from one batched product, every
distinct angular moment from another, and every operator's P from one
matrix product.  Both routes read each table from the angular row of
their points (``_row_terms``), which evaluates its angular functions
theta once per row: once per set on a grid.  How states break into
radial and angular factors is ``states.FactorTable.expand``:
``sector_matrices`` expands a sector's even and odd states, the two
halves of its basis, in one call on both of its grids' radial nodes,
and writes each (row parity, column parity) quarter of a block as one
slice of rows by one slice of columns; ``project`` expands a row and a
column list on one grid, as ``wavefunction_gram`` and verify's other
integral checks (cross-sector elements, one-fermion overlaps) use it.
``hamiltonian_super`` stays apart on purpose: it builds Hs from the
superpotential instead of the H_k potential, as the independent
reference of that identity.  Every generator preserves the angular
sector n, so the matrices are built one block per sector
(``sector_matrices``; ``generator_matrices`` is every sector's), and
the relation, Hermiticity and Casimir checks each work on one block.

``oscillator_realization`` provides the independent boson-fermion
matrix model of the same algebra on one boson and one fermion mode,
the paper's osp(2|2,R) = su(1,1|1) (no wavefunctions involved), used
as a control for the structure-constant checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import fock
from .irreps import BasisState, sector_basis, zero_fermion_state
from .model import AngularRow, Grid, ModelParams
from .states import CatalogState, FactorTable, SpinorField, StateBundle, state_bundle

__all__ = [
    "GENERATOR_NAMES",
    "GENERATOR_PARITY",
    "OscillatorRealization",
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
# Every term of ``_terms`` carries one of these matrices; the term tables
# that angular rows keep share them, so they are read-only.
_MATRICES = (_BX, _BY, _BDX, _BDY, _NXX, _NYY, _NXY_YX, _FNUM, _EYE)
_ROW_MAPS = {id(m): _row_map(m) for m in _MATRICES}
# the same matrices stacked, for the projection's batched angular moments,
# and each one's place in the stack
_FERMIONS = np.stack(_MATRICES)
_FERMION_INDEX = {id(m): i for i, m in enumerate(_MATRICES)}
for _m in (*_MATRICES, _FERMIONS):
    _m.flags.writeable = False


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
    """Deformed-oscillator Hamiltonian H_k / omega, acting per spinor component."""
    k, a, b = params.k, params.a, params.b
    pot = k * k * (a * (a - 1.0) / np.cos(k * phi) ** 2 + b * (b - 1.0) / np.sin(k * phi) ** 2)
    return [
        _Term(-1.0, 0, 2, 1.0, _EYE, 0),
        _Term(-1.0, -1, 1, 1.0, _EYE, 0),
        _Term(-1.0, -2, 0, 1.0, _EYE, 2),
        _Term(1.0, 2, 0, 1.0, _EYE, 0),
        _Term(1.0, -2, 0, pot, _EYE, 0),
    ]


def _gamma_terms(params: ModelParams, phi) -> list[_Term]:
    """Gamma = k / (2 r^2) [g_xx N_xx + g_xy (N_xy + N_yx) + g_yy N_yy]
    in the fixed fermion basis, N_ij = bdag_i b_j."""
    k, a, b = params.k, params.a, params.b
    ck, sk = np.cos(k * phi), np.sin(k * phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    ckm2, skm2 = np.cos((k - 2.0) * phi), np.sin((k - 2.0) * phi)
    pa, pb = a / ck**2, b / sk**2
    g_xx = pa * (ckm2 * ck + 0.5 * k * (1.0 - c2)) + pb * (skm2 * sk + 0.5 * k * (1.0 - c2))
    g_xy = -pa * (skm2 * ck + 0.5 * k * s2) + pb * (ckm2 * sk - 0.5 * k * s2)
    g_yy = pa * (-ckm2 * ck + 0.5 * k * (1.0 + c2)) + pb * (-skm2 * sk + 0.5 * k * (1.0 + c2))
    pref = k / 2.0
    return [_Term(pref, -2, 0, g_xx, _NXX, 0), _Term(pref, -2, 0, g_xy, _NXY_YX, 0), _Term(pref, -2, 0, g_yy, _NYY, 0)]


def _y_terms(params: ModelParams) -> list[_Term]:
    """Y = N_f / 2 - [k(a+b) + 1] / 2 with N_f the fermion number."""
    shift = 0.5 * (-params.k * (params.a + params.b) - 1.0)
    return [_Term(0.5, 0, 0, 1.0, _FNUM, 0), _Term(shift, 0, 0, 1.0, _EYE, 0)]


def _odd_terms(params: ModelParams, phi, sign: float, kind: str) -> list[_Term]:
    """Odd generator (mx fx + my fy) / 2 in the fixed basis,
    with (mx, my) = (bdag_x, bdag_y) for kind 'V' and (b_x, b_y) for kind
    'W', and ``sign`` +1/-1 for the raising/lowering member."""
    k, a, b = params.k, params.a, params.b
    c, s = np.cos(phi), np.sin(phi)
    ck, sk = np.cos(k * phi), np.sin(k * phi)
    ckm1, skm1 = np.cos((k - 1.0) * phi), np.sin((k - 1.0) * phi)
    mx, my = (_BDX, _BDY) if kind == "V" else (_BX, _BY)
    hf = (1.0 if kind == "V" else -1.0) * sign * 0.5
    terms = []
    for m, t_r, t_phi, t_0 in (
        (mx, c, s, k * a * ckm1 / ck + k * b * skm1 / sk),
        (my, s, -c, -k * a * skm1 / ck + k * b * ckm1 / sk),
    ):
        terms += [_Term(-sign * 0.5, 0, 1, t_r, m, 0), _Term(sign * 0.5, -1, 0, t_phi, m, 1)]
        terms += [_Term(0.5, 1, 0, t_r, m, 0), _Term(hf, -1, 0, t_0, m, 0)]
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
        # (H_k + 4 omega (Gamma + Y)) / omega, with the explicit deformed-oscillator potential
        return _h_terms(params, phi) + _scaled(_gamma_terms(params, phi) + _y_terms(params), 4.0)
    if name in ("Q", "Qdag"):
        return _scaled(_terms("W+" if name == "Q" else "V-", params, phi), 2.0)
    if name == "Y":
        return _y_terms(params)
    if name in ("V+", "V-", "W+", "W-"):
        return _odd_terms(params, phi, +1.0 if name[1] == "+" else -1.0, name[0])
    if name not in ("K0", "K+", "K-"):
        raise ValueError(f"unknown operator {name!r}")
    # K0 = H_k / (4 omega) + Gamma
    k0 = _scaled(_h_terms(params, phi), 0.25) + _gamma_terms(params, phi)
    if name == "K0":
        return k0
    # K+- = -K0 + z/2 -+ (z d_z + 1/2) with z = r^2, z d_z = r d_r / 2
    sgn = 1.0 if name == "K+" else -1.0
    return _scaled(k0, -1.0) + [
        _Term(0.5, 2, 0, 1.0, _EYE, 0),
        _Term(-0.5 * sgn, 1, 1, 1.0, _EYE, 0),
        _Term(-0.5 * sgn, 0, 0, 1.0, _EYE, 0),
    ]


def _row_terms(name: str, params: ModelParams, row: AngularRow) -> list[_Term]:
    """``_terms`` of ``name`` on the row's angles, kept by the row, so that
    every grid of a set reads one table of each operator."""
    return row.value(("terms", name), lambda: _terms(name, params, row.phi))


@dataclass
class _Group:
    """The terms of one table that share (fermion matrix, d_r, d_phi), on
    one set of points: ``rows`` is the matrix's row map, and ``coef`` the
    array of sum coef r^q theta, formed by ``coefficient`` on first use
    and kept."""

    rows: tuple
    d_r: int
    d_phi: int
    terms: list
    coef: np.ndarray | float | None = None

    def coefficient(self, r) -> np.ndarray | float:
        if self.coef is None:
            c = 0.0
            for t in self.terms:
                c = c + t.coef * r**t.r_pow * t.theta
            self.coef = c
        return self.coef


def _groups(terms: list[_Term]) -> list[_Group]:
    """The table's terms grouped by (fermion matrix, d_r, d_phi), in order
    of first appearance."""
    by_key: dict[tuple, list] = {}
    for t in terms:
        by_key.setdefault((id(t.fermion), t.d_r, t.d_phi), []).append(t)
    return [_Group(_ROW_MAPS[m_id], d_r, d_phi, ts) for (m_id, d_r, d_phi), ts in by_key.items()]


def _apply_groups(groups: list[_Group], bundle: StateBundle, r) -> SpinorField:
    """Pointwise sum of the grouped terms on a state's bundle at radii r,
    as a field of the components it reaches.  Each fermion matrix acts
    as its row map on the components the bundle reaches only: a group
    that maps none of them is skipped before its coefficient array is
    formed, and no other component is read."""
    derivs = {(0, 0): bundle.val, (1, 0): bundle.d_r, (2, 0): bundle.d_rr, (0, 1): bundle.d_phi, (0, 2): bundle.d_phiphi}
    source = {j: row for row, j in enumerate(bundle.reached)}
    hit_groups = []
    for group in groups:
        hits = [(i, source[j], v) for i, j, v in group.rows if j in source]
        if hits:
            hit_groups.append((group, hits))
    reached = tuple(sorted({i for _, hits in hit_groups for i, _, _ in hits}))
    target = {i: row for row, i in enumerate(reached)}
    out = np.empty((len(reached), *bundle.val.shape[1:]))
    written = set()
    # only the row maps' nonzeros: the products a dense 4 x 4 matmul would add are exact zeros
    for group, hits in hit_groups:
        c = group.coefficient(r)
        for i, j, v in hits:
            row, d = out[target[i]], derivs[group.d_r, group.d_phi][j]
            if i not in written:
                # a component's first term is written in place, not added to zeros
                written.add(i)
                np.multiply(c, d, out=row)
                if v != 1.0:
                    row *= v
            elif v == 1.0:
                row += c * d
            elif v == -1.0:
                row -= c * d
            else:
                row += v * (c * d)
    return SpinorField(out, reached)


def _apply_terms(terms: list[_Term], bundle: StateBundle, r) -> SpinorField:
    """Pointwise sum of the terms (angular functions sampled on the
    bundle's angles) on a state's bundle at radii r."""
    return _apply_groups(_groups(terms), bundle, r)


def _apply_d_superpotential(bundle: StateBundle, params: ModelParams, r, phi):
    """D = [-Laplacian - Laplacian(W) + |grad W|^2] / (4 omega), which in
    oscillator units is the same with omega = 1, from the superpotential
    derivatives (independent of the H_k potential form), on the rows of
    the bundle."""
    ang = _riccati_lhs(params, phi, params.a) / r**2
    lap = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
    return (-lap + ang * bundle.val) / 4.0


def apply_operators(names, bundle: StateBundle, table: FactorTable) -> list[SpinorField]:
    """Each named operator (any name ``_terms`` knows: a generator, "H",
    "Hs", "Q", "Qdag" or "1") applied analytically to a bundle of
    ``table`` (from ``table.bundles``) at the table's points, as a list
    of compact spinor fields.  Each operator's grouped term table is
    built on first use and kept on the table, so every state sampled
    there shares its angular functions (which the table's angular row
    keeps, on a grid the set's), and so is each group's coefficient
    array, of the grid's 2-D shape, once a state first reaches the
    group."""
    ops = table.operators
    for name in names:
        if name not in ops:
            ops[name] = _groups(_row_terms(name, table.params, table.row))
    return [_apply_groups(ops[name], bundle, table.r) for name in names]


def hamiltonian_super(bundle: StateBundle, params: ModelParams, r, phi) -> SpinorField:
    """Hs / omega = 4 (K0 + Y) on a state's bundle at (r, phi), with K0
    built from the superpotential derivatives (D + r^2/4 + Gamma)
    instead of the H_k potential, as a compact field.  Its agreement
    with ``apply_operators(("Hs",), ...)`` is the operator form of the
    Riccati identity."""
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    d = _apply_d_superpotential(bundle, params, r, phi)
    k0b = SpinorField(d + 0.25 * r**2 * bundle.val, bundle.reached)
    gamma_y = _apply_terms(_gamma_terms(params, phi) + _y_terms(params), bundle, r)
    reached = tuple(sorted({*k0b.reached, *gamma_y.reached}))
    return SpinorField(4.0 * (k0b.on(reached) + gamma_y.on(reached)), reached)


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
    # b and dilated reach all four components, so both Gamma images reach the same ones
    rhs_g = lam * lam * _apply_terms(gamma, b, lam * r).rows
    return {
        "D": float(np.max(np.abs(_apply_d_superpotential(dilated, params, r, phi) - rhs))),
        "Gamma": float(np.max(np.abs(_apply_terms(gamma, dilated, r).rows - rhs_g))),
    }


# ---------------------------------------------------------------------------
# Truncated matrices in the orthonormal super-basis


_Stack = namedtuple("_Stack", "r_pow d_r w_theta fermion d_phi rad ang coef name")


def _stack(names: tuple, grid: Grid) -> _Stack:
    """The term tables of ``names`` on the grid's angles as index arrays,
    kept by the set's angular row (``_stacked``): the distinct radial
    moments (``r_pow``, ``d_r``); the distinct angular moments, each a
    weighted angular function w_phi theta (a row of m_ang entries, equal
    functions of different operators shared), a fermion matrix (an index
    into ``_FERMIONS``) and ``d_phi``; and per term its radial moment
    ``rad``, angular moment ``ang``, ``coef`` and operator ``name``, the
    index into ``names``."""
    rads: dict[tuple, int] = {}
    angs: dict[tuple, int] = {}
    w_theta = []
    terms = []
    for i, name in enumerate(names):
        for t in _row_terms(name, grid.params, grid.angular):
            w = (grid.w_phi * t.theta).ravel()
            a_key = (w.tobytes(), _FERMION_INDEX[id(t.fermion)], t.d_phi)
            if a_key not in angs:
                angs[a_key] = len(angs)
                w_theta.append(w)
            terms.append((rads.setdefault((t.r_pow, t.d_r), len(rads)), angs[a_key], t.coef, i))
    rad, ang, coef, name = (np.array(column) for column in zip(*terms))
    r_pow, d_r = (np.array(column) for column in zip(*rads))
    _, fermion, d_phi = (np.array(column) for column in zip(*angs))
    return _Stack(r_pow, d_r, w_theta, fermion, d_phi, rad, ang, coef, name)


def _stacked(names: tuple, grid: Grid) -> _Stack:
    """``_stack`` of ``names``, built once per set and kept by its row."""
    return grid.angular.value(("terms", names), lambda: _stack(names, grid))


def _radial_moments(st: _Stack, R_row, R_col, grid: Grid) -> np.ndarray:
    """Each distinct radial moment of the stack, in one batched product:
    (moments, row keys, column keys), R_row^T (w_r r^q R_col^(d_r))."""
    w_rq = np.stack([grid.w_r * grid.r**q for q in st.r_pow.tolist()])
    return np.matmul(R_row[0].T, w_rq * R_col[st.d_r])


def _angular_moments(st: _Stack, S_row, S_col) -> np.ndarray:
    """Each distinct angular moment of the stack, in one batched product:
    (moments, row keys, column keys), (S_row w_phi theta) . (M
    S_col^(d_phi)) summed over the components and the angles."""
    left = S_row[0] * np.stack(st.w_theta)[:, None, None, :]
    right = np.matmul(_FERMIONS[st.fermion][:, None], S_col[st.d_phi])
    return np.matmul(left.reshape(len(left), len(S_row[0]), -1), right.reshape(len(right), S_col.shape[1], -1).transpose(0, 2, 1))


def _project(names, rows, cols, grid: Grid) -> dict[str, np.ndarray]:
    """{name: <row|O|col>} from the ``FactorTable.expand`` of row and
    column states on the grid: a term's entry between two factor pairs is
    the radial Gauss sum of w_r R_row r^q R_col^(d_r) times the angular
    one of w_phi S_row . theta M S_col^(d_phi).  The term tables of all
    the operators are contracted at once, from their stack
    (``_stacked``): every distinct radial moment in one batched product,
    every distinct angular moment in another, and P, each operator's sum
    over its terms of coef times the Kronecker product of the term's two
    moments, for every operator in one matrix product over the radial
    moments, once the terms' coefficients are summed per (operator,
    radial moment, angular moment).  Then <row|O|col> = C_row P C_col^T."""
    names = tuple(names)
    st = _stacked(names, grid)
    # drop the unit axes of the grid's radial column and angular row
    (C_row, R_row, S_row), (C_col, R_col, S_col) = (
        (C.reshape(len(C), -1), R[:, :, 0], S[:, :, :, 0]) for C, R, S in (rows, cols)
    )
    nr_row, nr_col, na_row, na_col = R_row.shape[2], R_col.shape[2], S_row.shape[1], S_col.shape[1]
    rad = _radial_moments(st, R_row, R_col, grid).reshape(-1, nr_row * nr_col)
    ang = _angular_moments(st, S_row, S_col).reshape(-1, na_row * na_col)
    # per (name, radial moment), the coefficient-weighted sum of the angular moments its terms pair with it
    coef = np.zeros((len(names), len(rad), len(ang)))
    np.add.at(coef, (st.name, st.rad, st.ang), st.coef)
    P = rad.T @ (coef @ ang).transpose(1, 0, 2).reshape(len(rad), -1)
    # (row radial, column radial, name, row angular, column angular) to one P per name over (radial, angular) pairs
    P = P.reshape(nr_row, nr_col, len(names), na_row, na_col).transpose(2, 0, 3, 1, 4)
    P = P.reshape(len(names), nr_row * na_row, nr_col * na_col)
    return dict(zip(names, np.matmul(np.matmul(C_row, P), C_col.T)))


def project(names, rows: list[CatalogState], cols: list[CatalogState], grid: Grid) -> dict[str, np.ndarray]:
    """Matrix elements {name: <row|O|col>} between two lists of catalog
    states on one grid, for any operator names of ``_terms`` (``"1"``
    gives the plain overlap <row|col>).

    Both lists are expanded, in one call, over the 1-D radial and angular
    spinor factors of a ``FactorTable`` on the grid's nodes, and ``_project``
    contracts the expansions with every operator's term table.  So every
    entry is a sum of products of 1-D radial and angular Gauss sums:
    nothing is sampled on the 2-D grid."""
    return _project(names, *FactorTable.on(grid).expand(rows, cols), grid)


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
    of products of 1-D radial and angular Gauss sums; nothing is sampled
    on the 2-D grid.  The basis is written from the closed forms
    (``irreps.sector_basis``), its even states first and its odd states
    after them; the two halves are expanded in one call on the two grids'
    radial nodes, stacked, since both grids read the set's angular row,
    so each of the sector's radial keys comes from one Laguerre pass; and
    each (row parity, column parity) quarter of the four generators that
    map between them is one ``_project`` call, written into the blocks as
    one slice of rows by one slice of columns.
    """
    bs = sector_basis(params, n, N_max)
    # the even states, then the odd ones
    d0 = sum(not s.parity for s in bs)
    halves = (slice(0, d0), slice(d0, len(bs)))
    block = {g: np.zeros((len(bs), len(bs))) for g in GENERATOR_NAMES}
    grids = [Grid.for_pair(params, n, n, m_rad, m_ang, odd=odd) for odd in (False, True)]
    # both grids read the set's angular row: one expansion on their radial nodes, stacked
    expanded = list(FactorTable.on(*grids).expand(*([s.state for s in bs[half]] for half in halves)))
    m = len(grids[0].r)
    for p_out, grid in enumerate(grids):
        on_grid = [(C, R[:, p_out * m : (p_out + 1) * m], S) for C, R, S in expanded]
        for p_in in (0, 1):
            gens = [g for g in GENERATOR_NAMES if p_out ^ GENERATOR_PARITY[g] == p_in]
            for g, part in _project(gens, on_grid[p_out], on_grid[p_in], grid).items():
                block[g][halves[p_out], halves[p_in]] = part
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
    ``basis`` with ``s.n == n``, in order: the sector's even states, then
    its odd ones.  That the operators do not couple sectors is shown by
    the ``block-diagonality`` check of verify's irreps suite, which
    projects cross-sector elements the same way.
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


def interior_mask(basis: list[BasisState], N_max: int, depth: int = 1) -> np.ndarray:
    """States whose ladder images up to ``depth`` steps stay inside the
    radial truncation N_max (fermion sector unrestricted): the states of
    level at most N_max - depth.  No generator leaves the angular sector,
    so every sector, the top one n_max included, has the same interior,
    and the angular truncation does not enter."""
    return np.array([s.level <= N_max - depth for s in basis])


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


def check_structure_constants(mats: dict[str, np.ndarray], interior: np.ndarray) -> dict[str, float]:
    """{relation: max-abs residual} of every (anti)commutation relation
    within one block of generator matrices (one angular sector, or the
    whole oscillator realization), restricted to the block's interior
    rows and columns, in the order of ``RELATIONS``.  The products are
    formed from the interior rows and columns only; a NaN entry gives a
    NaN residual, and so does an empty interior."""
    inner, every = np.flatnonzero(interior), np.arange(len(interior))
    # interior rows, interior columns and interior square of every matrix;
    # np.ix_ keeps each copy C-ordered (m[:, inner] would be Fortran-ordered
    # and take another BLAS path, changing the last bits)
    cuts = {g: (m[np.ix_(inner, every)], m[np.ix_(every, inner)], m[np.ix_(inner, inner)]) for g, m in mats.items()}
    out = {}
    for kind, a, b, rhs in RELATIONS:
        ab = cuts[a][0] @ cuts[b][1]
        ba = cuts[b][0] @ cuts[a][1]
        lhs = ab - ba if kind == "comm" else ab + ba
        for gname, coeff in rhs.items():
            lhs = lhs - coeff * cuts[gname][2]
        symbol = "[{},{}]".format(a, b) if kind == "comm" else "{{{},{}}}".format(a, b)
        rhs_text = " ".join(f"{c:+g} {g}" for g, c in rhs.items()) if rhs else "0"
        out[f"{symbol} = {rhs_text}"] = float(np.max(np.abs(lhs))) if inner.size else float("nan")
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


def oscillator_realization() -> OscillatorRealization:
    """Generators on one boson mode a and one fermion mode b, truncated at
    12 boson quanta (dimension 24):

        K0 = (adag a + 1/2)/2     K+ = adag^2 / 2
        K- = a^2 / 2              Y  = (bdag b - 1/2)/2
        V+ = adag bdag / sqrt(2)  V- = a bdag / sqrt(2)
        W+ = adag b / sqrt(2)     W- = a b / sqrt(2)

    ``boson_numbers`` holds the boson number of each basis state; the
    interior mask keeps the states at least two quanta below the
    cutoff, where products of two generators are represented exactly.
    """
    cutoff = 12
    a = np.kron(np.diag(np.sqrt(np.arange(1, cutoff)), k=1), np.eye(2))
    b = np.kron(np.eye(cutoff), fock.jordan_wigner(1)[0])
    ad, bd = a.T, b.T
    eye = np.eye(2 * cutoff)
    mats = {
        "K0": 0.5 * (ad @ a + 0.5 * eye),
        "K+": 0.5 * (ad @ ad),
        "K-": 0.5 * (a @ a),
        "Y": 0.5 * (bd @ b - 0.5 * eye),
        "V+": ad @ bd / math.sqrt(2.0),
        "V-": a @ bd / math.sqrt(2.0),
        "W+": ad @ b / math.sqrt(2.0),
        "W-": a @ b / math.sqrt(2.0),
    }
    numbers = np.rint(np.diag(ad @ a)).astype(int)
    return OscillatorRealization(mats, numbers <= cutoff - 3, numbers)
