import math
import re

import numpy as np
import pytest
from scipy.linalg import block_diag

import ttwsusy.generators as gen
import ttwsusy.states as states_module
from ttwsusy.fock import jordan_wigner
from ttwsusy.generators import (
    GENERATOR_NAMES,
    GENERATOR_PARITY,
    RELATIONS,
    _EYE,
    _ROW_MAPS,
    _gamma_terms,
    _terms,
    apply_operators,
    check_structure_constants,
    dilation_identity_residuals,
    generator_matrices,
    hamiltonian_super,
    hermiticity_residuals,
    interior_mask,
    oscillator_realization,
    project,
    riccati_residual,
    superpotential,
)
from ttwsusy.irreps import (
    k_ladder_coeff,
    one_fermion_state,
    sector_basis,
    sp2_family_state,
    two_fermion_state,
    v_action,
    zero_fermion_state,
)
from ttwsusy.model import Grid, ModelParams, energy, weights_of
from ttwsusy.special_cases import random_polygauss
from ttwsusy.states import FactorTable, state_field
from ttwsusy.verify import SuiteConfig

from sampled import sampled_inner

PARAM_SETS = [
    ModelParams(k=1.0, a=1.0, b=1.0, omega=1.0),
    ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0),
    ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0),
]
IDS = ["k=1", "k=2", "k=sqrt2"]

MR = MA = 56  # quadrature orders for the unit tests

# fixed-basis components that a state of each fermion parity occupies
PARITY_COMPONENTS = {0: [0, 3], 1: [1, 2]}


def apply(name, state, p, r, phi):
    """Operator ``name`` applied to a catalog state at (r, phi), as the
    dense (4, *shape) array of its compact image."""
    table = FactorTable(p, r, phi)
    (bundle,) = table.bundles([state])
    (image,) = apply_operators((name,), bundle, table)
    return image.dense()


def sector_grid(p, n):
    """Sector n's one grid, exact for states of either fermion parity."""
    return Grid.for_pair(p, n, n, MR, MA)


class TestSuperpotential:
    def test_reference_value(self):
        p = ModelParams(k=1.0, a=1.0, b=1.0)
        assert superpotential(p, 1.0, math.pi / 4) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_radial_derivative_is_constant(self):
        p = ModelParams(k=2.0, a=1.5, b=2.5)
        h = 1e-6
        for r in (0.7, 1.9):
            slope = (superpotential(p, r + h, 0.3) - superpotential(p, r - h, 0.3)) / (2 * h)
            assert r * slope == pytest.approx(-p.k * (p.a + p.b), rel=1e-8)

    def test_divergence_toward_angular_edge(self):
        p = ModelParams(k=2.0, a=1.5, b=2.5)
        assert superpotential(p, 1.0, 1e-8) > superpotential(p, 1.0, 1e-3) > superpotential(p, 1.0, 0.3)

    def test_boundary_error(self):
        p = ModelParams(k=2.0, a=1.5, b=2.5)
        with pytest.raises(ValueError):
            superpotential(p, 1.0, 0.0)
        with pytest.raises(ValueError):
            superpotential(p, 0.0, 0.1)


    @pytest.mark.parametrize(
        "r, phi, match",
        [
            (math.nan, 0.3, "r must be finite and positive"),
            (math.inf, 0.3, "r must be finite and positive"),
            (-1.0, 0.3, "r must be finite and positive"),
            (1.0, math.nan, "phi must lie strictly inside"),
            (1.0, math.inf, "phi must lie strictly inside"),
            (1.0, 0.8, "phi must lie strictly inside"),
            (1.0, [0.3, math.nan], "phi must lie strictly inside"),
        ],
        ids=["r-nan", "r-inf", "r-negative", "phi-nan", "phi-inf", "phi-past-max", "phi-nan-in-array"],
    )
    def test_domain_probes(self, r, phi, match):
        with pytest.raises(ValueError, match=match):
            superpotential(ModelParams(k=2.0, a=1.5, b=2.5), r, phi)


class TestRiccati:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, 0.0, 0.8, [0.3, math.nan]], ids=["nan", "inf", "zero", "past-max", "nan-in-array"])
    def test_domain_probes(self, phi):
        p = ModelParams(k=2.0, a=1.5, b=2.5)
        for perturb_a in (0.0, 0.01):
            with pytest.raises(ValueError, match=re.escape("phi must lie strictly inside (0, pi/(2k))")):
                riccati_residual(p, phi, perturb_a)

    @pytest.mark.parametrize("p", PARAM_SETS + [ModelParams(k=2.5, a=0.8, b=1.3)], ids=IDS + ["k=2.5"])
    def test_identity_holds(self, p):
        phi = np.linspace(p.phi_max / 51, 50 * p.phi_max / 51, 50)
        assert np.max(riccati_residual(p, phi)) < 1e-10

    def test_perturbation_control(self):
        p = ModelParams(k=2.0, a=1.5, b=2.5)
        phi = np.linspace(p.phi_max / 51, 50 * p.phi_max / 51, 50)
        assert np.max(riccati_residual(p, phi, perturb_a=0.01)) > 1e-3


class TestZeroFermionActions:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_eigenvalue_residual(self, p):
        for n in range(3):
            grid = sector_grid(p, n)
            for N in range(3):
                st = zero_fermion_state(p, N, n)
                hv = apply("H", st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                assert np.max(np.abs(hv - energy(p, N, n) * fv)) / np.max(np.abs(fv)) < 1e-8

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_weight_action(self, p):
        st = zero_fermion_state(p, 2, 1)
        grid = sector_grid(p, 1)
        fv = state_field(st, p, grid.r, grid.phi)
        k0 = apply("K0", st, p, grid.r, grid.phi)
        w = weights_of(p, 1)
        assert np.max(np.abs(k0 - (w.tau + 2) * fv)) / np.max(np.abs(fv)) < 1e-9
        yv = apply("Y", st, p, grid.r, grid.phi)
        assert np.max(np.abs(yv - w.q * fv)) / np.max(np.abs(fv)) < 1e-12

    def test_lowering_annihilates_ground(self):
        p = PARAM_SETS[1]
        grid = sector_grid(p, 0)
        ground = zero_fermion_state(p, 0, 0)
        assert np.max(np.abs(apply("K-", ground, p, grid.r, grid.phi))) < 1e-12
        assert np.max(np.abs(apply("V-", ground, p, grid.r, grid.phi))) < 1e-12
        assert np.max(np.abs(apply("W-", ground, p, grid.r, grid.phi))) < 1e-14


class TestLadderVersusDifferential:
    """The analytic generator application must reproduce the closed-form
    expansions on every basis state where a closed form exists."""

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_weights_on_all_families(self, p):
        for n in (0, 1, 2):
            w = weights_of(p, n)
            for s in sector_basis(p, n, 2):
                grid = sector_grid(p, n)
                fv = state_field(s.state, p, grid.r, grid.phi)
                scale = np.max(np.abs(fv))
                k0 = apply("K0", s.state, p, grid.r, grid.phi)
                assert np.max(np.abs(k0 - s.k0 * fv)) / scale < 1e-9, (s.family, s.level)
                yv = apply("Y", s.state, p, grid.r, grid.phi)
                assert np.max(np.abs(yv - s.y * fv)) / scale < 1e-9

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_radial_ladder_on_all_families(self, p):
        tau_off = {"zero": 0.0, "lower": -0.5, "upper": 0.5, "double": 0.0}
        for n in (0, 1, 2):
            tau = weights_of(p, n).tau
            families = ("zero", "upper") if n == 0 else ("zero", "lower", "upper", "double")
            for family in families:
                grid = sector_grid(p, n)
                tau_f = tau + tau_off[family]
                for level in (0, 1, 2):
                    st = sp2_family_state(p, family, level, n)
                    up = state_field(sp2_family_state(p, family, level + 1, n), p, grid.r, grid.phi)
                    kp = apply("K+", st, p, grid.r, grid.phi)
                    c = k_ladder_coeff("+", tau_f, level)
                    scale = np.max(np.abs(up))
                    assert np.max(np.abs(kp - c * up)) / scale < 1e-9, (family, level)
                    km = apply("K-", st, p, grid.r, grid.phi)
                    if level == 0:
                        assert np.max(np.abs(km)) / scale < 1e-9
                    else:
                        dn = state_field(sp2_family_state(p, family, level - 1, n), p, grid.r, grid.phi)
                        assert np.max(np.abs(km - k_ladder_coeff("-", tau_f, level) * dn)) / scale < 1e-9

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_odd_actions_match_closed_forms(self, p):
        for n in (0, 1, 2):
            grid = sector_grid(p, n)
            for N in (0, 1, 2):
                st = zero_fermion_state(p, N, n)
                for sign in ("+", "-"):
                    out = apply("V" + sign, st, p, grid.r, grid.phi)
                    ref = state_field(v_action(sign, p, N, n), p, grid.r, grid.phi)
                    scale = max(np.max(np.abs(ref)), 1.0)
                    assert np.max(np.abs(out - ref)) / scale < 1e-9
                    wv = apply("W" + sign, st, p, grid.r, grid.phi)
                    assert np.max(np.abs(wv)) < 1e-12


class TestHamiltonianSuper:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_excitation_spectrum(self, p):
        for n in range(3):
            grid = sector_grid(p, n)
            for N in range(3):
                st = zero_fermion_state(p, N, n)
                hv = apply("Hs", st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                # the table is Hs / omega
                target = 4 * (N + n * p.k)
                assert np.max(np.abs(hv - target * fv)) / np.max(np.abs(fv)) < 1e-8

    def test_routes_agree(self):
        p = PARAM_SETS[2]
        grid = sector_grid(p, 1)
        table = FactorTable(p, grid.r, grid.phi)
        for bundle in table.bundles([zero_fermion_state(p, 1, 1), one_fermion_state("+", p, 0, 1), two_fermion_state(p, 1, 1)]):
            (h1,) = apply_operators(("Hs",), bundle, table)
            h2 = hamiltonian_super(bundle, p, grid.r, grid.phi)
            h1, h2 = h1.dense(), h2.dense()
            assert np.max(np.abs(h1 - h2)) / max(np.max(np.abs(h1)), 1.0) < 1e-10

    def test_ground_state_is_annihilated(self):
        p = PARAM_SETS[1]
        grid = sector_grid(p, 0)
        hv = apply("Hs", zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)
        assert np.max(np.abs(hv)) < 1e-10

    def test_unknown_operator(self):
        p = PARAM_SETS[0]
        grid = sector_grid(p, 0)
        with pytest.raises(ValueError, match="unknown operator 'magic'"):
            apply("magic", zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)


class TestOperatorTable:
    """The supersymmetric operators and the identity come from the same
    term tables as the generators, pointwise and projected."""

    def test_identity_returns_the_field(self):
        p = PARAM_SETS[2]
        grid = sector_grid(p, 1)
        table = FactorTable(p, grid.r, grid.phi)
        (bundle,) = table.bundles([two_fermion_state(p, 1, 1)])
        (image,) = apply_operators(("1",), bundle, table)
        assert image.reached == bundle.reached == (3,)
        np.testing.assert_array_equal(image.rows, bundle.val)

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_projected_susy_operators(self, p):
        grid = Grid.for_pair(p, 1, 1, 40, 40)
        even = [s.state for s in sector_basis(p, 1, 3) if s.family in ("zero", "double")]
        odd = [s.state for s in sector_basis(p, 1, 3) if s.family in ("lower", "upper")]
        m = project(("Hs", "K0", "Y"), even, even, grid)
        # the tables are Hs / omega = 4 (K0 + Y), Q / sqrt(omega) = 2 W+ and Qdag / sqrt(omega) = 2 V-
        np.testing.assert_allclose(m["Hs"], 4 * (m["K0"] + m["Y"]), rtol=0, atol=1e-10)
        # Q maps the even states onto the odd ones
        m = project(("Q", "W+", "Qdag", "V-"), odd, even, grid)
        np.testing.assert_allclose(m["Q"], 2 * m["W+"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(m["Qdag"], 2 * m["V-"], rtol=0, atol=1e-12)


class TestSupercharges:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_ground_state_annihilation(self, p):
        grid = sector_grid(p, 0)
        ground = zero_fermion_state(p, 0, 0)
        qf, qdf = apply("Q", ground, p, grid.r, grid.phi), apply("Qdag", ground, p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-10
        assert np.max(np.abs(qdf)) < 1e-10

    def test_q_annihilates_every_zero_fermion_state(self):
        p = PARAM_SETS[1]
        grid = sector_grid(p, 2)
        qf = apply("Q", zero_fermion_state(p, 2, 2), p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-12

    def test_adjoint_pair_under_quadrature(self):
        p = PARAM_SETS[1]
        n = 1
        grid = sector_grid(p, n)
        f = one_fermion_state("-", p, 1, n)
        g = zero_fermion_state(p, 1, n)
        qf = apply("Q", f, p, grid.r, grid.phi)
        qdg = apply("Qdag", g, p, grid.r, grid.phi)
        lhs = sampled_inner(grid, qf, state_field(g, p, grid.r, grid.phi))
        rhs = sampled_inner(grid, state_field(f, p, grid.r, grid.phi), qdg)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def dense(blocks):
    """The whole matrices, with the sector blocks on the diagonal."""
    return {g: block_diag(*(block[g] for block in blocks)) for g in blocks[0]}


@pytest.fixture(scope="module", params=[1, 2], ids=["k=2", "k=sqrt2"])
def built(request):
    p = PARAM_SETS[request.param]
    trunc = (4, 3)
    blocks, basis = generator_matrices(p, trunc, m_rad=MR, m_ang=MA)
    return p, trunc, blocks, basis


@pytest.fixture(scope="module")
def setup(built):
    p, trunc, blocks, basis = built
    return p, trunc, dense(blocks), basis


def sector_masks(basis, mask):
    """``mask`` split into one part per sector of the sector-major basis."""
    sectors = np.array([s.n for s in basis])
    return [mask[sectors == n] for n in range(sectors.max() + 1)]


class TestMatrices:
    def test_k0_diagonal_with_weights(self, setup):
        p, trunc, mats, basis = setup
        k0 = mats["K0"]
        assert np.max(np.abs(np.diag(k0) - np.array([s.k0 for s in basis]))) < 1e-9
        assert np.max(np.abs(k0 - np.diag(np.diag(k0)))) < 1e-9

    def test_y_diagonal_constant_on_zero_fermion_block(self, setup):
        p, trunc, mats, basis = setup
        y = mats["Y"]
        assert np.max(np.abs(y - np.diag(np.diag(y)))) < 1e-9
        sel = [i for i, s in enumerate(basis) if s.family == "zero"]
        q = weights_of(p, 0).q
        assert np.max(np.abs(np.diag(y)[sel] - q)) < 1e-9

    def test_kplus_matrix_element_formula(self, setup):
        p, trunc, mats, basis = setup
        idx = {(s.n, s.family, s.level): i for i, s in enumerate(basis)}
        tau = weights_of(p, 1).tau
        for N in range(3):
            measured = mats["K+"][idx[(1, "zero", N + 1)], idx[(1, "zero", N)]]
            assert measured == pytest.approx(math.sqrt((N + 1) * (2 * tau + N)), rel=1e-9)

    def test_structure_constants_on_interior(self, setup):
        p, trunc, mats, basis = setup
        checks = check_structure_constants(mats, interior_mask(basis, trunc[0]))
        assert len(checks) == len(RELATIONS)
        for name, res in checks.items():
            assert res < 1e-8, name

    def test_unlisted_odd_anticommutators_vanish(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc[0])
        for a, b in (("V+", "V+"), ("V+", "V-"), ("W+", "W-")):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            assert np.max(np.abs(anti[np.ix_(inner, inner)])) < 1e-10

    def test_y_odd_commutator(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc[0])
        res = mats["Y"] @ mats["V+"] - mats["V+"] @ mats["Y"] - 0.5 * mats["V+"]
        assert np.max(np.abs(res[np.ix_(inner, inner)])) < 1e-8

    def test_hermiticity(self, setup):
        _, _, mats, _ = setup
        for name, res in hermiticity_residuals(mats).items():
            assert res < 1e-9, name

    def test_susy_anticommutator_is_hamiltonian(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc[0])
        w4 = 4 * p.omega
        lhs = w4 * (mats["W+"] @ mats["V-"] + mats["V-"] @ mats["W+"])
        rhs = w4 * (mats["K0"] + mats["Y"])
        assert np.max(np.abs((lhs - rhs)[np.ix_(inner, inner)])) < 1e-8

    def test_every_generator_in_every_block(self):
        p = PARAM_SETS[1]
        blocks, basis = generator_matrices(p, (2, 2), m_rad=40, m_ang=40)
        assert all(list(block) == list(GENERATOR_NAMES) for block in blocks)
        mats = dense(blocks)
        # Y = N_f / 2 + const is diagonal in the orthonormal basis
        np.testing.assert_allclose(mats["Y"], np.diag([s.y for s in basis]), rtol=0, atol=1e-12)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            generator_matrices(PARAM_SETS[0], (1, 3))


def dense_relation_residuals(mats, interior):
    """Oracle: every relation formed from the full dense matrices, then
    restricted to the interior rows and columns."""
    out = []
    for kind, a, b, rhs in RELATIONS:
        ab, ba = mats[a] @ mats[b], mats[b] @ mats[a]
        lhs = ab - ba if kind == "comm" else ab + ba
        for g, c in rhs.items():
            lhs = lhs - c * mats[g]
        out.append(float(np.max(np.abs(lhs[np.ix_(interior, interior)]))))
    return out


def involves(relation, gname):
    _, a, b, rhs = relation
    return gname in (a, b) or gname in rhs


class TestBlockAlgebra:
    """Relations are formed one sector block at a time."""

    def test_blockwise_equals_dense_oracle(self, built):
        _, trunc, blocks, basis = built
        interior = interior_mask(basis, trunc[0])
        per_sector = [
            list(check_structure_constants(block, inner).values())
            for block, inner in zip(blocks, sector_masks(basis, interior))
            if inner.any()
        ]
        got = np.max(per_sector, axis=0)
        np.testing.assert_allclose(got, dense_relation_residuals(dense(blocks), interior), rtol=0, atol=1e-13)

    def test_oscillator_blockwise_equals_dense_oracle(self):
        # the whole realization is passed as one block
        osc = oscillator_realization()
        got = list(check_structure_constants(osc.mats, osc.interior).values())
        np.testing.assert_allclose(got, dense_relation_residuals(osc.mats, osc.interior), rtol=0, atol=1e-13)

    def test_planted_nan_reaches_the_relations_of_its_generator(self, built):
        _, trunc, blocks, basis = built
        inner = sector_masks(basis, interior_mask(basis, trunc[0]))[1]
        i = np.flatnonzero(inner)[len(inner) // 4]
        planted = dict(blocks[1], **{"V+": blocks[1]["V+"].copy()})
        planted["V+"][i, i] = np.nan
        residuals = check_structure_constants(planted, inner)
        assert len(residuals) == len(RELATIONS)
        for rel, res in zip(RELATIONS, residuals.values()):
            assert math.isnan(res) == involves(rel, "V+"), rel

    def test_empty_interior_gives_nan(self, built):
        _, _, blocks, _ = built
        nowhere = np.zeros(len(blocks[1]["K0"]), dtype=bool)
        residuals = check_structure_constants(blocks[1], nowhere)
        assert len(residuals) == len(RELATIONS) and all(math.isnan(res) for res in residuals.values())


class TestTensorGridAssembly:
    """generator_matrices contracts each generator's term table with 1-D
    radial and angular Gauss sums; every entry must equal the inner
    product of the pointwise generator output, summed over the grid's
    nodes listed point by point."""

    @pytest.mark.parametrize(
        "p, orders", [(PARAM_SETS[1], (40, 40)), (PARAM_SETS[2], (40, 40)), (PARAM_SETS[2], (30, 44))],
        ids=["k=2", "k=sqrt2", "k=sqrt2-30x44"],
    )
    def test_entries_equal_pointwise_inner_products(self, p, orders):
        trunc = (3, 3)
        m_rad, m_ang = orders
        blocks, basis = generator_matrices(p, trunc, m_rad=m_rad, m_ang=m_ang)
        mats = dense(blocks)
        grids = {n: Grid.for_pair(p, n, n, m_rad, m_ang) for n in range(trunc[1] + 1)}
        parity = [s.parity for s in basis]
        for j in range(0, len(basis), 3):
            col = basis[j]
            for name in GENERATOR_NAMES:
                p_out = parity[j] ^ GENERATOR_PARITY[name]
                grid = grids[col.n]
                r, phi = np.repeat(grid.r.ravel(), grid.m_ang), np.tile(grid.phi.ravel(), grid.m_rad)
                w = (grid.w_r * grid.w_phi).ravel()
                out = apply(name, col.state, p, r, phi)
                rows = [i for i, s in enumerate(basis) if s.n == col.n and parity[i] == p_out]
                pointwise = [np.dot(w, np.sum(state_field(basis[i].state, p, r, phi) * out, axis=0)) for i in rows]
                assert np.max(np.abs(mats[name][rows, j] - pointwise)) <= 1e-12, (name, col.family, col.level)
                others = [i for i in range(len(basis)) if i not in rows]
                assert np.all(mats[name][others, j] == 0.0)

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_orders_past_exactness_agree(self, p):
        # every integrand is polynomial under the grid weights, so an exact
        # rule of any order gives the same matrices
        small = dense(generator_matrices(p, (4, 4), m_rad=30, m_ang=44)[0])
        large = dense(generator_matrices(p, (4, 4), m_rad=80, m_ang=80)[0])
        for name in GENERATOR_NAMES:
            assert np.max(np.abs(small[name] - large[name])) <= 1e-11, name

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_outputs_keep_parity_components(self, p):
        for n in (0, 2):
            for s in sector_basis(p, n, 3):
                for name in GENERATOR_NAMES:
                    p_out = s.parity ^ GENERATOR_PARITY[name]
                    grid = Grid.for_pair(p, n, n, 20, 20)
                    out = apply(name, s.state, p, grid.r, grid.phi)
                    assert np.all(out[PARITY_COMPONENTS[1 - p_out]] == 0.0), (name, s.family, s.level)


def even_closed_forms(states):
    """The closed-form K0, Y, K+ and K- blocks over one sector's basis: K0
    and Y diagonal (``BasisState.k0``, ``.y``), K+ and K- the
    ``k_ladder_coeff`` rungs within each tower, zero elsewhere."""
    d = len(states)
    index = {(s.family, s.level): i for i, s in enumerate(states)}
    out = {"K0": np.diag([s.k0 for s in states]), "Y": np.diag([s.y for s in states]), "K+": np.zeros((d, d)), "K-": np.zeros((d, d))}
    for j, s in enumerate(states):
        tau = s.k0 - s.level  # the tower's lowest weight
        if (s.family, s.level + 1) in index:
            out["K+"][index[s.family, s.level + 1], j] = k_ladder_coeff("+", tau, s.level)
        if s.level >= 1:
            out["K-"][index[s.family, s.level - 1], j] = k_ladder_coeff("-", tau, s.level)
    return out


class TestEntryOracle:
    """Every entry of the even generator blocks is known in closed form from
    the paper's explicit bases; relation residuals mix many entries, this
    names each one."""

    @pytest.mark.parametrize("p", [PARAM_SETS[2], PARAM_SETS[0]], ids=["k=sqrt2", "k=1"])
    def test_even_generator_entries_equal_closed_forms(self, p):
        # towers of 65 levels; every entry, relative to the block's largest
        # closed-form entry, is within 2e-13 (catalog coefficients written as
        # Gamma-function ratios over bare factors read 6.8e-13 and 1.03e-12)
        blocks, basis = generator_matrices(p, (64, 3))
        worst = {}
        for n, block in enumerate(blocks):
            for name, ref in even_closed_forms([s for s in basis if s.n == n]).items():
                delta = np.max(np.abs(block[name] - ref)) / np.max(np.abs(ref))
                worst[name] = max(worst.get(name, 0.0), delta)
        assert max(worst.values()) <= 2e-13, worst


def _gamma_coeffs_barred(params, r, phi):
    """Coefficients (g_xx, g_xy, g_yy) of Gamma on (bdag_x b_x, bdag_x b_y
    + bdag_y b_x, bdag_y b_y), assembled from the barred-mode expression
    and rotated back: an independent oracle for the fixed-basis table."""
    k, a, b = params.k, params.a, params.b
    tan = np.tan(k * phi)
    cot = 1.0 / tan
    sec2 = 1.0 + tan * tan
    csc2 = 1.0 + cot * cot
    pref = k / (2.0 * r**2)
    bar_xx = pref * (a + b)
    bar_xy = pref * (-a * tan + b * cot)
    bar_yy = pref * (a * (k * sec2 - 1.0) + b * (k * csc2 - 1.0))
    c, s = np.cos(phi), np.sin(phi)
    # bdag_bar_i bbar_j = sum_kl U_ik U_jl bdag_k b_l with U = [[c, s], [-s, c]]
    g_xx = bar_xx * c * c - 2.0 * bar_xy * c * s + bar_yy * s * s
    g_yy = bar_xx * s * s + 2.0 * bar_xy * c * s + bar_yy * c * c
    g_xy = bar_xx * c * s + bar_xy * (c * c - s * s) - bar_yy * c * s
    return g_xx, g_xy, g_yy


class TestGammaConsistency:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_fixed_equals_barred(self, p):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.5, 2.0, 40)
        phi = rng.uniform(0.1, 0.9, 40) * p.phi_max
        bx, by = jordan_wigner(2)
        operators = (bx.T @ bx, bx.T @ by + by.T @ bx, by.T @ by)
        terms = _gamma_terms(p, phi)
        assert [(t.d_r, t.d_phi) for t in terms] == [(0, 0)] * 3
        assert all(any(np.array_equal(t.fermion, op) for op in operators) for t in terms)
        fixed = [
            sum(t.coef * r**t.r_pow * t.theta for t in terms if np.array_equal(t.fermion, op)) for op in operators
        ]
        barred = _gamma_coeffs_barred(p, r, phi)
        scale = max(np.max(np.abs(c)) for c in fixed)
        for f, g in zip(fixed, barred):
            np.testing.assert_allclose(f, g, atol=1e-11 * scale)


class TestScalingConditions:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_degree_minus_two(self, p):
        rng = np.random.default_rng(4)
        r = rng.uniform(0.5, 1.6, 30)
        phi = rng.uniform(0.15, 0.85, 30) * p.phi_max
        for st in (zero_fermion_state(p, 1, 1), one_fermion_state("-", p, 1, 1)):
            for lam in (0.8, 1.3):
                res = dilation_identity_residuals(st, p, r, phi, lam=lam)
                assert res["D"] < 1e-9
                assert res["Gamma"] < 1e-9


class TestOscillatorRealization:
    def test_k0_spectrum(self):
        osc = oscillator_realization()
        diag = np.diag(osc.mats["K0"])
        expect = 0.5 * (osc.boson_numbers + 0.5)
        np.testing.assert_allclose(diag, expect, atol=1e-14)
        # one boson mode below 12 quanta times one fermion mode; the interior two quanta below the cutoff
        assert diag.shape == (24,) and np.array_equal(osc.interior, osc.boson_numbers <= 9)

    def test_all_relations(self):
        osc = oscillator_realization()
        for name, res in check_structure_constants(osc.mats, osc.interior).items():
            assert res < 1e-12, name

    def test_susy_algebra(self):
        osc = oscillator_realization()
        m = osc.mats
        anti = m["W+"] @ m["V-"] + m["V-"] @ m["W+"]
        hs = m["K0"] + m["Y"]
        assert np.max(np.abs((anti - hs)[np.ix_(osc.interior, osc.interior)])) < 1e-12


# ---------------------------------------------------------------------------
# Sparse evaluation of the term tables against dense references

OPERATOR_NAMES = (*GENERATOR_NAMES, "H", "Hs", "Q", "Qdag", "1")
FAMILY_COMPONENTS = {"zero": (0,), "lower": (1, 2), "upper": (1, 2), "double": (3,)}


def dense_apply(terms, bundle, r):
    """The terms on a bundle with every fermion matrix a dense 4 x 4
    product over all four components, as a (4, *shape) array: the
    layout of every image before images were compact."""
    bundle = bundle.dense()
    derivs = {(0, 0): bundle.val, (1, 0): bundle.d_r, (2, 0): bundle.d_rr, (0, 1): bundle.d_phi, (0, 2): bundle.d_phiphi}
    fermions = {id(t.fermion): t.fermion for t in terms}
    coeffs = {}
    for t in terms:
        key = (id(t.fermion), t.d_r, t.d_phi)
        coeffs[key] = coeffs.get(key, 0.0) + t.coef * r**t.r_pow * t.theta
    out = np.zeros_like(bundle.val)
    for (m_id, d_r, d_phi), c in coeffs.items():
        part = c * derivs[d_r, d_phi]
        out += part if fermions[m_id] is _EYE else (fermions[m_id] @ part.reshape(4, -1)).reshape(part.shape)
    return out


def written(name, p, phi, reached):
    """The components that the fermion matrices of operator ``name`` map
    some component of ``reached`` to, sorted."""
    return tuple(sorted({i for t in _terms(name, p, phi) for i, j, _ in _ROW_MAPS[id(t.fermion)] if j in reached}))


def per_term_project(terms, rows, cols, grid):
    """<row|O|col> with every radial and angular moment formed afresh for
    each term and each fermion matrix applied as a dense product."""
    (C_row, R_row, S_row), (C_col, R_col, S_col) = (
        (C.reshape(len(C), -1), R[:, :, 0], S[:, :, :, 0]) for C, R, S in (rows, cols)
    )
    n_row, n_col = S_row.shape[1], S_col.shape[1]
    P = np.zeros((C_row.shape[1], C_col.shape[1]))
    for t in terms:
        rad = R_row[0].T @ (grid.w_r * grid.r**t.r_pow * R_col[t.d_r])
        weighted = (S_row[0] * (grid.w_phi * t.theta)).reshape(n_row, -1)
        ang = weighted @ (t.fermion @ S_col[t.d_phi]).reshape(n_col, -1).T
        P += t.coef * (rad[:, None, :, None] * ang[None, :, None, :]).reshape(P.shape)
    return C_row @ P @ C_col.T


def family_states(p, n=2, level=1):
    """{family: the level's state of that family in sector n}."""
    return {s.family: s.state for s in sector_basis(p, n, level + 1) if s.level == level}


class TestSparseTerms:
    """The row-map evaluation of ``_terms`` gives the bits of the dense one."""

    def test_fermion_matrices_are_row_maps(self):
        p = PARAM_SETS[2]
        phi = np.linspace(0.1, 0.9, 5) * p.phi_max
        fermions = {id(t.fermion): t.fermion for name in OPERATOR_NAMES for t in _terms(name, p, phi)}
        assert len(fermions) == 9
        for m_id, m in fermions.items():
            assert np.all(np.count_nonzero(m, axis=1) <= 1)
            # precomputed at import, and exactly the matrix's nonzeros
            dense = np.zeros((4, 4))
            for i, j, v in _ROW_MAPS[m_id]:
                dense[i, j] = v
            np.testing.assert_array_equal(dense, m)

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_images_equal_dense_reference(self, p):
        g = sector_grid(p, 2)
        for family, state in family_states(p).items():
            table = FactorTable(p, g.r, g.phi)
            (bundle,) = table.bundles([state])
            assert bundle.reached == FAMILY_COMPONENTS[family]
            shared = apply_operators(OPERATOR_NAMES, bundle, table)
            for name, image in zip(OPERATOR_NAMES, shared):
                ref = dense_apply(_terms(name, p, g.phi), bundle, g.r)
                assert np.array_equal(image.dense(), ref), (family, name)
                # the image keeps exactly the components the dense one may write
                assert image.reached == written(name, p, g.phi, bundle.reached), (family, name)
                # alone, on a table that keeps no other operator
                (alone,) = apply_operators((name,), bundle, FactorTable(p, g.r, g.phi))
                assert np.array_equal(alone.dense(), ref), (family, name)

    def test_full_bundles_equal_dense_reference(self):
        # a bundle built outside a table reaches all four components
        p = PARAM_SETS[1]
        rng = np.random.default_rng(4)
        r = rng.uniform(0.5, 2.0, 30)
        phi = rng.uniform(0.1, 0.9, 30) * p.phi_max
        _, bundle = random_polygauss(rng).sample(r, phi)
        assert bundle.reached == (0, 1, 2, 3)
        images = apply_operators(OPERATOR_NAMES, bundle, FactorTable(p, r, phi))
        for name, image in zip(OPERATOR_NAMES, images):
            assert np.array_equal(image.dense(), dense_apply(_terms(name, p, phi), bundle, r)), name

    def test_inf_in_a_reached_component_stays_visible(self):
        p = PARAM_SETS[2]
        g = sector_grid(p, 2)
        for family, state in family_states(p).items():
            table = FactorTable(p, g.r, g.phi)
            components = FAMILY_COMPONENTS[family]
            # a fresh bundle per component, as each gets its own inf
            for j, bundle in zip(components, table.bundles([state] * len(components))):
                bundle.val[bundle.reached.index(j), 3, 5] = np.inf
                with np.errstate(invalid="ignore"):
                    images = apply_operators(OPERATOR_NAMES, bundle, table)
                for name, image in zip(OPERATOR_NAMES, images):
                    reads_j = any(
                        t.d_r == t.d_phi == 0 and any(src == j for _, src, _ in _ROW_MAPS[id(t.fermion)])
                        for t in _terms(name, p, g.phi)
                    )
                    if reads_j:
                        assert not np.all(np.isfinite(image.rows)), (family, j, name)

    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_compact_images_equal_dense_reference(self, where):
        """On a grid and on scattered points: each family's bundle holds one
        row per component it reaches, the H and Hs images of a
        zero-fermion state hold component 0 only, and the dense form of
        every image, and of ``hamiltonian_super``'s, equals the dense
        reference bit for bit."""
        p = PARAM_SETS[2]
        rng = np.random.default_rng(11)
        grid = sector_grid(p, 2)
        scattered = (rng.uniform(0.3, 2.5, 40), rng.uniform(0.05, 0.95, 40) * p.phi_max)
        table = FactorTable(p, *{"grid": (grid.r, grid.phi), "scattered": scattered}[where])
        for family, state in family_states(p).items():
            (bundle,) = table.bundles([state])
            assert bundle.reached == FAMILY_COMPONENTS[family]
            for rows in (bundle.val, bundle.d_r, bundle.d_rr, bundle.d_phi, bundle.d_phiphi):
                assert rows.shape == (len(bundle.reached), *table.shape)
            for name, image in zip(OPERATOR_NAMES, apply_operators(OPERATOR_NAMES, bundle, table)):
                assert image.rows.shape == (len(image.reached), *table.shape), (family, name)
                assert np.array_equal(image.dense(), dense_apply(_terms(name, p, table.phi), bundle, table.r)), (family, name)
                if family == "zero" and name in ("H", "Hs"):
                    assert image.reached == (0,)
            super_image = hamiltonian_super(bundle, p, table.r, table.phi)
            assert np.array_equal(super_image.dense(), hamiltonian_super(bundle.dense(), p, table.r, table.phi).rows), family

    def test_zero_fermion_image_writes_component_zero_only(self):
        p = PARAM_SETS[2]
        grid = sector_grid(p, 1)
        table = FactorTable(p, grid.r, grid.phi)
        (bundle,) = table.bundles([zero_fermion_state(p, 2, 1)])
        # the compact bundle holds no row of an unreached component, so none can be read
        assert bundle.reached == (0,) and bundle.val.shape == (1, *table.shape)
        for image in apply_operators(("H", "Hs"), bundle, table):
            assert image.reached == (0,) and image.rows.shape == (1, *table.shape)
            assert np.all(np.isfinite(image.rows)) and image.rows.any()
            assert not image.dense()[1:].any()

    @pytest.mark.parametrize("ps", SuiteConfig().param_sets, ids=lambda ps: "k={k:g}".format(**ps))
    def test_shared_moments_equal_per_term_projection(self, ps):
        """The stacked projection sums the same products as the per-term
        one in another order, so each block agrees with the reference to
        within 1e-14 of the block's largest entry (about 45 ulp)."""
        p = ModelParams(**ps)
        for n in range(4):
            bs = sector_basis(p, n, 3)
            states = {par: [s.state for s in bs if s.parity == par] for par in (0, 1)}
            grid = sector_grid(p, n)
            table = FactorTable(p, grid.r, grid.phi)
            for p_out in (0, 1):
                for p_in in (0, 1):
                    rows, cols = states[p_out], states[p_in]
                    shared = project(OPERATOR_NAMES, rows, cols, grid)
                    f_rows, f_cols = table.expand(rows, cols)
                    for name in OPERATOR_NAMES:
                        ref = per_term_project(_terms(name, p, grid.phi), f_rows, f_cols, grid)
                        scale = np.max(np.abs(ref))
                        assert np.max(np.abs(shared[name] - ref)) <= 1e-14 * scale, (n, p_out, p_in, name)


class TestWorkCounts:
    """Each projection forms each distinct moment once, and each table
    builds an operator's term table once."""

    def test_one_radial_moment_per_key_and_projection(self, monkeypatch):
        """Each projection forms every distinct radial moment (r^q, d_r) and
        every distinct angular moment (w_phi theta, M, d_phi) of its
        operators' terms once, in one batched product of each kind."""
        per_call = []
        radial, angular, projection = gen._radial_moments, gen._angular_moments, gen._project

        def counted_radial(st, R_row, R_col, grid):
            out = radial(st, R_row, R_col, grid)
            assert len(out) == len(st.r_pow)
            per_call[-1]["radial"].append(list(zip(st.r_pow.tolist(), st.d_r.tolist())))
            return out

        def counted_angular(st, S_row, S_col):
            out = angular(st, S_row, S_col)
            assert len(out) == len(st.w_theta)
            per_call[-1]["angular"].append([(w.tobytes(), m, d) for w, m, d in zip(st.w_theta, st.fermion.tolist(), st.d_phi.tolist())])
            return out

        def counted_project(names, rows, cols, grid):
            per_call.append({"names": names, "grid": grid, "radial": [], "angular": []})
            return projection(names, rows, cols, grid)

        monkeypatch.setattr(gen, "_radial_moments", counted_radial)
        monkeypatch.setattr(gen, "_angular_moments", counted_angular)
        monkeypatch.setattr(gen, "_project", counted_project)
        p = PARAM_SETS[2]
        generator_matrices(p, (8, 6), MR, MA)
        # 7 sectors, 2 row parities, 2 column parities
        assert len(per_call) == 28
        for call in per_call:
            (rads,), (angs,) = call["radial"], call["angular"]
            grid = call["grid"]
            terms = [t for name in call["names"] for t in _terms(name, p, grid.phi)]
            assert len(rads) == len(set(rads)) < len(terms)
            assert set(rads) == {(t.r_pow, t.d_r) for t in terms}
            assert len(angs) == len(set(angs)) < len(terms)
            assert set(angs) == {((grid.w_phi * t.theta).ravel().tobytes(), gen._FERMION_INDEX[id(t.fermion)], t.d_phi) for t in terms}

    def test_one_angular_call_per_factor_and_set(self, monkeypatch, cold_caches):
        # every sector grid of the set reads one angular row, which keeps
        # each (shift, angular index) once evaluated
        calls = []
        parts = states_module.angular_parts

        def counted(params, m, phi, shift=0):
            calls.append((shift, m))
            return parts(params, m, phi, shift)

        monkeypatch.setattr(states_module, "angular_parts", counted)
        n_max = 6
        generator_matrices(PARAM_SETS[2], (8, n_max), MR, MA)
        # sector n names (0, n) and, from n = 1 on, (1, n - 1), on both its grids
        expected = [(0, n) for n in range(n_max + 1)] + [(1, n - 1) for n in range(1, n_max + 1)]
        assert len(calls) == 1 + 2 * n_max == 13
        assert sorted(calls) == sorted(expected)
        # a second build reads them all from the row
        generator_matrices(PARAM_SETS[2], (8, n_max), MR, MA)
        assert len(calls) == 13

    def test_one_term_table_per_factor_table(self, monkeypatch):
        calls = []

        def counted(name, params, phi):
            calls.append(name)
            return _terms(name, params, phi)

        monkeypatch.setattr(gen, "_terms", counted)
        p = PARAM_SETS[2]
        grid = sector_grid(p, 1)
        table = FactorTable(p, grid.r, grid.phi)
        for bundle in table.bundles([zero_fermion_state(p, N, 1) for N in range(4)]):
            apply_operators(("H", "Hs"), bundle, table)
        assert calls == ["H", "Hs"]
