import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from ttwsusy.fock import annihilators
from ttwsusy.generators import (
    GENERATOR_NAMES,
    GENERATOR_PARITY,
    RELATIONS,
    _gamma_terms,
    apply_operator,
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
from ttwsusy.states import FERMION_NUMBER, FactorTable, state_bundle, state_field

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
    """Operator ``name`` applied to a catalog state at (r, phi)."""
    return apply_operator(name, state_bundle(state, p, r, phi), p, r, phi)


def sector_grids(p, n):
    return (
        Grid.for_sector(p, n, odd=False, m_rad=MR, m_ang=MA),
        Grid.for_sector(p, n, odd=True, m_rad=MR, m_ang=MA),
    )


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


class TestRiccati:
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
            grid, _ = sector_grids(p, n)
            for N in range(3):
                st = zero_fermion_state(p, N, n)
                hv = apply("H", st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                assert np.max(np.abs(hv - energy(p, N, n) * fv)) / np.max(np.abs(fv)) < 1e-8

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_weight_action(self, p):
        st = zero_fermion_state(p, 2, 1)
        grid, _ = sector_grids(p, 1)
        fv = state_field(st, p, grid.r, grid.phi)
        k0 = apply("K0", st, p, grid.r, grid.phi)
        w = weights_of(p, 1)
        assert np.max(np.abs(k0 - (w.tau + 2) * fv)) / np.max(np.abs(fv)) < 1e-9
        yv = apply("Y", st, p, grid.r, grid.phi)
        assert np.max(np.abs(yv - w.q * fv)) / np.max(np.abs(fv)) < 1e-12

    def test_lowering_annihilates_ground(self):
        p = PARAM_SETS[1]
        grid_e, grid_o = sector_grids(p, 0)
        ground = zero_fermion_state(p, 0, 0)
        assert np.max(np.abs(apply("K-", ground, p, grid_e.r, grid_e.phi))) < 1e-12
        assert np.max(np.abs(apply("V-", ground, p, grid_o.r, grid_o.phi))) < 1e-12
        assert np.max(np.abs(apply("W-", ground, p, grid_o.r, grid_o.phi))) < 1e-14


class TestLadderVersusDifferential:
    """The analytic generator application must reproduce the closed-form
    expansions on every basis state where a closed form exists."""

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_weights_on_all_families(self, p):
        for n in (0, 1, 2):
            w = weights_of(p, n)
            for s in sector_basis(p, n, 2):
                grid = Grid.for_sector(p, n, odd=s.family in ("lower", "upper"), m_rad=MR, m_ang=MA)
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
                odd = family in ("lower", "upper")
                grid = Grid.for_sector(p, n, odd=odd, m_rad=MR, m_ang=MA)
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
            grid_e, grid_o = sector_grids(p, n)
            for N in (0, 1, 2):
                st = zero_fermion_state(p, N, n)
                for sign in ("+", "-"):
                    out = apply("V" + sign, st, p, grid_o.r, grid_o.phi)
                    ref = state_field(v_action(sign, p, N, n), p, grid_o.r, grid_o.phi)
                    scale = max(np.max(np.abs(ref)), 1.0)
                    assert np.max(np.abs(out - ref)) / scale < 1e-9
                    wv = apply("W" + sign, st, p, grid_e.r, grid_e.phi)
                    assert np.max(np.abs(wv)) < 1e-12


class TestHamiltonianSuper:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_excitation_spectrum(self, p):
        for n in range(3):
            grid, _ = sector_grids(p, n)
            for N in range(3):
                st = zero_fermion_state(p, N, n)
                hv = apply("Hs", st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                target = 4 * p.omega * (N + n * p.k)
                assert np.max(np.abs(hv - target * fv)) / np.max(np.abs(fv)) < 1e-8

    def test_routes_agree(self):
        p = PARAM_SETS[2]
        grid, _ = sector_grids(p, 1)
        for st in (zero_fermion_state(p, 1, 1), one_fermion_state("+", p, 0, 1), two_fermion_state(p, 1, 1)):
            bundle = state_bundle(st, p, grid.r, grid.phi)
            h1 = apply_operator("Hs", bundle, p, grid.r, grid.phi)
            h2 = hamiltonian_super(bundle, p, grid.r, grid.phi)
            assert np.max(np.abs(h1 - h2)) / max(np.max(np.abs(h1)), 1.0) < 1e-10

    def test_ground_state_is_annihilated(self):
        p = PARAM_SETS[1]
        grid, _ = sector_grids(p, 0)
        hv = apply("Hs", zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)
        assert np.max(np.abs(hv)) < 1e-10

    def test_unknown_operator(self):
        p = PARAM_SETS[0]
        grid, _ = sector_grids(p, 0)
        with pytest.raises(ValueError, match="unknown operator 'magic'"):
            apply("magic", zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)


class TestOperatorTable:
    """The supersymmetric operators and the identity come from the same
    term tables as the generators, pointwise and projected."""

    def test_identity_returns_the_field(self):
        p = PARAM_SETS[2]
        grid, _ = sector_grids(p, 1)
        bundle = state_bundle(two_fermion_state(p, 1, 1), p, grid.r, grid.phi)
        np.testing.assert_array_equal(apply_operator("1", bundle, p, grid.r, grid.phi), bundle.val)

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_projected_susy_operators(self, p):
        grid = Grid.for_sector(p, 1, m_rad=40, m_ang=40)
        grid_o = Grid.for_sector(p, 1, odd=True, m_rad=40, m_ang=40)
        even = [s.state for s in sector_basis(p, 1, 3) if s.family in ("zero", "double")]
        odd = [s.state for s in sector_basis(p, 1, 3) if s.family in ("lower", "upper")]
        m = project(("Hs", "K0", "Y"), even, even, grid)
        np.testing.assert_allclose(m["Hs"], 4 * p.omega * (m["K0"] + m["Y"]), rtol=0, atol=1e-10)
        # Q maps the even states onto the odd ones
        m = project(("Q", "W+", "Qdag", "V-"), odd, even, grid_o)
        sq = 2 * math.sqrt(p.omega)
        np.testing.assert_allclose(m["Q"], sq * m["W+"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(m["Qdag"], sq * m["V-"], rtol=0, atol=1e-12)


class TestSupercharges:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_ground_state_annihilation(self, p):
        grid, _ = sector_grids(p, 0)
        ground = zero_fermion_state(p, 0, 0)
        qf, qdf = apply("Q", ground, p, grid.r, grid.phi), apply("Qdag", ground, p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-10
        assert np.max(np.abs(qdf)) < 1e-10

    def test_q_annihilates_every_zero_fermion_state(self):
        p = PARAM_SETS[1]
        grid, _ = sector_grids(p, 2)
        qf = apply("Q", zero_fermion_state(p, 2, 2), p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-12

    def test_adjoint_pair_under_quadrature(self):
        p = PARAM_SETS[1]
        n = 1
        _, grid_o = sector_grids(p, n)
        grid_e, _ = sector_grids(p, n)
        f = one_fermion_state("-", p, 1, n)
        g = zero_fermion_state(p, 1, n)
        qf = apply("Q", f, p, grid_e.r, grid_e.phi)
        qdg = apply("Qdag", g, p, grid_o.r, grid_o.phi)
        lhs = grid_e.inner(qf, state_field(g, p, grid_e.r, grid_e.phi))
        rhs = grid_o.inner(state_field(f, p, grid_o.r, grid_o.phi), qdg)
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
        checks = check_structure_constants(mats, interior_mask(basis, trunc))
        for c in checks:
            assert c.residual < 1e-8, c.name

    def test_unlisted_odd_anticommutators_vanish(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc)
        for a, b in (("V+", "V+"), ("V+", "V-"), ("W+", "W-")):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            assert np.max(np.abs(anti[np.ix_(inner, inner)])) < 1e-10

    def test_y_odd_commutator(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc)
        res = mats["Y"] @ mats["V+"] - mats["V+"] @ mats["Y"] - 0.5 * mats["V+"]
        assert np.max(np.abs(res[np.ix_(inner, inner)])) < 1e-8

    def test_hermiticity(self, setup):
        _, _, mats, _ = setup
        for name, res in hermiticity_residuals(mats).items():
            assert res < 1e-9, name

    def test_susy_anticommutator_is_hamiltonian(self, setup):
        p, trunc, mats, basis = setup
        inner = interior_mask(basis, trunc)
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
        interior = interior_mask(basis, trunc)
        per_sector = [
            [c.residual for c in check_structure_constants(block, inner)]
            for block, inner in zip(blocks, sector_masks(basis, interior))
            if inner.any()
        ]
        got = np.max(per_sector, axis=0)
        np.testing.assert_allclose(got, dense_relation_residuals(dense(blocks), interior), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nu,cutoff", [(1, 12), (2, 5)])
    def test_oscillator_blockwise_equals_dense_oracle(self, nu, cutoff):
        # the whole realization is passed as one block
        osc = oscillator_realization(nu=nu, cutoff=cutoff)
        got = [c.residual for c in check_structure_constants(osc.mats, osc.interior)]
        np.testing.assert_allclose(got, dense_relation_residuals(osc.mats, osc.interior), rtol=0, atol=1e-13)

    def test_planted_nan_reaches_the_relations_of_its_generator(self, built):
        _, trunc, blocks, basis = built
        inner = sector_masks(basis, interior_mask(basis, trunc))[1]
        i = np.flatnonzero(inner)[len(inner) // 4]
        planted = dict(blocks[1], **{"V+": blocks[1]["V+"].copy()})
        planted["V+"][i, i] = np.nan
        for rel, check in zip(RELATIONS, check_structure_constants(planted, inner)):
            assert math.isnan(check.residual) == involves(rel, "V+"), rel

    def test_empty_interior_gives_nan(self, built):
        _, _, blocks, _ = built
        nowhere = np.zeros(len(blocks[1]["K0"]), dtype=bool)
        assert all(math.isnan(c.residual) for c in check_structure_constants(blocks[1], nowhere))


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
        grids = {
            (n, q): Grid.for_sector(p, n, odd=bool(q), m_rad=m_rad, m_ang=m_ang)
            for n in range(trunc[1] + 1)
            for q in (0, 1)
        }
        parity = [s.state.fermion_parity() for s in basis]
        for j in range(0, len(basis), 3):
            col = basis[j]
            for name in GENERATOR_NAMES:
                p_out = parity[j] ^ GENERATOR_PARITY[name]
                grid = grids[col.n, p_out]
                r, phi = np.repeat(grid.r.ravel(), grid.m_ang), np.tile(grid.phi.ravel(), grid.m_rad)
                w = grid.w.ravel()
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
    def test_radial_rescale_is_a_power_of_two(self, p):
        # each radial column is scaled into [1/2, 1) by a power of two, and
        # its coefficients by the inverse: exact, so no entry moves by a bit
        grid = Grid.for_sector(p, 2, odd=True, m_rad=40, m_ang=40)
        table = FactorTable(p, grid.r, grid.phi)
        states = [s.state for s in sector_basis(p, 2, 4) if s.family in ("lower", "upper")]
        _, R, _ = table.expand(states)
        R = R[:, :, 0]  # the grid's radial column
        keys = dict.fromkeys((t.N, t.n, FERMION_NUMBER[t.occ] == 1) for st in states for t in st.terms if not t.is_zero)
        bare = np.stack([np.hstack([table.radial(*key)[d] for key in keys]) for d in range(3)])
        peak = np.argmax(np.abs(R[0]), axis=0)
        cols = np.arange(R.shape[2])
        assert np.all((np.abs(R[0, peak, cols]) >= 0.5) & (np.abs(R[0, peak, cols]) < 1.0))
        scale = bare[0, peak, cols] / R[0, peak, cols]
        assert np.all(np.frexp(scale)[0] == 0.5)
        np.testing.assert_array_equal(R * scale, bare)

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_outputs_keep_parity_components(self, p):
        for n in (0, 2):
            for s in sector_basis(p, n, 3):
                for name in GENERATOR_NAMES:
                    p_out = s.state.fermion_parity() ^ GENERATOR_PARITY[name]
                    grid = Grid.for_sector(p, n, odd=bool(p_out), m_rad=20, m_ang=20)
                    out = apply(name, s.state, p, grid.r, grid.phi)
                    assert np.all(out[PARITY_COMPONENTS[1 - p_out]] == 0.0), (name, s.family, s.level)


def _gamma_coeffs_barred(params, r, phi):
    """Coefficients (g_xx, g_xy, g_yy) of Gamma on (bdag_x b_x, bdag_x b_y
    + bdag_y b_x, bdag_y b_y), assembled from the barred-mode expression
    and rotated back: an independent oracle for the fixed-basis table."""
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


class TestGammaConsistency:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_fixed_equals_barred(self, p):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.5, 2.0, 40)
        phi = rng.uniform(0.1, 0.9, 40) * p.phi_max
        bx, by = annihilators()
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
        osc = oscillator_realization(nu=1, cutoff=12)
        diag = np.diag(osc.mats["K0"])
        expect = 0.5 * (osc.boson_numbers[:, 0] + 0.5)
        np.testing.assert_allclose(diag, expect, atol=1e-14)

    def test_all_relations(self):
        osc = oscillator_realization(nu=1, cutoff=12)
        for c in check_structure_constants(osc.mats, osc.interior):
            assert c.residual < 1e-12, c.name

    def test_susy_algebra(self):
        osc = oscillator_realization(nu=1, cutoff=12)
        m = osc.mats
        anti = m["W+"] @ m["V-"] + m["V-"] @ m["W+"]
        hs = m["K0"] + m["Y"]
        assert np.max(np.abs((anti - hs)[np.ix_(osc.interior, osc.interior)])) < 1e-12

    def test_two_mode_realization(self):
        osc = oscillator_realization(nu=2, cutoff=5)
        for c in check_structure_constants(osc.mats, osc.interior):
            assert c.residual < 1e-12, c.name

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillator_realization(nu=0)
        with pytest.raises(ValueError):
            oscillator_realization(nu=1, cutoff=3)
