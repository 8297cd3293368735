import math

import numpy as np
import pytest

from ttwsusy.generators import (
    _PARITY_COMPONENTS,
    GENERATOR_NAMES,
    GENERATOR_PARITY,
    _gamma_coeffs,
    _gamma_coeffs_barred,
    apply_generator,
    apply_hamiltonian,
    check_structure_constants,
    dilation_identity_residuals,
    generator_matrices,
    hamiltonian_super,
    hermiticity_residuals,
    interior_mask,
    matrix_of,
    oscillator_realization,
    riccati_residual,
    superpotential,
    supercharges,
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
from ttwsusy.states import state_field

PARAM_SETS = [
    ModelParams(k=1.0, a=1.0, b=1.0, omega=1.0),
    ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0),
    ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0),
]
IDS = ["k=1", "k=2", "k=sqrt2"]

MR = MA = 56  # quadrature orders for the unit tests


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
                hv = apply_hamiltonian(st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                assert np.max(np.abs(hv - energy(p, N, n) * fv)) / np.max(np.abs(fv)) < 1e-8

    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_weight_action(self, p):
        st = zero_fermion_state(p, 2, 1)
        grid, _ = sector_grids(p, 1)
        fv = state_field(st, p, grid.r, grid.phi)
        k0 = apply_generator("K0", st, p, grid.r, grid.phi)
        w = weights_of(p, 1)
        assert np.max(np.abs(k0 - (w.tau + 2) * fv)) / np.max(np.abs(fv)) < 1e-9
        yv = apply_generator("Y", st, p, grid.r, grid.phi)
        assert np.max(np.abs(yv - w.q * fv)) / np.max(np.abs(fv)) < 1e-12

    def test_lowering_annihilates_ground(self):
        p = PARAM_SETS[1]
        grid_e, grid_o = sector_grids(p, 0)
        ground = zero_fermion_state(p, 0, 0)
        assert np.max(np.abs(apply_generator("K-", ground, p, grid_e.r, grid_e.phi))) < 1e-12
        assert np.max(np.abs(apply_generator("V-", ground, p, grid_o.r, grid_o.phi))) < 1e-12
        assert np.max(np.abs(apply_generator("W-", ground, p, grid_o.r, grid_o.phi))) < 1e-14


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
                k0 = apply_generator("K0", s.state, p, grid.r, grid.phi)
                assert np.max(np.abs(k0 - s.k0 * fv)) / scale < 1e-9, (s.family, s.level)
                yv = apply_generator("Y", s.state, p, grid.r, grid.phi)
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
                    kp = apply_generator("K+", st, p, grid.r, grid.phi)
                    c = k_ladder_coeff("+", tau_f, level)
                    scale = np.max(np.abs(up))
                    assert np.max(np.abs(kp - c * up)) / scale < 1e-9, (family, level)
                    km = apply_generator("K-", st, p, grid.r, grid.phi)
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
                    out = apply_generator("V" + sign, st, p, grid_o.r, grid_o.phi)
                    ref = state_field(v_action(sign, p, N, n), p, grid_o.r, grid_o.phi)
                    scale = max(np.max(np.abs(ref)), 1.0)
                    assert np.max(np.abs(out - ref)) / scale < 1e-9
                    wv = apply_generator("W" + sign, st, p, grid_e.r, grid_e.phi)
                    assert np.max(np.abs(wv)) < 1e-12


class TestHamiltonianSuper:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_excitation_spectrum(self, p):
        for n in range(3):
            grid, _ = sector_grids(p, n)
            for N in range(3):
                st = zero_fermion_state(p, N, n)
                hv = hamiltonian_super(st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                target = 4 * p.omega * (N + n * p.k)
                assert np.max(np.abs(hv - target * fv)) / np.max(np.abs(fv)) < 1e-8

    def test_routes_agree(self):
        p = PARAM_SETS[2]
        grid, _ = sector_grids(p, 1)
        for st in (zero_fermion_state(p, 1, 1), one_fermion_state("+", p, 0, 1), two_fermion_state(p, 1, 1)):
            h1 = hamiltonian_super(st, p, grid.r, grid.phi, route="potential")
            h2 = hamiltonian_super(st, p, grid.r, grid.phi, route="superpotential")
            assert np.max(np.abs(h1 - h2)) / max(np.max(np.abs(h1)), 1.0) < 1e-10

    def test_ground_state_is_annihilated(self):
        p = PARAM_SETS[1]
        grid, _ = sector_grids(p, 0)
        hv = hamiltonian_super(zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)
        assert np.max(np.abs(hv)) < 1e-10

    def test_unknown_route(self):
        p = PARAM_SETS[0]
        grid, _ = sector_grids(p, 0)
        with pytest.raises(ValueError):
            hamiltonian_super(zero_fermion_state(p, 0, 0), p, grid.r, grid.phi, route="magic")


class TestSupercharges:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_ground_state_annihilation(self, p):
        grid, _ = sector_grids(p, 0)
        qf, qdf = supercharges(zero_fermion_state(p, 0, 0), p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-10
        assert np.max(np.abs(qdf)) < 1e-10

    def test_q_annihilates_every_zero_fermion_state(self):
        p = PARAM_SETS[1]
        grid, _ = sector_grids(p, 2)
        qf, _ = supercharges(zero_fermion_state(p, 2, 2), p, grid.r, grid.phi)
        assert np.max(np.abs(qf)) < 1e-12

    def test_adjoint_pair_under_quadrature(self):
        p = PARAM_SETS[1]
        n = 1
        _, grid_o = sector_grids(p, n)
        grid_e, _ = sector_grids(p, n)
        f = one_fermion_state("-", p, 1, n)
        g = zero_fermion_state(p, 1, n)
        qf, _ = supercharges(f, p, grid_e.r, grid_e.phi)
        _, qdg = supercharges(g, p, grid_o.r, grid_o.phi)
        lhs = grid_e.inner(qf, state_field(g, p, grid_e.r, grid_e.phi))
        rhs = grid_o.inner(state_field(f, p, grid_o.r, grid_o.phi), qdg)
        assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.fixture(scope="module", params=[1, 2], ids=["k=2", "k=sqrt2"])
def setup(request):
    p = PARAM_SETS[request.param]
    trunc = (4, 3)
    mats, basis = generator_matrices(p, trunc, m_rad=MR, m_ang=MA)
    return p, trunc, mats, basis


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

    def test_matrix_of_single(self):
        p = PARAM_SETS[1]
        m, basis = matrix_of("Y", p, (2, 2), m_rad=40, m_ang=40)
        assert m.shape == (len(basis), len(basis))

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            generator_matrices(PARAM_SETS[0], (1, 3))


class TestTensorGridAssembly:
    """generator_matrices samples on the tensor grid through one FactorTable
    per sector grid and projects two spinor components; every entry must
    equal the inner product computed pointwise on the flattened grid."""

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_entries_equal_pointwise_inner_products(self, p):
        trunc = (3, 3)
        mats, basis = generator_matrices(p, trunc, m_rad=40, m_ang=40)
        grids = {
            (n, q): Grid.for_sector(p, n, odd=bool(q), m_rad=40, m_ang=40) for n in range(trunc[1] + 1) for q in (0, 1)
        }
        parity = [s.state.fermion_parity() for s in basis]
        for j in range(0, len(basis), 3):
            col = basis[j]
            for name in GENERATOR_NAMES:
                p_out = parity[j] ^ GENERATOR_PARITY[name]
                grid = grids[col.n, p_out]
                out = apply_generator(name, col.state, p, grid.r, grid.phi)
                rows = [i for i, s in enumerate(basis) if s.n == col.n and parity[i] == p_out]
                pointwise = [grid.inner(state_field(basis[i].state, p, grid.r, grid.phi), out) for i in rows]
                assert np.max(np.abs(mats[name][rows, j] - pointwise)) <= 1e-12, (name, col.family, col.level)
                others = [i for i in range(len(basis)) if i not in rows]
                assert np.all(mats[name][others, j] == 0.0)

    @pytest.mark.parametrize("p", PARAM_SETS[1:], ids=IDS[1:])
    def test_outputs_keep_parity_components(self, p):
        for n in (0, 2):
            for s in sector_basis(p, n, 3):
                for name in GENERATOR_NAMES:
                    p_out = s.state.fermion_parity() ^ GENERATOR_PARITY[name]
                    grid = Grid.for_sector(p, n, odd=bool(p_out), m_rad=20, m_ang=20)
                    out = apply_generator(name, s.state, p, grid.r_nodes[:, None], grid.phi_nodes[None, :])
                    assert np.all(out[_PARITY_COMPONENTS[1 - p_out]] == 0.0), (name, s.family, s.level)


class TestGammaConsistency:
    @pytest.mark.parametrize("p", PARAM_SETS, ids=IDS)
    def test_fixed_equals_barred(self, p):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.5, 2.0, 40)
        phi = rng.uniform(0.1, 0.9, 40) * p.phi_max
        fixed = _gamma_coeffs(p, r, phi)
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
