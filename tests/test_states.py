import math

import numpy as np
import pytest

from ttwsusy.generators import _PARITY_COMPONENTS
from ttwsusy.irreps import one_fermion_state, sector_basis, two_fermion_state, zero_fermion_state
from ttwsusy.model import Grid, ModelParams
from ttwsusy.states import OCC_VAC, OCC_YBAR, CatalogState, FactorTable, state_bundle, state_field, term

P = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
P_IRR = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0)
BUNDLE_FIELDS = ("val", "d_r", "d_rr", "d_phi", "d_phiphi")


class TestCatalogAlgebra:
    def test_sentinel_terms_are_zero(self):
        assert term(1.0, -1, 2, OCC_VAC).is_zero
        assert term(1.0, 0, 0, OCC_YBAR).is_zero  # angular index n-1 = -1
        assert not term(1.0, 0, 1, OCC_YBAR).is_zero

    def test_simplify_merges_terms(self):
        s = CatalogState.of(term(1.0, 0, 1, OCC_VAC)) + CatalogState.of(term(2.0, 0, 1, OCC_VAC))
        assert len(s.terms) == 1
        assert s.terms[0].coeff == 3.0

    def test_simplify_drops_cancellations(self):
        s = CatalogState.of(term(1.0, 0, 1, OCC_VAC)) + CatalogState.of(term(-1.0, 0, 1, OCC_VAC))
        assert s.is_zero

    def test_mixed_parity_rejected(self):
        s = CatalogState.of(term(1.0, 0, 1, OCC_VAC), term(1.0, 0, 1, OCC_YBAR))
        with pytest.raises(ValueError):
            s.fermion_parity()

    def test_parities(self):
        assert zero_fermion_state(P, 0, 1).fermion_parity() == 0
        assert one_fermion_state("+", P, 0, 1).fermion_parity() == 1
        assert two_fermion_state(P, 0, 1).fermion_parity() == 0


class TestBundleDerivatives:
    """Analytic derivatives against central finite differences (the
    secondary sanity oracle; coarse tolerance by design)."""

    @pytest.fixture
    def points(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.6, 1.8, 25)
        phi = rng.uniform(0.2, 0.8, 25) * P.phi_max
        return r, phi

    @pytest.mark.parametrize(
        "state",
        [
            zero_fermion_state(P, 2, 1),
            one_fermion_state("+", P, 1, 1),
            one_fermion_state("-", P, 1, 2),
            two_fermion_state(P, 1, 1),
        ],
        ids=["zero", "plus", "minus", "double"],
    )
    def test_against_finite_differences(self, state, points):
        r, phi = points
        h = 1e-5
        b = state_bundle(state, P, r, phi)
        f_rp = state_field(state, P, r + h, phi)
        f_rm = state_field(state, P, r - h, phi)
        f_pp = state_field(state, P, r, phi + h)
        f_pm = state_field(state, P, r, phi - h)
        f_00 = state_field(state, P, r, phi)
        scale = np.max(np.abs(f_00)) + 1.0
        assert np.max(np.abs((f_rp - f_rm) / (2 * h) - b.d_r)) / scale < 1e-5
        assert np.max(np.abs((f_pp - f_pm) / (2 * h) - b.d_phi)) / scale < 1e-5
        assert np.max(np.abs((f_rp - 2 * f_00 + f_rm) / h**2 - b.d_rr)) / scale < 1e-4
        assert np.max(np.abs((f_pp - 2 * f_00 + f_pm) / h**2 - b.d_phiphi)) / scale < 1e-4

    def test_bundle_value_matches_field(self, points):
        r, phi = points
        st = one_fermion_state("-", P, 2, 1)
        np.testing.assert_allclose(state_bundle(st, P, r, phi).val, state_field(st, P, r, phi), atol=1e-14)

    def test_domain_validation(self):
        st = zero_fermion_state(P, 0, 0)
        with pytest.raises(ValueError):
            state_bundle(st, P, np.array([0.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            state_bundle(st, P, np.array([1.0]), np.array([P.phi_max]))


def basis_grids(p, n_max, m=40):
    """(state, parity, grid) for every basis state of sectors 0..n_max at
    truncation level 3, on the sector grid of the state's fermion parity."""
    for n in range(n_max + 1):
        grids = {q: Grid.for_sector(p, n, odd=bool(q), m_rad=m, m_ang=m) for q in (0, 1)}
        for s in sector_basis(p, n, 3):
            parity = s.state.fermion_parity()
            yield s, parity, grids[parity]


class TestBroadcastingContract:
    """A column of radial nodes against a row of angular nodes samples the
    tensor grid: the result must equal the scattered-point evaluation on
    the flattened grid."""

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_grid_bundle_equals_flattened_bundle(self, p):
        for s, _, grid in basis_grids(p, 3):
            on_grid = state_bundle(s.state, p, grid.r_nodes[:, None], grid.phi_nodes[None, :])
            flat = state_bundle(s.state, p, grid.r, grid.phi)
            for name in BUNDLE_FIELDS:
                tensor = getattr(on_grid, name)
                assert tensor.shape == (4, grid.m_rad, grid.m_ang)
                assert np.max(np.abs(tensor.reshape(4, -1) - getattr(flat, name))) <= 1e-14, (s.family, s.level, name)
            field = state_field(s.state, p, grid.r_nodes[:, None], grid.phi_nodes[None, :])
            assert np.max(np.abs(field.reshape(4, -1) - flat.val)) <= 1e-14

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_opposite_parity_components_vanish_exactly(self, p):
        for s, parity, grid in basis_grids(p, 3):
            assert parity == (0 if s.family in ("zero", "double") else 1)
            other = _PARITY_COMPONENTS[1 - parity]
            bundle = FactorTable(p, grid.r_nodes[:, None], grid.phi_nodes[None, :]).bundle(s.state)
            for name in BUNDLE_FIELDS:
                assert np.all(getattr(bundle, name)[other] == 0.0), (s.family, s.level, name)
            assert np.any(bundle.val[_PARITY_COMPONENTS[parity]] != 0.0)

    def test_table_reuses_factors_across_states(self):
        grid = Grid.for_sector(P, 2, odd=True, m_rad=20, m_ang=20)
        table = FactorTable(P, grid.r_nodes[:, None], grid.phi_nodes[None, :])
        plus, minus = one_fermion_state("+", P, 1, 2), one_fermion_state("-", P, 2, 2)
        table.bundle(plus)
        radial, angular = len(table._radial), len(table._angular)
        np.testing.assert_array_equal(table.field(plus), table.bundle(plus).val)
        assert (len(table._radial), len(table._angular)) == (radial, angular)
        # the table holds only 1-D factors on the nodes, never the tensor grid
        for parts in (*table._radial.values(), *table._angular.values()):
            assert all(a.size in (grid.m_rad, grid.m_ang) for a in parts)
        # factors memoized for one state serve another exactly as a fresh table would
        fresh = state_field(minus, P, grid.r_nodes[:, None], grid.phi_nodes[None, :])
        np.testing.assert_array_equal(table.field(minus), fresh)
