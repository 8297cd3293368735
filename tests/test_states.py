import math

import numpy as np
import pytest

from ttwsusy import states
from ttwsusy.irreps import one_fermion_state, sector_basis, two_fermion_state, v_action, zero_fermion_state
from ttwsusy.model import Grid, ModelParams, radial_levels
from ttwsusy.states import FERMION_NUMBER, OCC_VAC, OCC_YBAR, CatalogState, FactorTable, state_bundle, state_field, term

P = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
P_IRR = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0)
BUNDLE_FIELDS = ("val", "d_r", "d_rr", "d_phi", "d_phiphi")
# fixed-basis components that a state of each fermion parity occupies
PARITY_COMPONENTS = {0: [0, 3], 1: [1, 2]}


class TestDomainGuard:
    """A factor table, and so every bundle and field, takes only interior
    points: NaN, an infinity or an edge point raises ``ValueError``."""

    @pytest.mark.parametrize(
        "r, phi, match",
        [
            (math.nan, 0.3, "r must be finite and positive"),
            (math.inf, 0.3, "r must be finite and positive"),
            (0.0, 0.3, "r must be finite and positive"),
            ([1.0, math.nan], [0.3, 0.4], "r must be finite and positive"),
            (1.0, math.nan, "phi must lie strictly inside"),
            (1.0, math.inf, "phi must lie strictly inside"),
            (1.0, 0.0, "phi must lie strictly inside"),
            (1.0, P.phi_max, "phi must lie strictly inside"),
            ([1.0, 1.2], [0.3, math.nan], "phi must lie strictly inside"),
        ],
        ids=["r-nan", "r-inf", "r-zero", "r-nan-in-array", "phi-nan", "phi-inf", "phi-zero", "phi-max", "phi-nan-in-array"],
    )
    def test_probes(self, r, phi, match):
        st = CatalogState.of(term(1.0, 1, 1, OCC_VAC))
        for call in (lambda: FactorTable(P, r, phi), lambda: state_bundle(st, P, r, phi), lambda: state_field(st, P, r, phi)):
            with pytest.raises(ValueError, match=match):
                call()


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
        grids = {q: Grid.for_pair(p, n, n, m, m, odd=bool(q)) for q in (0, 1)}
        for s in sector_basis(p, n, 3):
            parity = s.state.fermion_parity()
            yield s, parity, grids[parity]


class TestBroadcastingContract:
    """A grid's column of radial nodes against its row of angular nodes
    samples the tensor grid: the result must equal the scattered-point
    evaluation on the same nodes, listed point by point."""

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_grid_bundle_equals_flattened_bundle(self, p):
        for s, _, grid in basis_grids(p, 3):
            r_flat = np.repeat(grid.r.ravel(), grid.m_ang)
            phi_flat = np.tile(grid.phi.ravel(), grid.m_rad)
            on_grid = state_bundle(s.state, p, grid.r, grid.phi)
            flat = state_bundle(s.state, p, r_flat, phi_flat)
            for name in BUNDLE_FIELDS:
                tensor = getattr(on_grid, name)
                assert tensor.shape == (4, grid.m_rad, grid.m_ang)
                assert np.max(np.abs(tensor.reshape(4, -1) - getattr(flat, name))) <= 1e-14, (s.family, s.level, name)
            field = state_field(s.state, p, grid.r, grid.phi)
            assert np.max(np.abs(field.reshape(4, -1) - flat.val)) <= 1e-14

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_opposite_parity_components_vanish_exactly(self, p):
        for s, parity, grid in basis_grids(p, 3):
            assert parity == (0 if s.family in ("zero", "double") else 1)
            other = PARITY_COMPONENTS[1 - parity]
            bundle = FactorTable(p, grid.r, grid.phi).bundle(s.state)
            for name in BUNDLE_FIELDS:
                assert np.all(getattr(bundle, name)[other] == 0.0), (s.family, s.level, name)
            assert np.any(bundle.val[PARITY_COMPONENTS[parity]] != 0.0)

    def test_table_reuses_factors_across_states(self):
        grid = Grid.for_pair(P, 2, 2, 20, 20, odd=True)
        table = FactorTable(P, grid.r, grid.phi)
        plus, minus = one_fermion_state("+", P, 1, 2), one_fermion_state("-", P, 2, 2)
        table.bundle(plus)
        radial, angular = len(table._radial), len(table._angular)
        np.testing.assert_array_equal(table.field(plus), table.bundle(plus).val)
        assert (len(table._radial), len(table._angular)) == (radial, angular)
        # the table holds only 1-D factors on the nodes, never the tensor grid:
        # a radial key stores one (m_rad, 1) column per level, an angular key (1, m_ang) rows
        for stack in (a for parts in table._radial.values() for a in parts):
            assert stack.shape[1:] == grid.r.shape
        for parts in table._angular.values():
            assert all(a.shape == grid.phi.shape for a in parts)
        stored = [a for parts in (*table._radial.values(), *table._angular.values()) for a in parts]
        assert not any(a.shape[-2:] == table.shape for a in stored)
        # factors memoized for one state serve another exactly as a fresh table would
        fresh = state_field(minus, P, grid.r, grid.phi)
        np.testing.assert_array_equal(table.field(minus), fresh)

    def test_one_level_pass_per_radial_key(self, monkeypatch):
        """Every level of a (sector, one-fermion) radial key comes from one
        ``radial_levels`` pass, however many states and terms share the key."""
        calls = []

        def counting(params, N_max, n, r, one_fermion=False):
            calls.append((n, one_fermion))
            return radial_levels(params, N_max, n, r, one_fermion)

        monkeypatch.setattr(states, "radial_levels", counting)
        grid = Grid.for_pair(P, 2, 2, 20, 20)
        table = FactorTable(P, grid.r, grid.phi)
        basis = [s.state for s in sector_basis(P, 2, 5)]
        even = [st for st in basis if st.fermion_parity() == 0]
        odd = [st for st in basis if st.fermion_parity() == 1]
        table.expand(even)
        table.expand(odd)
        for st in basis:
            table.bundle(st)
        assert sorted(calls) == sorted(table._radial) and len(calls) == len(set(calls))
        assert (2, False) in calls and (2, True) in calls


def sample_points(p, n_pts=30, seed=3):
    """A sector-0 grid's nodes and scattered interior points, as (r, phi) pairs."""
    rng = np.random.default_rng(seed)
    grid = Grid.for_pair(p, 0, 0, 20, 24)
    scattered = (rng.uniform(0.3, 2.5, n_pts), rng.uniform(0.05, 0.95, n_pts) * p.phi_max)
    return {"grid": (grid.r, grid.phi), "scattered": scattered}


def loop_bundle(table, state):
    """The bundle as a dict loop over the state's terms: per radial factor
    and component, the coefficient-weighted angular spinor factors in term
    order, then their products with the radial factors in key order."""
    sums = {}
    for t in state.terms:
        if t.is_zero:
            continue
        comps = sums.setdefault((t.N, t.n, FERMION_NUMBER[t.occ] == 1), {})
        for idx, *parts in table.spinor(t.occ, t.shift, t.angular_index):
            part = [t.coeff * x for x in parts]
            prev = comps.get(idx)
            comps[idx] = part if prev is None else [x + y for x, y in zip(prev, part)]
    out = [np.zeros((4, *table.shape)) for _ in BUNDLE_FIELDS]
    for key, comps in sums.items():
        R, R_r, R_rr = table.radial(*key)
        for idx, (a0, a1, a2) in comps.items():
            for o, value in zip(out, (R * a0, R_r * a0, R_rr * a0, R * a1, R * a2)):
                o[idx] += value
    return out


class TestExpansion:
    """``FactorTable.expand`` is the one grouping of catalog terms by factor
    key; bundles and fields are contractions of it."""

    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_zero_states_give_zero_fields(self, where):
        table = FactorTable(P, *sample_points(P)[where])
        for state in (CatalogState.zero(), v_action("-", P, 0, 0)):
            C, R, S = table.expand([state])
            assert C.shape == (1, 0, 0) and R.shape[-1] == 0 and S.shape[1] == 0
            bundle = table.bundle(state)
            for name in BUNDLE_FIELDS:
                value = getattr(bundle, name)
                assert value.shape == (4, *table.shape) and not value.any(), name
            field = table.field(state)
            assert field.shape == (4, *table.shape) and not field.any()

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_bundle_matches_term_loop_bitwise(self, p, where):
        points = sample_points(p)[where]
        for n in (0, 2):
            for s in sector_basis(p, n, 3):
                table = FactorTable(p, *points)
                bundle = table.bundle(s.state)
                reference = loop_bundle(FactorTable(p, *points), s.state)
                for name, ref in zip(BUNDLE_FIELDS, reference):
                    assert np.array_equal(getattr(bundle, name), ref), (n, s.family, s.level, name)
                assert np.array_equal(table.field(s.state), reference[0]), (n, s.family, s.level)
