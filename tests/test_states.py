import math

import numpy as np
import pytest

from ttwsusy import states
from ttwsusy.irreps import one_fermion_state, sector_basis, two_fermion_state, v_action, zero_fermion_state
from ttwsusy.generators import apply_operators
from ttwsusy.model import AngularRow, Grid, ModelParams, angular_parts, radial_levels
from ttwsusy.states import FERMION_NUMBER, OCC_VAC, OCC_YBAR, CatalogState, FactorTable, state_bundle, state_field, term

from catalog import add, fermion_parity, zero

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
        s = add(CatalogState.of(term(1.0, 0, 1, OCC_VAC)), CatalogState.of(term(2.0, 0, 1, OCC_VAC)))
        assert len(s.terms) == 1
        assert s.terms[0].coeff == 3.0

    def test_simplify_drops_cancellations(self):
        s = add(CatalogState.of(term(1.0, 0, 1, OCC_VAC)), CatalogState.of(term(-1.0, 0, 1, OCC_VAC)))
        assert s.is_zero

    def test_parities(self):
        assert fermion_parity(zero_fermion_state(P, 0, 1)) == 0
        assert fermion_parity(one_fermion_state("+", P, 0, 1)) == 1
        assert fermion_parity(two_fermion_state(P, 0, 1)) == 0
        # a basis state's parity, read off its tower, is that of its terms
        for n in (0, 1, 2):
            for s in sector_basis(P, n, 3):
                assert s.parity == fermion_parity(s.state), (n, s.family, s.level)


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
    truncation level 3, on its sector's grid."""
    for n in range(n_max + 1):
        grid = Grid.for_pair(p, n, n, m, m)
        for s in sector_basis(p, n, 3):
            yield s, s.parity, grid


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
            (compact,) = FactorTable(p, grid.r, grid.phi).bundles([s.state])
            assert set(compact.reached) <= set(PARITY_COMPONENTS[parity])
            bundle = compact.dense()
            for name in BUNDLE_FIELDS:
                assert np.all(getattr(bundle, name)[other] == 0.0), (s.family, s.level, name)
            assert np.any(bundle.val[PARITY_COMPONENTS[parity]] != 0.0)

    def test_table_reuses_factors_across_states(self, monkeypatch):
        """States that share factor keys in one call share their evaluation,
        and each state's arrays are those of a one-state table."""
        grid = Grid.for_pair(P, 2, 2, 20, 20)
        pair = [one_fermion_state("+", P, 1, 2), one_fermion_state("-", P, 2, 2)]
        alone = [next(FactorTable(P, grid.r, grid.phi).bundles([st])) for st in pair]
        calls = count_factor_passes(monkeypatch)
        table = FactorTable(P, grid.r, grid.phi)
        for bundle, ref in zip(table.bundles(pair), alone):
            assert bundle.reached == ref.reached == (1, 2)
            for name in BUNDLE_FIELDS:
                np.testing.assert_array_equal(getattr(bundle, name), getattr(ref, name))
        # both states name the radial key (2, one-fermion) and the angular keys (0, 2) and (1, 1)
        assert calls == {"radial": [(2, (True,), 2)], "angular": [(0, 2), (1, 1)]}

    def test_one_level_pass_per_radial_key(self, monkeypatch):
        """Within each call, every level of a sector's radial keys, with and
        without the one-fermion z^(-1/2), comes from one ``radial_levels``
        pass up to the highest N asked for of either, and, in a fresh
        table's first call, each (shift, angular index) from one
        ``angular_parts`` call, however many states and terms share the
        key; the table's row keeps them, so a second call on the same table
        makes the radial passes again and no ``angular_parts`` call."""
        grid = Grid.for_pair(P, 2, 2, 20, 20)
        bs = sector_basis(P, 2, 5)
        basis = [s.state for s in bs]
        even, odd = ([s.state for s in bs if s.parity == q] for q in (0, 1))
        calls = count_factor_passes(monkeypatch)
        for states_, call in (
            (even, lambda table, sts: list(table.expand(sts))),
            (odd, lambda table, sts: list(table.expand(sts))),
            (basis, lambda table, _: list(table.expand(even, odd))),
            (basis, lambda table, sts: list(table.bundles(sts))),
            (basis, lambda table, sts: list(table.fields(sts))),
        ):
            terms = [t for st in states_ for t in st.terms if not t.is_zero]
            flags, tops = {}, {}
            for t in terms:
                flags.setdefault(t.n, set()).add(FERMION_NUMBER[t.occ] == 1)
                tops[t.n] = max(t.N, tops.get(t.n, t.N))
            angular = {(t.n - t.angular_index, t.angular_index) for t in terms}
            table = FactorTable(P, grid.r, grid.phi)
            for first in (True, False):
                calls["radial"].clear()
                calls["angular"].clear()
                call(table, states_)
                assert sorted(calls["radial"]) == sorted((n, tuple(sorted(flags[n])), top) for n, top in tops.items())
                assert sorted(calls["angular"]) == (sorted(angular) if first else [])
        # the last call's one sector: both flags from one pass, up to the odd states' N = 6
        assert calls["radial"] == [(2, (False, True), 6)]

    def test_shared_pass_equals_one_pass_per_flag(self):
        """A call whose states name both radial keys of a sector reads them
        from one pass, and each key's factors are bit for bit those of a
        ``radial_levels`` call for its flag alone, at the same N_max."""
        grid = Grid.for_pair(P_IRR, 2, 2, 20, 20)
        bs = sector_basis(P_IRR, 2, 5)
        table = FactorTable(P_IRR, grid.r, grid.phi)
        even, odd = ([s.state for s in bs if s.parity == q] for q in (0, 1))
        for (C, R, _), states_ in zip(table.expand(even, odd), (even, odd)):
            keys = list(dict.fromkeys((t.N, t.n, FERMION_NUMBER[t.occ] == 1) for st in states_ for t in st.terms))
            assert R.shape[-1] == len(keys)
            for j, (N, n, one_fermion) in enumerate(keys):
                alone = radial_levels(P_IRR, 6, n, grid.r, one_fermion)
                for d in range(3):
                    assert np.array_equal(R[d, ..., j], alone[d][N]), (N, one_fermion, d)

    def test_table_keeps_no_factors_between_calls(self):
        # a table on plain arrays keeps its angular functions of phi on a
        # row of its own; a grid's table on the set's row; neither keeps a
        # spinor factor or a radial factor, and the one-fermion states'
        # trig is one (cos phi, sin phi) pair on phi's own shape
        grid = Grid.for_pair(P, 2, 2, 20, 20)
        states_ = [s.state for s in sector_basis(P, 2, 3) if s.parity == 1]
        plain, on_grid = FactorTable(P, grid.r, grid.phi), FactorTable.on(grid)
        for table in (plain, on_grid):
            list(table.expand(states_))
            for bundle in table.bundles(states_):
                apply_operators(("Hs",), bundle, table)
            list(table.fields(states_))
            assert sorted(vars(table)) == ["operators", "params", "phi", "r", "row", "shape"]
            assert table.row.phi is table.phi
            assert {key[0] for key in table.row._values} == {"parts", "terms", "trig"}
            cos, sin = table.row._values["trig",]
            assert np.array_equal(cos, np.cos(table.phi)) and np.array_equal(sin, np.sin(table.phi)) and cos.shape == table.phi.shape
            assert list(table.operators) == ["Hs"]
        assert on_grid.row is grid.angular
        assert plain.row is not grid.angular and plain.row.w_phi is None
        assert FactorTable(P, grid.r, grid.phi).row is not plain.row

    @pytest.mark.parametrize("pair", [(2, 2), (1, 2)], ids=["sector-grid", "pair-grid"])
    def test_plain_and_grid_tables_agree_bit_for_bit(self, pair):
        """On a grid's own (r, phi), a table with a row of its own and the
        grid's table, which reads the set's row, give the same bits: one
        path writes every spinor factor, wherever its angular functions
        are kept."""
        grid = Grid.for_pair(P_IRR, *pair, 16, 12)
        bs = sector_basis(P_IRR, 2, 4)
        basis = [s.state for s in bs]
        even, odd_ = ([s.state for s in bs if s.parity == q] for q in (0, 1))
        plain, on_grid = FactorTable(P_IRR, grid.r, grid.phi), FactorTable.on(grid)
        for a, b in zip(plain.expand(even, odd_), on_grid.expand(even, odd_), strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        for a, b in zip(plain.fields(basis), on_grid.fields(basis), strict=True):
            assert a.reached == b.reached and np.array_equal(a.rows, b.rows)
        names = ("K0", "K+", "K-", "Y", "V+", "V-", "W+", "W-", "H", "Hs", "Q", "Qdag", "1")
        for a, b in zip(plain.bundles(basis), on_grid.bundles(basis), strict=True):
            assert a.reached == b.reached
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in BUNDLE_FIELDS)
            for x, y in zip(apply_operators(names, a, plain), apply_operators(names, b, on_grid), strict=True):
                assert x.reached == y.reached and np.array_equal(x.rows, y.rows)


def count_factor_passes(monkeypatch):
    """Record each ``radial_levels`` pass of the states module as (n, its
    one-fermion flags as a tuple, N_max) and each ``angular_parts`` call
    as (shift, index)."""
    calls = {"radial": [], "angular": []}

    def radial(params, N_max, n, r, one_fermion=False):
        calls["radial"].append((n, one_fermion if isinstance(one_fermion, tuple) else (one_fermion,), N_max))
        return radial_levels(params, N_max, n, r, one_fermion)

    def angular(params, m, phi, shift=0):
        calls["angular"].append((shift, m))
        return angular_parts(params, m, phi, shift)

    monkeypatch.setattr(states, "radial_levels", radial)
    monkeypatch.setattr(states, "angular_parts", angular)
    return calls


def sample_points(p, n_pts=30, seed=3):
    """A sector-0 grid's nodes and scattered interior points, as (r, phi) pairs."""
    rng = np.random.default_rng(seed)
    grid = Grid.for_pair(p, 0, 0, 20, 24)
    scattered = (rng.uniform(0.3, 2.5, n_pts), rng.uniform(0.05, 0.95, n_pts) * p.phi_max)
    return {"grid": (grid.r, grid.phi), "scattered": scattered}


def loop_bundle(p, r, phi, state):
    """The bundle as a dict loop over the state's terms, with every factor
    evaluated by ``radial_levels``/``angular_parts`` apart from any table:
    per radial factor and component, the coefficient-weighted angular
    spinor factors in term order, then their products with the radial
    factors in key order."""
    sums = {}
    for t in state.terms:
        if t.is_zero:
            continue
        comps = sums.setdefault((t.N, t.n, FERMION_NUMBER[t.occ] == 1), {})
        A0, A1, A2 = angular_parts(p, t.angular_index, phi, t.n - t.angular_index)
        for idx, f, f1, f2 in states._occupation_trig(t.occ, AngularRow(phi)):
            part = [t.coeff * x for x in (f * A0, f1 * A0 + f * A1, f2 * A0 + 2.0 * f1 * A1 + f * A2)]
            prev = comps.get(idx)
            comps[idx] = part if prev is None else [x + y for x, y in zip(prev, part)]
    out = [np.zeros((4, *np.broadcast_shapes(r.shape, phi.shape))) for _ in BUNDLE_FIELDS]
    for (N, n, one_fermion), comps in sums.items():
        R, R_r, R_rr = (part[N] for part in radial_levels(p, N, n, r, one_fermion))
        for idx, (a0, a1, a2) in comps.items():
            for o, value in zip(out, (R * a0, R_r * a0, R_rr * a0, R * a1, R * a2)):
                o[idx] += value
    return out


class TestCompactLayout:
    """A table's bundles and fields keep one row per component the state
    reaches: one for a zero- or two-fermion state, two for a one-fermion
    state; ``dense`` puts them in place among four rows."""

    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_rows_per_reached_component(self, where):
        points = sample_points(P_IRR)[where]
        table = FactorTable(P_IRR, *points)
        for n in (0, 1, 2):
            states_ = [s.state for s in sector_basis(P_IRR, n, 3)]
            families = [s.family for s in sector_basis(P_IRR, n, 3)]
            for family, st, bundle, field in zip(families, states_, table.bundles(states_), table.fields(states_)):
                reached = {"zero": (0,), "lower": (1, 2), "upper": (1, 2), "double": (3,)}[family]
                assert bundle.reached == field.reached == reached, (n, family)
                for name in BUNDLE_FIELDS:
                    assert getattr(bundle, name).shape == (len(reached), *table.shape), (n, family, name)
                assert field.rows.shape == (len(reached), *table.shape)
                dense = bundle.dense()
                for name, ref in zip(BUNDLE_FIELDS, loop_bundle(P_IRR, *points, st)):
                    assert np.array_equal(getattr(dense, name), ref), (n, family, name)
                    assert np.array_equal(getattr(dense, name)[list(reached)], getattr(bundle, name))
                assert np.array_equal(field.dense(), dense.val) and dense.reached == (0, 1, 2, 3)


class TestExpansion:
    """``FactorTable.expand`` is the one grouping of catalog terms by factor
    key; bundles and fields are contractions of it."""

    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_zero_states_give_zero_fields(self, where):
        table = FactorTable(P, *sample_points(P)[where])
        zeros = [zero(), v_action("-", P, 0, 0)]
        for state in zeros:
            ((C, R, S),) = table.expand([state])
            assert C.shape == (1, 0, 0) and R.shape[-1] == 0 and S.shape[1] == 0
        for bundle, field in zip(table.bundles(zeros), table.fields(zeros)):
            # no component is reached: no row is kept, and the dense form is zero
            assert bundle.reached == field.reached == ()
            dense = bundle.dense()
            for name in BUNDLE_FIELDS:
                assert getattr(bundle, name).shape == (0, *table.shape), name
                value = getattr(dense, name)
                assert value.shape == (4, *table.shape) and not value.any(), name
            assert field.rows.shape == (0, *table.shape)
            assert field.dense().shape == (4, *table.shape) and not field.dense().any()

    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_groups_equal_separate_calls(self, where):
        """One call with groups that share keys, named in different orders,
        gives each group C-contiguous arrays equal to the last bit to those
        of a call with that group alone."""
        table = FactorTable(P_IRR, *sample_points(P_IRR)[where])
        plus = [one_fermion_state("+", P_IRR, N - 1, 2) for N in range(1, 4)]
        minus = [one_fermion_state("-", P_IRR, N, 2) for N in (3, 1, 2)]
        even = [zero_fermion_state(P_IRR, 2, 2), two_fermion_state(P_IRR, 1, 2)]
        groups = (plus, minus, even, [zero()], plus)
        for i, (group, arrays) in enumerate(zip(groups, table.expand(*groups))):
            (alone,) = FactorTable(P_IRR, table.r, table.phi).expand(group)
            for name, got, ref in zip("CRS", arrays, alone):
                assert got.flags.c_contiguous and np.array_equal(got, ref), (i, name)

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_bundle_matches_term_loop_bitwise(self, p, where):
        points = sample_points(p)[where]
        for n in (0, 2):
            for s in sector_basis(p, n, 3):
                table = FactorTable(p, *points)
                (bundle,) = table.bundles([s.state])
                reference = loop_bundle(p, *points, s.state)
                for name, ref in zip(BUNDLE_FIELDS, reference):
                    assert np.array_equal(getattr(bundle.dense(), name), ref), (n, s.family, s.level, name)
                (field,) = table.fields([s.state])
                assert np.array_equal(field.dense(), reference[0]), (n, s.family, s.level)

    @pytest.mark.parametrize("p", [P, P_IRR], ids=["k=2", "k=sqrt2"])
    @pytest.mark.parametrize("where", ["grid", "scattered"])
    def test_batch_matches_term_loop_bitwise(self, p, where):
        """One call for a batch whose states name shared keys in different
        orders gives each state the bits of its own term loop."""
        points = sample_points(p)[where]
        n = 2
        batch = [v_action(sign, p, N, n) for N in (3, 1, 0) for sign in ("+", "-")]
        batch += [one_fermion_state(sign, p, N, n) for N in (0, 1, 2) for sign in ("+", "-")]
        # four radial keys, then the same terms backwards
        wide = add(batch[0], batch[2])
        batch += [wide, CatalogState(wide.terms[::-1])]
        orders = [[(t.N, t.occ) for t in st.terms] for st in batch]
        assert orders[-1] == orders[-2][::-1] and orders[3][:2] == orders[4][1::-1]
        table = FactorTable(p, *points)
        for i, (st, bundle, field) in enumerate(zip(batch, table.bundles(batch), table.fields(batch))):
            reference = loop_bundle(p, *points, st)
            for name, ref in zip(BUNDLE_FIELDS, reference):
                assert np.array_equal(getattr(bundle.dense(), name), ref), (i, name)
            assert np.array_equal(field.dense(), reference[0]), i
