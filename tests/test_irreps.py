import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from ttwsusy.generators import GENERATOR_NAMES, apply_operators, generator_matrices, interior_mask, project
from ttwsusy.irreps import (
    casimir_eigenvalues,
    casimir_matrices,
    classify,
    k_ladder_coeff,
    mixing_coeffs,
    one_fermion_state,
    overlap,
    sector_basis,
    sp2_family_state,
    two_fermion_state,
    v_action,
    zero_fermion_state,
)
from ttwsusy.model import Grid, ModelParams, angular_parts, weights_of
from ttwsusy.states import FactorTable, state_field
from ttwsusy.verify import DEFAULT_PARAM_SETS

from catalog import add, fermion_parity, scaled
from sampled import sampled_inner

P_SW = ModelParams(k=2.0, a=1.0, b=1.0, omega=1.0)
P_GEN = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
P_IRR = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0)

MR = MA = 56


def apply(name, state, p, r, phi):
    """Operator ``name`` applied to a catalog state at (r, phi), as the
    dense (4, *shape) array of its compact image."""
    table = FactorTable(p, r, phi)
    (bundle,) = table.bundles([state])
    (image,) = apply_operators((name,), bundle, table)
    return image.dense()


class TestLadderCoefficients:
    def test_lowest_weight_is_annihilated(self):
        assert k_ladder_coeff("-", 2.3, 0) == 0.0

    def test_reference_value(self):
        assert k_ladder_coeff("+", 1.5, 0) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_commutator_diagonal_consistency(self):
        # [K+, K-] = -2 K0 on a lowest-weight tower forces
        # coeff+(N)^2 - coeff-(N)^2 = 2 tau + 2N
        tau = 3.7
        for N in range(6):
            diff = k_ladder_coeff("+", tau, N) ** 2 - k_ladder_coeff("-", tau, N) ** 2
            assert diff == pytest.approx(2 * tau + 2 * N, rel=1e-13)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            k_ladder_coeff("up", 2.0, 1)


class TestOddActionExpansions:
    def test_ground_state_is_annihilated_by_lowering(self):
        assert v_action("-", P_GEN, 0, 0).is_zero

    @pytest.mark.parametrize("p", [P_GEN, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_norms_match_quadrature(self, p):
        lam = (1 + p.a + p.b) * p.k
        mu = 1 * p.k
        grid = Grid.for_pair(p, 1, 1, MR, MA)
        for N in (0, 1, 3):
            plus = state_field(v_action("+", p, N, 1), p, grid.r, grid.phi)
            assert sampled_inner(grid, plus, plus) == pytest.approx(N + lam + 1.0, rel=1e-11)
            minus = state_field(v_action("-", p, N, 1), p, grid.r, grid.phi)
            assert sampled_inner(grid, minus, minus) == pytest.approx(N + mu, rel=1e-11)

    def test_normalized_states_have_unit_norm(self):
        grid = Grid.for_pair(P_GEN, 2, 2, MR, MA)
        for sign in ("+", "-"):
            f = state_field(one_fermion_state(sign, P_GEN, 1, 2), P_GEN, grid.r, grid.phi)
            assert sampled_inner(grid, f, f) == pytest.approx(1.0, abs=1e-11)


class TestTwoFermionStates:
    def test_vanishes_at_n_zero(self):
        assert two_fermion_state(P_GEN, 3, 0).is_zero

    def test_reference_norm(self):
        # ||V+V- |tau, tau+N, q>|| = sqrt(n (n+a+b) k^2) = 2 sqrt(3) at
        # n = 1, k = 2, a = b = 1
        p = P_SW
        grid = Grid.for_pair(p, 1, 1, MR, MA)
        raw = apply("V+", v_action("-", p, 1, 1), p, grid.r, grid.phi)
        norm = math.sqrt(sampled_inner(grid, raw, raw))
        assert norm == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-10)

    def test_antisymmetry_of_double_action(self):
        p = P_GEN
        grid = Grid.for_pair(p, 1, 1, MR, MA)
        pm = apply("V+", v_action("-", p, 2, 1), p, grid.r, grid.phi)
        mp = apply("V-", v_action("+", p, 2, 1), p, grid.r, grid.phi)
        scale = np.max(np.abs(pm))
        assert np.max(np.abs(pm + mp)) / scale < 1e-10

    def test_matches_normalized_state(self):
        p = P_GEN
        lam = (1 + p.a + p.b) * p.k
        mu = p.k
        grid = Grid.for_pair(p, 1, 1, MR, MA)
        raw = apply("V+", v_action("-", p, 0, 1), p, grid.r, grid.phi)
        ref = state_field(two_fermion_state(p, 0, 1), p, grid.r, grid.phi) * math.sqrt(mu * lam)
        assert np.max(np.abs(raw - ref)) / np.max(np.abs(ref)) < 1e-10

    def test_unit_norm(self):
        grid = Grid.for_pair(P_IRR, 2, 2, MR, MA)
        f = state_field(two_fermion_state(P_IRR, 1, 2), P_IRR, grid.r, grid.phi)
        assert sampled_inner(grid, f, f) == pytest.approx(1.0, abs=1e-11)


class TestCatalogCoefficients:
    def test_even_states_are_signs_on_one_term(self):
        # over normalized factors the zero- and two-fermion states are (-1)^N
        # on one term; as Gamma-function ratios the coefficients underflowed
        # to 0.0 at k = 30 (n = 6), which left the states empty
        p = ModelParams(k=30.0, a=1.0, b=1.0)
        for N in range(4):
            for n in (1, 6):
                for st in (zero_fermion_state(p, N, n), two_fermion_state(p, N, n)):
                    assert [t.coeff for t in st.terms] == [(-1.0) ** N], (N, n)


class TestOverlap:
    def test_reference_value(self):
        assert overlap(P_SW, 1, 1) == pytest.approx(math.sqrt(3.0 / 7.0), rel=1e-14)

    def test_strictly_below_one(self):
        for p in (P_GEN, P_IRR):
            for n in range(1, 4):
                for N in range(1, 7):
                    assert 0.0 < overlap(p, N, n) < 1.0

    def test_quadrature_oracle(self):
        p = P_IRR
        grid = Grid.for_pair(p, 2, 2, MR, MA)
        for N in (1, 2, 4):
            plus = state_field(one_fermion_state("+", p, N - 1, 2), p, grid.r, grid.phi)
            minus = state_field(one_fermion_state("-", p, N, 2), p, grid.r, grid.phi)
            measured = sampled_inner(grid, plus, minus)
            assert measured == pytest.approx(overlap(p, N, 2), abs=1e-9)
            assert measured > 0

    def test_projected_overlap_equals_sampled(self):
        p = P_GEN
        for n in range(1, 5):
            grid = Grid.for_pair(p, n, n, MR, MA)
            plus = [one_fermion_state("+", p, N - 1, n) for N in range(1, 6)]
            minus = [one_fermion_state("-", p, N, n) for N in range(1, 6)]
            projected = project(("1",), plus, minus, grid)["1"]
            fields = {id(s): state_field(s, p, grid.r, grid.phi) for s in plus + minus}
            sampled = np.array([[sampled_inner(grid, fields[id(a)], fields[id(b)]) for b in minus] for a in plus])
            assert np.max(np.abs(projected - sampled)) < 1e-13, n

    def test_formula_is_one_at_n_zero(self):
        assert overlap(P_GEN, 3, 0) == pytest.approx(1.0, rel=1e-14)

    def test_families_coincide_at_n_zero(self):
        grid = Grid.for_pair(P_GEN, 0, 0, MR, MA)
        for N in (1, 2, 3):
            plus = state_field(one_fermion_state("+", P_GEN, N - 1, 0), P_GEN, grid.r, grid.phi)
            minus = state_field(one_fermion_state("-", P_GEN, N, 0), P_GEN, grid.r, grid.phi)
            assert np.max(np.abs(plus - minus)) < 1e-9

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            overlap(P_GEN, 0, 1)


class TestMixing:
    def test_beta_vanishes_at_level_zero(self):
        _, beta, _, _ = mixing_coeffs(P_GEN, 0, 1)
        assert beta == 0.0

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            mixing_coeffs(P_GEN, 1, 0)

    @pytest.mark.parametrize("p", [P_GEN, P_IRR], ids=["k=2", "k=sqrt2"])
    def test_tower_states_are_orthonormal(self, p):
        n = 1
        grid = Grid.for_pair(p, n, n, MR, MA)
        states = [sp2_family_state(p, fam, lv, n) for fam in ("lower", "upper") for lv in range(3)]
        fields = [state_field(s, p, grid.r, grid.phi) for s in states]
        gram = np.array([[sampled_inner(grid, f, g) for g in fields] for f in fields])
        assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-9

    def test_lower_tower_head_is_lowest_weight(self):
        p = P_GEN
        grid = Grid.for_pair(p, 1, 1, MR, MA)
        head = sp2_family_state(p, "lower", 0, 1)
        km = apply("K-", head, p, grid.r, grid.phi)
        assert np.max(np.abs(km)) < 1e-9


def composed_family_state(params, family, level, n):
    """State ``level`` of tower ``family`` in sector n composed from the
    tests' catalog algebra, scaled ``one_fermion_state``s and their sum:
    the reference for the closed-form ``sp2_family_state``."""
    if family == "zero":
        return zero_fermion_state(params, level, n)
    if family == "double":
        return two_fermion_state(params, level, n)
    if family == "upper":
        if n == 0:
            return one_fermion_state("+", params, level, n)
        _, _, g_N, d_N = mixing_coeffs(params, level, n)
        return add(scaled(one_fermion_state("-", params, level + 1, n), g_N), scaled(one_fermion_state("+", params, level, n), d_N))
    a_N, b_N, _, _ = mixing_coeffs(params, level, n)
    state = scaled(one_fermion_state("-", params, level, n), a_N)
    if level >= 1:
        state = add(state, scaled(one_fermion_state("+", params, level - 1, n), b_N))
    return state


class TestSectorBasis:
    @pytest.mark.parametrize(
        "p",
        [ModelParams(**ps) for ps in DEFAULT_PARAM_SETS] + [ModelParams(k=0.01, a=1.0, b=1.0), ModelParams(k=1.0, a=1e-4, b=1e-4)],
        ids=[f"default-{i}" for i in range(len(DEFAULT_PARAM_SETS))] + ["k=0.01", "a=b=1e-4"],
    )
    def test_closed_form_equals_composed_states(self, p):
        """Every basis state, written from the closed forms, has the terms of
        the composed state in the same order, each coefficient bit for bit."""
        for n in range(11):
            basis = sector_basis(p, n, 16)
            assert [(s.family, s.level) for s in basis] == [(f, level) for f in ("zero", "double", "lower", "upper") if n or f in ("zero", "upper") for level in range(17)]
            for s in basis:
                ref = composed_family_state(p, s.family, s.level, n)
                for state in (s.state, sp2_family_state(p, s.family, s.level, n)):
                    assert [(t.N, t.n, t.occ) for t in state.terms] == [(t.N, t.n, t.occ) for t in ref.terms], (n, s.family, s.level)
                    assert [t.coeff.hex() for t in state.terms] == [t.coeff.hex() for t in ref.terms], (n, s.family, s.level)

    @pytest.mark.parametrize("ps", DEFAULT_PARAM_SETS, ids=[f"default-{i}" for i in range(len(DEFAULT_PARAM_SETS))])
    def test_even_states_before_odd_ones(self, ps):
        """Every even state comes before every odd one, by the fermion
        numbers of its terms and by its ``parity``, and each tower is one
        run of levels 0..N_max: each parity is one slice of the basis."""
        p = ModelParams(**ps)
        for n in range(7):
            basis = sector_basis(p, n, 5)
            parities = [fermion_parity(s.state) for s in basis]
            assert parities == sorted(parities) and [s.parity for s in basis] == parities, n
            towers = [s.family for s in basis[::6]]
            assert len(set(towers)) == len(towers) == (2 if n == 0 else 4), n
            assert [(s.family, s.level) for s in basis] == [(f, level) for f in towers for level in range(6)], n

    def test_family_content(self):
        assert {s.family for s in sector_basis(P_GEN, 0, 2)} == {"zero", "upper"}
        assert {s.family for s in sector_basis(P_GEN, 1, 2)} == {"zero", "lower", "upper", "double"}

    def test_orthonormality_per_sector(self):
        p = P_IRR
        for n in (0, 1):
            basis = sector_basis(p, n, 2)
            grid = Grid.for_pair(p, n, n, MR, MA)
            for odd in (False, True):
                sel = [s for s in basis if (s.family in ("lower", "upper")) == odd]
                fields = [state_field(s.state, p, grid.r, grid.phi) for s in sel]
                gram = np.array([[sampled_inner(grid, f, g) for g in fields] for f in fields])
                assert np.max(np.abs(gram - np.eye(len(sel)))) < 1e-9, (n, odd)

    def test_invalid_family_requests(self):
        with pytest.raises(ValueError):
            sp2_family_state(P_GEN, "lower", 0, 0)
        with pytest.raises(ValueError):
            sp2_family_state(P_GEN, "double", 0, 0)
        with pytest.raises(ValueError):
            sp2_family_state(P_GEN, "middle", 0, 1)


def dense(blocks):
    """The whole matrices, with the sector blocks on the diagonal."""
    return {g: block_diag(*(block[g] for block in blocks)) for g in blocks[0]}


@pytest.fixture(scope="module")
def sector_blocks():
    trunc = (4, 3)
    blocks, basis = generator_matrices(P_SW, trunc, m_rad=MR, m_ang=MA)
    return P_SW, trunc, blocks, basis


@pytest.fixture(scope="module")
def mats(sector_blocks):
    p, trunc, blocks, basis = sector_blocks
    return p, trunc, dense(blocks), basis


class TestCasimirs:
    def test_reference_eigenvalues(self):
        assert casimir_eigenvalues(P_SW, 1) == pytest.approx((12.0, -24.0))
        assert casimir_eigenvalues(P_GEN, 0) == (0.0, 0.0)

    def test_blocks_are_scalar(self, mats):
        p, trunc, m, basis = mats
        c2, c3 = casimir_matrices(m)
        inner2 = interior_mask(basis, trunc[0], depth=2)
        for n in range(3):
            sel = np.array([s.n == n for s in basis]) & inner2
            c2_th, c3_th = casimir_eigenvalues(p, n)
            eye = np.eye(int(sel.sum()))
            assert np.max(np.abs(c2[np.ix_(sel, sel)] - c2_th * eye)) < 1e-7
            assert np.max(np.abs(c3[np.ix_(sel, sel)] - c3_th * eye)) < 1e-7

    def test_commute_with_generators(self, mats):
        p, trunc, m, basis = mats
        c2, _ = casimir_matrices(m)
        inner2 = interior_mask(basis, trunc[0], depth=2)
        for gname, gm in m.items():
            comm = c2 @ gm - gm @ c2
            assert np.max(np.abs(comm[np.ix_(inner2, inner2)])) < 1e-7, gname

    def test_matrix_oracle_for_general_parameters(self):
        p = ModelParams(k=3.0, a=1.5, b=0.7, omega=1.0)
        blocks, basis = generator_matrices(p, (3, 3), m_rad=64, m_ang=64)
        c2, c3 = casimir_matrices(dense(blocks))
        inner2 = interior_mask(basis, 3, depth=2)
        sel = np.array([s.n == 2 for s in basis]) & inner2
        c2_th, c3_th = casimir_eigenvalues(p, 2)
        eye = np.eye(int(sel.sum()))
        assert np.max(np.abs(c2[np.ix_(sel, sel)] - c2_th * eye)) < 1e-7
        assert np.max(np.abs(c3[np.ix_(sel, sel)] - c3_th * eye)) < 1e-7


class TestBlockDiagonality:
    def test_one_block_per_sector(self):
        # the truncation-16x10 benchmark configuration: dimension 34 + 10 x 68
        blocks, basis = generator_matrices(P_IRR, (16, 10))
        assert len(blocks) == 11
        start = 0
        for n, block in enumerate(blocks):
            size = 34 if n == 0 else 68
            assert [s.n for s in basis[start : start + size]] == [n] * size
            assert {g: m.shape for g, m in block.items()} == {g: (size, size) for g in GENERATOR_NAMES}
            # block n's rows are the basis entries of sector n, in order: K0 and Y carry their weights
            states = basis[start : start + size]
            np.testing.assert_allclose(np.diag(block["K0"]), [s.k0 for s in states], rtol=0, atol=1e-9)
            np.testing.assert_allclose(np.diag(block["Y"]), [s.y for s in states], rtol=0, atol=1e-9)
            start += size
        assert start == len(basis)

    def test_blockwise_casimirs_equal_dense(self, sector_blocks):
        _, _, blocks, basis = sector_blocks
        c2, c3 = casimir_matrices(dense(blocks))
        sectors = np.array([s.n for s in basis])
        off_block = np.ones_like(c2, dtype=bool)
        for n, block in enumerate(blocks):
            idx = np.flatnonzero(sectors == n)
            b2, b3 = casimir_matrices(block)
            np.testing.assert_allclose(b2, c2[np.ix_(idx, idx)], rtol=0, atol=1e-12)
            np.testing.assert_allclose(b3, c3[np.ix_(idx, idx)], rtol=0, atol=1e-12)
            off_block[np.ix_(idx, idx)] = False
        assert not np.any(c2[off_block]) and not np.any(c3[off_block])

    def test_sampled_cross_sector_elements_vanish(self):
        p = P_IRR
        for n1, n2 in ((0, 1), (1, 2), (0, 2)):
            for odd in (False, True):
                alpha = (n1 + n2 + p.a + p.b) * p.k - (1.0 if odd else 0.0)
                grid = Grid(p, alpha, MR, MA)
                fams = ("lower", "upper") if odd else ("zero", "double")
                for f1 in fams:
                    for f2 in fams:
                        try:
                            s1 = sp2_family_state(p, f1, 1, n1)
                            s2 = sp2_family_state(p, f2, 1, n2)
                        except ValueError:
                            continue
                        bra = state_field(s1, p, grid.r, grid.phi)
                        for gname in ("K0", "K+", "K-", "Y"):
                            out = apply(gname, s2, p, grid.r, grid.phi)
                            assert abs(sampled_inner(grid, bra, out)) < 1e-9, (n1, n2, gname)


    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 2), (0, 2), (1, 1)])
    def test_projected_elements_equal_sampled(self, n1, n2):
        # the sampled route sums apply_operators fields on the 2-D grid; on the
        # same-sector pair (1, 1) the K0 and Y elements do not vanish, so the
        # agreement is not only between two roundoff-sized numbers
        p = P_IRR
        for odd in (False, True):
            grid = Grid(p, (n1 + n2 + p.a + p.b) * p.k - (1.0 if odd else 0.0), MR, MA)
            fams = ("lower", "upper") if odd else ("zero", "double")
            rows = [sp2_family_state(p, f, 1, n1) for f in fams if n1 > 0 or f in ("zero", "upper")]
            cols = [sp2_family_state(p, f, 1, n2) for f in fams if n2 > 0 or f in ("zero", "upper")]
            names = ("K0", "K+", "K-", "Y")
            projected = project(names, rows, cols, grid)
            bras = [state_field(s1, p, grid.r, grid.phi) for s1 in rows]
            for gname in names:
                kets = [apply(gname, s2, p, grid.r, grid.phi) for s2 in cols]
                sampled = np.array([[sampled_inner(grid, bra, ket) for ket in kets] for bra in bras])
                assert np.max(np.abs(projected[gname] - sampled)) < 1e-13, (odd, gname)
                if n1 == n2 and gname in ("K0", "Y"):
                    assert np.max(np.abs(sampled)) > 0.1


class TestClassification:
    def test_atypical_sector(self):
        label = classify(P_GEN, 0)
        assert label.kind == "atypical-LWS"
        assert len(label.blocks) == 2
        w = weights_of(P_GEN, 0)
        assert label.blocks[0] == (w.tau, w.q)
        assert w.tau == -w.q

    def test_generic_sector(self):
        label = classify(P_GEN, 1)
        assert label.kind == "non-LWS"
        assert len(label.blocks) == 4
        w = weights_of(P_GEN, 1)
        assert set(label.blocks) == {
            (w.tau, w.q),
            (w.tau - 0.5, w.q + 0.5),
            (w.tau + 0.5, w.q + 0.5),
            (w.tau, w.q + 1.0),
        }

    @pytest.mark.parametrize("n", range(4))
    def test_blocks_are_the_lowest_weights_of_the_basis_towers(self, n):
        # both read one tower table: the same floats, not merely close ones
        lowest = [(s.k0, s.y) for s in sector_basis(P_IRR, n, 2) if s.level == 0]
        assert classify(P_IRR, n).blocks == tuple(lowest)

    def test_motion_integral_eigenvalue(self):
        assert classify(P_SW, 1).motion_integral_eigenvalue == pytest.approx(64.0)

    @pytest.mark.parametrize(
        "ps",
        [*DEFAULT_PARAM_SETS, {"k": 0.37, "a": 0.3, "b": 0.45, "omega": 1.0}],
        ids=lambda ps: "k={k:g},a={a:g},b={b:g}".format(**ps),
    )
    def test_motion_integral_acts_on_the_angular_factors(self, ps):
        """The abstract's integral of motion as an operator:
        X_k = -d^2/dphi^2 + k^2 [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)]
        applied to each angular factor A_n (``angular_parts``, n <= 6) is
        ``classify``'s eigenvalue (2n+a+b)^2 k^2 times A_n, and
        C2 = (X_k - (a+b)^2 k^2) / 4 is the sector's closed-form Casimir."""
        p = ModelParams(**ps)
        k, a, b = p.k, p.a, p.b
        # the worst reading here is 6.9e-15, at k = 0.37
        phi = np.linspace(0.05, 0.95, 97) * p.phi_max
        potential = k * k * (a * (a - 1.0) / np.cos(k * phi) ** 2 + b * (b - 1.0) / np.sin(k * phi) ** 2)
        for n in range(7):
            A, _, A2 = angular_parts(p, n, phi)
            x_eig = classify(p, n).motion_integral_eigenvalue
            residual = np.max(np.abs(-A2 + potential * A - x_eig * A)) / np.max(np.abs(x_eig * A))
            assert residual < 1e-13, (n, residual)
            assert (x_eig - (a + b) ** 2 * k * k) / 4.0 == pytest.approx(casimir_eigenvalues(p, n)[0], rel=1e-14, abs=1e-14)
