import math

import numpy as np
import pytest

from ttwsusy.model import (
    Grid,
    ModelParams,
    energy,
    eval_angular,
    eval_radial,
    eval_wavefunction,
    norm_constant,
    radial_levels,
    susy_energy,
    weights_of,
)
from ttwsusy.generators import wavefunction_gram
from ttwsusy.specfun import laguerre
from ttwsusy.verify import DEFAULT_PARAM_SETS

P_UNIT = ModelParams(k=1.0, a=1.0, b=1.0, omega=1.0)
P_GEN = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(k=0.0, a=1.0, b=1.0)
        with pytest.raises(ValueError):
            ModelParams(k=1.0, a=1.0, b=1.0, omega=-2.0)
        with pytest.raises(ValueError):
            ModelParams(k=1.0, a=-0.3, b=1.0)

    def test_warn_regime_flag(self):
        assert not P_GEN.warn_regime
        assert ModelParams(k=1.0, a=0.4, b=1.0).warn_regime


class TestSpectrum:
    def test_energy_values(self):
        assert energy(P_UNIT, 0, 0) == pytest.approx(6.0)
        assert energy(ModelParams(k=3.0, a=1.0, b=1.0), 1, 1) == pytest.approx(30.0)

    def test_ground_state_formula(self):
        p = ModelParams(k=2.5, a=1.3, b=0.9, omega=0.8)
        assert energy(p, 0, 0) == pytest.approx(2 * p.omega * ((p.a + p.b) * p.k + 1.0))

    def test_susy_energy_values(self):
        assert susy_energy(P_GEN, 0, 0) == 0.0
        assert susy_energy(ModelParams(k=2.0, a=1.0, b=1.0), 1, 1) == pytest.approx(12.0)
        assert susy_energy(ModelParams(k=2.5, a=1.0, b=1.0, omega=0.7), 2, 1) == pytest.approx(12.6)

    def test_susy_energy_is_energy_difference_exactly(self):
        p = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=0.9)
        for N in range(5):
            for n in range(5):
                assert susy_energy(p, N, n) == energy(p, N, n) - energy(p, 0, 0)
                assert susy_energy(p, N, n) == pytest.approx(4 * p.omega * (N + n * p.k), rel=1e-13)


class TestWeights:
    def test_values(self):
        w = weights_of(P_UNIT, 0)
        assert (w.tau, w.q) == pytest.approx((1.5, -1.5))
        assert weights_of(P_GEN, 1).tau == pytest.approx(6.5)

    def test_charge_independent_of_n(self):
        qs = {weights_of(P_GEN, n).q for n in range(6)}
        assert len(qs) == 1

    def test_atypicality_relation(self):
        for n in range(7):
            w = weights_of(P_GEN, n)
            assert w.tau + w.q == pytest.approx(n * P_GEN.k, abs=1e-12)
            assert (w.tau + w.q == 0) == (n == 0)


class TestFactors:
    def test_radial_vanishes_at_origin(self):
        assert eval_radial(P_GEN, 0, 0, 0.0) == 0.0

    def test_radial_ratio_is_laguerre(self):
        z = 1.7
        alpha = P_GEN.sector_alpha(2)
        ratio = eval_radial(P_GEN, 1, 2, z) / eval_radial(P_GEN, 0, 2, z)
        assert ratio == pytest.approx(laguerre(1, alpha, z), rel=1e-13)

    def test_radial_decay(self):
        # positive and decaying at large z relative to the peak scale
        assert 0 < eval_radial(P_GEN, 0, 0, 60.0) < eval_radial(P_GEN, 0, 0, 8.0)

    def test_angular_ground_value(self):
        assert eval_angular(P_UNIT, 0, math.pi / 4) == pytest.approx(0.5, rel=1e-14)

    def test_angular_node(self):
        p = ModelParams(k=2.0, a=1.0, b=1.0)
        assert eval_angular(p, 1, math.pi / 8) == pytest.approx(0.0, abs=1e-14)

    def test_angular_mirror_parity(self):
        p = ModelParams(k=2.0, a=1.3, b=1.3)
        for n in range(5):
            left = eval_angular(p, n, p.phi_max - 0.31)
            right = eval_angular(p, n, 0.31)
            assert left == pytest.approx((-1) ** n * right, rel=1e-12)

    def test_angular_domain_error(self):
        with pytest.raises(ValueError):
            eval_angular(P_GEN, 0, 0.0)
        with pytest.raises(ValueError):
            eval_angular(P_GEN, 0, P_GEN.phi_max)


class TestNormalization:
    def test_norm_constant_sign(self):
        for n in range(3):
            assert norm_constant(P_GEN, 0, n) > 0
            assert norm_constant(P_GEN, 1, n) < 0
            assert norm_constant(P_GEN, 2, n) > 0

    def test_unit_norm(self):
        grid = Grid.for_pair(P_GEN, 0, 0, 48, 48)
        f = eval_wavefunction(P_GEN, 0, 0, grid.r, grid.phi)
        assert grid.inner(f, f) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        grid = Grid.for_pair(P_GEN, 0, 0, 48, 48)
        f = eval_wavefunction(P_GEN, 0, 0, grid.r, grid.phi)
        g = eval_wavefunction(P_GEN, 1, 0, grid.r, grid.phi)
        assert grid.inner(f, g) == pytest.approx(0.0, abs=1e-10)

    def test_gram_identity(self):
        gram = wavefunction_gram(P_GEN, (4, 4), 64, 64)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9

    def test_ground_state_positive(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0.1, 3.0, 200)
        phi = rng.uniform(0.02, 0.98, 200) * P_GEN.phi_max
        assert np.all(eval_wavefunction(P_GEN, 0, 0, r, phi) > 0)

    def test_boundary_error(self):
        with pytest.raises(ValueError):
            eval_wavefunction(P_GEN, 0, 0, 0.0, 0.3)


def grid_gram(params, pairs_max, m_rad=80, m_ang=80):
    """Reference Gram matrix summed on the 2-D grid: every entry is a
    Grid.inner of two eigenfunctions sampled on their pair grid."""
    N_max, n_max = pairs_max
    labels = [(N, n) for n in range(n_max + 1) for N in range(N_max + 1)]
    grids = {s: Grid.for_pair(params, s, 0, m_rad, m_ang) for s in range(2 * n_max + 1)}
    fields = {}

    def sample(N, n, s):
        if (N, n, s) not in fields:
            fields[N, n, s] = eval_wavefunction(params, N, n, grids[s].r, grids[s].phi)
        return fields[N, n, s]

    gram = np.zeros((len(labels), len(labels)))
    for i, (N1, n1) in enumerate(labels):
        for j, (N2, n2) in enumerate(labels[i:], start=i):
            gram[i, j] = gram[j, i] = grids[n1 + n2].inner(sample(N1, n1, n1 + n2), sample(N2, n2, n1 + n2))
    return gram


class TestSeparableGram:
    @pytest.mark.parametrize("ps", DEFAULT_PARAM_SETS, ids=lambda ps: f"k={ps['k']:g}")
    def test_equals_grid_gram(self, ps):
        p = ModelParams(**ps)
        gram = wavefunction_gram(p, (6, 6))
        assert gram.shape == (49, 49)
        assert np.max(np.abs(gram - grid_gram(p, (6, 6)))) < 1e-13

    def test_large_k_stays_finite(self):
        # alpha reaches 168 on the (6, 6) pair grid: the weights and the bare
        # radial factors each near float range, the rescaled products do not
        gram = wavefunction_gram(ModelParams(k=12.0, a=1.0, b=1.0, omega=1.0), (6, 6))
        assert np.all(np.isfinite(gram))
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9


class TestGrid:
    def test_mismatched_grids_rejected(self):
        g1 = Grid.for_sector(P_GEN, 0, m_rad=24, m_ang=24)
        g2 = Grid.for_sector(P_GEN, 0, m_rad=32, m_ang=32)
        f = eval_wavefunction(P_GEN, 0, 0, g1.r, g1.phi)
        g = eval_wavefunction(P_GEN, 0, 0, g2.r, g2.phi)
        with pytest.raises(ValueError):
            g1.inner(f, g)

    def test_radial_exponent_rule(self):
        # (n1 + n2 + a + b) k, less 1 for a pair of one-fermion factors
        for n1, n2, odd in ((0, 0, False), (2, 2, True), (1, 2, False), (0, 3, True)):
            alpha = (n1 + n2 + P_GEN.a + P_GEN.b) * P_GEN.k - (1.0 if odd else 0.0)
            assert Grid.for_pair(P_GEN, n1, n2, 8, 8, odd=odd).alpha == alpha
        for n, odd in ((0, False), (3, True)):
            assert Grid.for_sector(P_GEN, n, odd, 8, 8).alpha == P_GEN.sector_alpha(n) - (1.0 if odd else 0.0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            Grid(P_GEN, -1.5)

    def test_tensor_form(self):
        grid = Grid.for_sector(P_GEN, 1, m_rad=12, m_ang=10)
        assert (grid.r.shape, grid.phi.shape, grid.w.shape) == ((12, 1), (1, 10), (12, 10))
        f = eval_wavefunction(P_GEN, 0, 1, grid.r, grid.phi)
        assert f.shape == grid.w.shape

    def test_weights_are_product_of_1d_weights(self):
        grid = Grid.for_sector(P_GEN, 2, odd=True, m_rad=12, m_ang=10)
        assert (grid.w_r.shape, grid.w_phi.shape) == ((12, 1), (1, 10))
        np.testing.assert_array_equal(grid.w, np.outer(grid.w_r, grid.w_phi))

    def test_spinor_inner_sums_components(self):
        grid = Grid.for_sector(P_GEN, 0, m_rad=16, m_ang=12)
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.5, 1.5, size=(2, 4, 16, 12))
        per_component = sum(grid.inner(f[i], g[i]) for i in range(4))
        assert grid.inner(f, g) == pytest.approx(per_component, rel=1e-14)
        with pytest.raises(ValueError):
            grid.inner(f, g[:3])
        with pytest.raises(ValueError):
            grid.inner(f[..., :-1], g[..., :-1])

    def test_rules_use_the_exact_exponents(self):
        # alpha = (2 + a + b) k is irrational at k = sqrt 2; a rule built for
        # alpha rounded to 12 digits put this entry off by 6.9e-13
        p = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8)
        grid = Grid.for_sector(p, 1)
        alpha = p.sector_alpha(1)
        R = radial_levels(p, 0, 1, grid.r)[0][0]
        norm2 = 2.0 * p.omega ** (alpha + 1.0) / math.gamma(alpha + 1.0)
        assert abs(float(np.sum(grid.w_r * R * R)) * norm2 - 1.0) <= 1e-14

    def test_weight_overflow_names_alpha(self):
        # alpha = (2n + a + b) k = 210 at n = 6: Gamma(alpha + 1) overflows
        p = ModelParams(k=15.0, a=1.0, b=1.0)
        with pytest.raises(ValueError, match="alpha = 210"):
            Grid.for_sector(p, 6)

    def test_weight_overflow_starts_past_alpha_170(self):
        assert np.all(np.isfinite(Grid(P_UNIT, 170.5).w))
        for alpha in (170.7, 171.0):
            with pytest.raises(ValueError, match=f"alpha = {alpha:g}"):
                Grid(P_UNIT, alpha)


def laguerre_single(n, alpha, z):
    """L_n^(alpha)(z) by its own forward recurrence, one level at a time."""
    z = np.asarray(z, dtype=float)
    p_prev = np.ones_like(z)
    if n == 0:
        return p_prev
    p = 1.0 + alpha - z
    for j in range(1, n):
        p, p_prev = ((2 * j + alpha + 1 - z) * p - (j + alpha) * p_prev) / (j + 1), p
    return p


def radial_parts_one_level(params, N, n, r, one_fermion):
    """(R, dR/dr, d2R/dr2) of one radial level, evaluated level by level with
    three single-level recurrences: the oracle for ``radial_levels``."""
    z = params.omega * r**2
    alpha = params.sector_alpha(n)
    p = 0.5 * alpha - (0.5 if one_fermion else 0.0)
    pref = np.exp(p * np.log(z) - 0.5 * z - 0.5 * alpha * math.log(params.omega))
    L = laguerre_single(N, alpha, z)
    Ld = -laguerre_single(N - 1, alpha + 1.0, z) if N >= 1 else np.zeros_like(z)
    Ldd = laguerre_single(N - 2, alpha + 2.0, z) if N >= 2 else np.zeros_like(z)
    g = p / z - 0.5
    R = pref * L
    Rz = pref * (g * L + Ld)
    Rzz = pref * ((g * g - p / z**2) * L + 2.0 * g * Ld + Ldd)
    return R, 2.0 * params.omega * r * Rz, 2.0 * params.omega * Rz + 4.0 * params.omega * z * Rzz


class TestRadialLevels:
    @pytest.mark.parametrize(
        "p", [ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8), ModelParams(k=1.3, a=0.4, b=2.2, omega=0.7)], ids=["irr", "omega"]
    )
    def test_rows_equal_the_level_by_level_evaluation(self, p):
        r = np.sqrt(np.linspace(0.05, 60.0, 31) / p.omega)[:, None]
        for n in range(7):
            for one_fermion in (False, True):
                stacks = radial_levels(p, 20, n, r, one_fermion)
                assert all(s.shape == (21, *r.shape) for s in stacks)
                for N in range(21):
                    for got, want in zip(stacks, radial_parts_one_level(p, N, n, r, one_fermion)):
                        assert np.array_equal(got[N], want), (n, one_fermion, N)
