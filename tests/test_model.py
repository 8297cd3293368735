import math
import re

import numpy as np
import pytest

from ttwsusy.model import (
    OMEGA_RANGE,
    Grid,
    ModelParams,
    _log_angular_norm,
    _log_radial_norm,
    angular_parts,
    energy,
    eval_angular,
    eval_radial,
    eval_wavefunction,
    radial_levels,
    susy_energy,
    weights_of,
)
from ttwsusy.generators import wavefunction_gram
from ttwsusy.specfun import laguerre
from ttwsusy.verify import DEFAULT_PARAM_SETS

from sampled import sampled_inner

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

    @pytest.mark.parametrize("name", ["k", "a", "b", "omega"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1", True, None], ids=["inf", "-inf", "nan", "string", "bool", "none"])
    def test_each_parameter_is_a_finite_real_number(self, name, value):
        kwargs = {"k": 1.0, "a": 1.0, "b": 1.0, "omega": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got {re.escape(repr(value))}$"):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("omega", [9.9e-151, 1e-153, 1e-160, 1e-300, 1.01e150, 1e154, 1e160, 1e300])
    def test_omega_outside_its_range_is_named(self, omega):
        # the physical energies, linear in omega, leave the float range near 1e-308 and 1e306
        with pytest.raises(ValueError, match=f"^omega must lie in {re.escape('[1e-150, 1e+150]')}, got {re.escape(repr(omega))}: "):
            ModelParams(k=1.0, a=1.0, b=1.0, omega=omega)

    def test_omega_at_its_range_ends_gives_finite_residuals(self):
        from ttwsusy.verify import SuiteConfig, run

        assert OMEGA_RANGE == (1e-150, 1e150)
        config = {"truncation": [4, 3], "quad_orders": [40, 40], "suites": ["model", "algebra", "irreps"]}
        reports = {
            omega: run(SuiteConfig.from_dict({**config, "param_sets": [{"k": 1.0, "a": 1.0, "b": 1.0, "omega": omega}]}))
            for omega in OMEGA_RANGE
        }
        for omega, report in reports.items():
            assert all(c.error is None and math.isfinite(c.residual) for c in report.checks), omega
        # both ends pass every check: the residuals are read in oscillator units
        for omega, report in reports.items():
            assert report.n_failed == 0, (omega, report.to_text())

    def test_integers_and_numpy_floats_are_accepted(self):
        p = ModelParams(k=np.float64(2.0), a=1, b=np.int64(2))
        assert p.phi_max == math.pi / 4


# every probe lies outside the interior: NaN, an infinity, or out of range
R_PROBES = [math.nan, math.inf, 0.0, -1.0, [1.0, math.nan]]
R_IDS = ["nan", "inf", "zero", "negative", "nan-in-array"]
PHI_PROBES = [math.nan, math.inf, -math.inf, 0.0, P_GEN.phi_max, 1.0, [0.3, math.nan]]
PHI_IDS = ["nan", "inf", "-inf", "zero", "phi-max", "past-phi-max", "nan-in-array"]
R_MESSAGE = "^r must be finite and positive$"
PHI_MESSAGE = re.escape("phi must lie strictly inside (0, pi/(2k))")


class TestDomainGuards:
    """Every model entry point rejects a point outside r > 0, 0 < phi <
    pi/(2k) with ``ModelParams.require_interior``'s ``ValueError``."""

    def test_interior_points_pass(self):
        P_GEN.require_interior(np.array([0.1, 3.0]), np.array([0.01, P_GEN.phi_max - 1e-9]))
        P_GEN.require_interior(r=1.0)
        P_GEN.require_interior(phi=0.2)

    @pytest.mark.parametrize("r", R_PROBES, ids=R_IDS)
    def test_radius_probes(self, r):
        for call in (
            lambda: P_GEN.require_interior(r=r),
            lambda: eval_wavefunction(P_GEN, 1, 1, r, 0.3),
        ):
            with pytest.raises(ValueError, match=R_MESSAGE):
                call()

    @pytest.mark.parametrize("phi", PHI_PROBES, ids=PHI_IDS)
    def test_angle_probes(self, phi):
        for call in (
            lambda: P_GEN.require_interior(phi=phi),
            lambda: eval_angular(P_GEN, 1, phi),
            lambda: eval_wavefunction(P_GEN, 1, 1, 1.0, phi),
        ):
            with pytest.raises(ValueError, match=PHI_MESSAGE):
                call()

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0, [1.0, math.nan]], ids=["nan", "inf", "negative", "nan-in-array"])
    def test_radial_argument_probes(self, z):
        with pytest.raises(ValueError, match=re.escape("radial argument z = rho^2 must be finite and >= 0")):
            eval_radial(P_GEN, 1, 1, z)

    @pytest.mark.parametrize("r", [math.nan, math.inf, np.array([1.0, math.nan]), np.array([math.inf, 0.5])], ids=["nan", "inf", "nan-in-array", "inf-in-array"])
    def test_radial_levels_probes(self, r):
        for one_fermion in (False, True):
            with pytest.raises(ValueError, match="laguerre requires finite z"):
                radial_levels(P_GEN, 2, 1, r, one_fermion)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, -3.0], ids=["nan", "inf", "minus-one", "below"])
    def test_grid_exponent_probes(self, alpha):
        with pytest.raises(ValueError, match="radial reference exponent must be finite and exceed -1"):
            Grid(P_GEN, alpha, 8, 8)


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
    def test_unit_norm(self):
        grid = Grid.for_pair(P_GEN, 0, 0, 48, 48)
        f = eval_wavefunction(P_GEN, 0, 0, grid.r, grid.phi)
        assert sampled_inner(grid, f, f) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        grid = Grid.for_pair(P_GEN, 0, 0, 48, 48)
        f = eval_wavefunction(P_GEN, 0, 0, grid.r, grid.phi)
        g = eval_wavefunction(P_GEN, 1, 0, grid.r, grid.phi)
        assert sampled_inner(grid, f, g) == pytest.approx(0.0, abs=1e-10)

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

    def test_radial_factor_is_taken_at_the_given_r(self):
        # the factor is taken at rho = sqrt(omega) r, one product, with no
        # round trip r -> z = omega r^2 -> sqrt(z), which moves some radii
        # by an ulp, and scaled by sqrt(omega)
        p = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.7)
        r = np.linspace(0.05, 4.0, 2001)
        phi = np.full_like(r, 0.3)
        rho, scale = math.sqrt(p.omega) * r, math.sqrt(p.omega)
        expect = (-1.0) ** 2 * scale * radial_levels(p, 2, 1, rho)[0][2] * angular_parts(p, 1, phi)[0]
        assert np.array_equal(eval_wavefunction(p, 2, 1, r, phi), expect)


def grid_gram(params, pairs_max, m_rad=80, m_ang=80):
    """Reference Gram matrix summed on the 2-D grid: every entry is the
    sampled inner product of two eigenfunctions on their pair grid."""
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
            gram[i, j] = gram[j, i] = sampled_inner(grids[n1 + n2], sample(N1, n1, n1 + n2), sample(N2, n2, n1 + n2))
    return gram


class TestSeparableGram:
    @pytest.mark.parametrize("ps", DEFAULT_PARAM_SETS, ids=lambda ps: f"k={ps['k']:g}")
    def test_equals_grid_gram(self, ps):
        p = ModelParams(**ps)
        gram = wavefunction_gram(p, (6, 6))
        assert gram.shape == (49, 49)
        assert np.max(np.abs(gram - grid_gram(p, (6, 6)))) < 1e-13

    def test_large_k_stays_finite(self):
        # alpha reaches 168 on the (6, 6) pair grid: Gamma(alpha + 1) is near
        # float range, the normalized factors and the grid's weights are not
        gram = wavefunction_gram(ModelParams(k=12.0, a=1.0, b=1.0, omega=1.0), (6, 6))
        assert np.all(np.isfinite(gram))
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9


class TestGrid:
    def test_mismatched_grids_rejected(self):
        g1 = Grid.for_pair(P_GEN, 0, 0, 24, 24)
        g2 = Grid.for_pair(P_GEN, 0, 0, 32, 32)
        f = eval_wavefunction(P_GEN, 0, 0, g1.r, g1.phi)
        g = eval_wavefunction(P_GEN, 0, 0, g2.r, g2.phi)
        with pytest.raises(ValueError):
            sampled_inner(g1, f, g)

    def test_radial_exponent_rule(self):
        # (n1 + n2 + a + b) k, less 1 for a pair of one-fermion factors
        for n1, n2, odd in ((0, 0, False), (2, 2, True), (1, 2, False), (0, 3, True)):
            alpha = (n1 + n2 + P_GEN.a + P_GEN.b) * P_GEN.k - (1.0 if odd else 0.0)
            assert Grid.for_pair(P_GEN, n1, n2, 8, 8, odd=odd).alpha == alpha
        for n, odd in ((0, False), (3, True)):
            assert Grid.for_pair(P_GEN, n, n, 8, 8, odd=odd).alpha == P_GEN.sector_alpha(n) - (1.0 if odd else 0.0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            Grid(P_GEN, -1.5)

    def test_tensor_form(self):
        grid = Grid.for_pair(P_GEN, 1, 1, 12, 10)
        assert (grid.r.shape, grid.phi.shape) == ((12, 1), (1, 10))
        f = eval_wavefunction(P_GEN, 0, 1, grid.r, grid.phi)
        assert f.shape == (12, 10)

    def test_grid_holds_only_1d_arrays(self):
        # every array is a radial column or an angular row: no grid builds
        # an (m_rad, m_ang) array
        grid = Grid.for_pair(P_GEN, 2, 2, 12, 10, odd=True)
        arrays = {name: v.shape for name, v in vars(grid).items() if isinstance(v, np.ndarray)}
        assert {"r", "phi", "w_r", "w_phi"} <= set(arrays)
        assert all(shape in ((12, 1), (1, 10)) for shape in arrays.values()), arrays

    def test_shared_arrays_refuse_writes(self):
        # the cached Gauss rules, the grid's arrays, the set's angular row
        # and every angular value it keeps are shared by all later callers
        from ttwsusy import model
        from ttwsusy.generators import apply_operators
        from ttwsusy.irreps import sector_basis
        from ttwsusy.states import FactorTable

        grid = Grid.for_pair(P_GEN, 2, 2, 12, 10, odd=True)
        table = FactorTable.on(grid)
        for bundle in table.bundles([s.state for s in sector_basis(P_GEN, 2, 3) if s.parity == 1]):
            apply_operators(("Hs", "V+"), bundle, table)
        radial = model._laguerre_rule(12, grid.alpha)
        angular = model._jacobi_rule(10, P_GEN.a - 0.5, P_GEN.b - 0.5)
        arrays = [radial.nodes, radial.weights, radial.log_weights, angular.nodes, angular.weights]
        arrays += [grid.r, grid.w_r, grid.phi, grid.w_phi, grid.angular.phi, grid.angular.w_phi]
        kept = grid.angular._values
        assert {key[0] for key in kept} == {"parts", "terms", "trig"}
        for key, value in kept.items():
            if key[0] in ("parts", "trig"):
                arrays += list(value)
            else:
                arrays += [t.theta for t in value if isinstance(t.theta, np.ndarray)]
        assert len(arrays) > 20
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

    def test_spinor_inner_sums_components(self):
        grid = Grid.for_pair(P_GEN, 0, 0, 16, 12)
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.5, 1.5, size=(2, 4, 16, 12))
        per_component = sum(sampled_inner(grid, f[i], g[i]) for i in range(4))
        assert sampled_inner(grid, f, g) == pytest.approx(per_component, rel=1e-14)
        with pytest.raises(ValueError):
            sampled_inner(grid, f, g[:3])
        with pytest.raises(ValueError):
            sampled_inner(grid, f[..., :-1], g[..., :-1])

    def test_rules_use_the_exact_exponents(self):
        # alpha = (2 + a + b) k is irrational at k = sqrt 2; a rule built for
        # alpha rounded to 12 digits put this entry off by 6.9e-13
        p = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8)
        grid = Grid.for_pair(p, 1, 1)
        R = radial_levels(p, 0, 1, grid.r)[0][0]
        assert abs(float(np.sum(grid.w_r * R * R)) - 1.0) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_weight_overflow_names_alpha(self):
        # the angular mass 2^(a+b) B(a + 1/2, b + 1/2) and the envelope
        # (1 + xi)^b are past float range; the grid raises without a numpy
        # warning first, and the message names the radial and the angular
        # exponents
        p = ModelParams(k=1.0, a=1e6, b=1e6)
        message = re.escape("alpha = 2e+06 and angular exponents a = 1e+06, b = 1e+06")
        with pytest.raises(ValueError, match=message):
            Grid.for_pair(p, 0, 0, 8, 8)

    @pytest.mark.parametrize("alpha", [170.7, 171.0, 210.0, 500.0])
    def test_weights_stay_finite_past_alpha_170(self, alpha):
        # Gamma(alpha + 1) is past float range from alpha ~ 170.6; the weights
        # carry it as lgamma, so they and the normalized ground factor stay
        # finite and the factor has unit norm on its sector grid, to the
        # roundoff of exponents of size alpha log alpha (about 1e3 eps)
        p = ModelParams(k=alpha / 2.0, a=1.0, b=1.0)
        grid = Grid.for_pair(p, 0, 0)
        assert grid.alpha == alpha
        assert np.all(np.isfinite(grid.w_r)) and np.all(np.isfinite(grid.w_phi))
        R = radial_levels(p, 0, 0, grid.r)[0][0]
        assert abs(float(np.sum(grid.w_r * R * R)) - 1.0) <= 1e-12


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
    """(R, dR/dr, d2R/dr2) of one radial level at the oscillator radius r,
    evaluated level by level with three single-level recurrences and its
    normalization c_N as c_0 times a product taken factor by factor: the
    oracle for ``radial_levels``, which takes no omega."""
    z = r**2
    alpha = params.sector_alpha(n)
    p = 0.5 * alpha - (0.5 if one_fermion else 0.0)
    log_c0 = 0.5 * (math.log(2.0) - math.lgamma(alpha + 1.0))
    pref = np.exp(p * np.log(z) - 0.5 * z + log_c0)
    ratio = 1.0
    for j in range(1, N + 1):
        ratio *= math.sqrt(j / (j + alpha))
    pref = pref * ratio
    L = laguerre_single(N, alpha, z)
    Ld = -laguerre_single(N - 1, alpha + 1.0, z) if N >= 1 else np.zeros_like(z)
    Ldd = laguerre_single(N - 2, alpha + 2.0, z) if N >= 2 else np.zeros_like(z)
    g = p / z - 0.5
    R = pref * L
    Rz = pref * (g * L + Ld)
    Rzz = pref * ((g * g - p / z**2) * L + 2.0 * g * Ld + Ldd)
    return R, 2.0 * r * Rz, 2.0 * Rz + 4.0 * z * Rzz


class TestRadialLevels:
    @pytest.mark.parametrize(
        "p", [ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8), ModelParams(k=1.3, a=0.4, b=2.2, omega=0.7)], ids=["irr", "omega"]
    )
    def test_rows_equal_the_level_by_level_evaluation(self, p):
        # the same z = r^2 at every omega, which the factors do not read
        r = np.sqrt(np.linspace(0.05, 60.0, 31))[:, None]
        for n in range(7):
            for one_fermion in (False, True):
                stacks = radial_levels(p, 20, n, r, one_fermion)
                assert all(s.shape == (21, *r.shape) for s in stacks)
                for N in range(21):
                    for got, want in zip(stacks, radial_parts_one_level(p, N, n, r, one_fermion)):
                        assert np.array_equal(got[N], want), (n, one_fermion, N)

    @pytest.mark.parametrize("N_max", [8, 17])
    @pytest.mark.parametrize("p", [ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8), ModelParams(k=100.0, a=1.0, b=1.0)], ids=["irr", "k=100"])
    def test_shared_pass_equals_one_call_per_flag(self, p, N_max):
        """Both one-fermion flags from one pass are bit for bit the factors
        of a call per flag, and of the level-by-level oracle."""
        r = np.sqrt(np.linspace(0.05, 60.0, 31))[:, None]
        for n in range(4):
            shared = radial_levels(p, N_max, n, r, (False, True))
            assert len(shared) == 2
            for one_fermion, stacks in zip((False, True), shared):
                alone = radial_levels(p, N_max, n, r, one_fermion)
                assert all(np.array_equal(a, b) for a, b in zip(stacks, alone, strict=True)), (n, one_fermion)
                for N in (0, 1, N_max):
                    for got, want in zip(stacks, radial_parts_one_level(p, N, n, r, one_fermion)):
                        assert np.array_equal(got[N], want), (n, one_fermion, N)


class TestNormalizedFactors:
    """The factor layer owns the normalization: on its sector grid each set
    of factors is orthonormal, so catalog coefficients carry none."""

    @pytest.mark.parametrize(
        "p", [ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8), ModelParams(k=1.3, a=0.4, b=2.2, omega=0.7)], ids=["irr", "omega"]
    )
    def test_factors_are_orthonormal(self, p):
        for n in range(4):
            grid = Grid.for_pair(p, n, n)
            R = radial_levels(p, 20, n, grid.r)[0][..., 0]
            gram = R @ (grid.w_r[:, 0] * R).T
            assert np.max(np.abs(gram - np.eye(21))) <= 5e-14, n
        phi = grid.phi[0]
        for shift in (0, 1):
            A = np.stack([angular_parts(p, m, phi, shift)[0] for m in range(11)])
            gram = A @ (grid.w_phi[0] * A).T
            assert np.max(np.abs(gram - np.eye(11))) <= 5e-14, shift

    def test_angular_factors_stay_finite_at_large_exponents(self):
        # at a = b = 1100, N_ang ~ 2^1100 and cos^a sin^b ~ 2^-2200 each
        # leave the float range; in one exponent the factors stay finite and
        # orthonormal, to the roundoff of exponents of size (a + b) log 2
        # and of the Jacobi recurrence at parameters ~ 1e3
        p = ModelParams(k=0.05, a=1100.0, b=1100.0)
        grid = Grid.for_pair(p, 0, 0)
        for shift in (0, 1):
            A = np.stack([angular_parts(p, m, grid.phi[0], shift)[0] for m in range(11)])
            assert np.all(np.isfinite(A))
            assert np.max(np.abs(A @ (grid.w_phi[0] * A).T - np.eye(11))) <= 1e-11, shift

    def test_norm_constant_is_the_factors_ratio(self):
        # the unnormalized factors of z = rho^2 = omega r^2 times (-1)^N c_N N_ang
        # are the normalized ones, and sqrt(omega) times those the physical
        # eigenfunction at r
        p = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=0.7)
        r, phi = np.array([0.4, 1.1, 2.3]), np.array([0.2, 0.5, 0.9])
        for N, n in ((0, 0), (3, 1), (7, 2)):
            bare = eval_radial(p, N, n, p.omega * r**2) * eval_angular(p, n, phi)
            norm = (-1.0) ** N * math.exp(_log_radial_norm(p, N, n) + _log_angular_norm(p, n, 0))
            physical = math.sqrt(p.omega) * norm * bare
            np.testing.assert_allclose(physical, eval_wavefunction(p, N, n, r, phi), rtol=1e-13)
