import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ttwsusy import specfun
from ttwsusy.specfun import gauss_rule, jacobi, jacobi_deriv, laguerre, laguerre_deriv, laguerre_levels

EPS = np.finfo(float).eps


def series_laguerre(N, alpha, z):
    """Explicit series sum with exact rational coefficients."""
    af, zf = Fraction(alpha), Fraction(z)
    total = Fraction(0)
    for j in range(N + 1):
        c = Fraction(1)
        for i in range(1, N - j + 1):
            c *= (af + j + i) / i
        total += Fraction(-1) ** j * c * zf**j / math.factorial(j)
    return float(total)


def series_jacobi(n, alpha, beta, x):
    af, bf, xf = Fraction(alpha), Fraction(beta), Fraction(x)

    def binom(top, m):
        c = Fraction(1)
        for i in range(1, m + 1):
            c *= (top - m + i) / i
        return c

    total = Fraction(0)
    for j in range(n + 1):
        total += binom(af + n, n - j) * binom(bf + n, j) * ((xf - 1) / 2) ** j * ((xf + 1) / 2) ** (n - j)
    return float(total)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 2.0, 0.7) == 1.0

    def test_degree_one(self):
        # L_1^(alpha)(z) = 1 + alpha - z
        assert laguerre(1, 2.0, 0.5) == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("N", range(13))
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 1.5, 10.0])
    def test_recurrence_matches_series(self, N, alpha):
        for z in (0.1, 2.0, 7.3, 30.0):
            ref = series_laguerre(N, alpha, z)
            assert laguerre(N, alpha, z) == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)


class TestLaguerreLevels:
    def test_rows_match_series(self):
        z = np.array([0.1, 2.0, 7.3, 30.0])[:, None]
        levels = laguerre_levels(12, 2.7, z)
        assert levels.shape == (13, 4, 1)
        for n in range(13):
            np.testing.assert_array_equal(levels[n], laguerre(n, 2.7, z))
            for zi, val in zip(z.ravel(), levels[n].ravel()):
                ref = series_laguerre(n, 2.7, zi)
                assert val == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))

    def test_scalar_argument(self):
        np.testing.assert_array_equal(laguerre_levels(2, 2.0, 0.5), [1.0, 2.5, laguerre(2, 2.0, 0.5)])
        assert laguerre_levels(0, 1.0, 3.0).shape == (1,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_levels(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre_levels(3, -1.0, 1.0)

    @pytest.mark.parametrize(
        "z",
        [math.nan, math.inf, -math.inf, np.array([0.5, math.nan]), np.array([[1.0], [math.inf]]), np.array([-math.inf, 2.0])],
        ids=["nan", "inf", "-inf", "nan-in-array", "inf-in-array", "-inf-in-array"],
    )
    def test_non_finite_argument(self, z):
        """A NaN or infinite z raises the ValueError that names z, at every
        degree and for the derivative, whose n = 0 branch does no recurrence."""
        for call in (
            lambda: laguerre_levels(3, 0.5, z),
            lambda: laguerre(3, 0.5, z),
            lambda: laguerre(0, 0.5, z),
            lambda: laguerre_deriv(0, 0.5, z),
            lambda: laguerre_deriv(2, 0.5, z),
        ):
            with pytest.raises(ValueError, match="laguerre requires finite z"):
                call()


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(0, 0.5, 0.5, 0.3) == 1.0

    def test_degree_one_symmetric_zero(self):
        assert jacobi(1, 0.5, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("ab", [(-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0)])
    def test_recurrence_matches_series(self, n, ab):
        for x in (-0.9, -0.4, 0.0, 0.77, 1.0):
            ref = series_jacobi(n, *ab, x)
            assert jacobi(n, *ab, x) == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))

    def test_parity(self):
        # P_n^(a,a)(-x) = (-1)^n P_n^(a,a)(x)
        for n in range(6):
            assert jacobi(n, 0.7, 0.7, -0.35) == pytest.approx((-1) ** n * jacobi(n, 0.7, 0.7, 0.35), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi(2, 0.5, 0.5, 1.5)
        with pytest.raises(ValueError):
            jacobi(2, -1.2, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "minus-one"])
    def test_parameter_probes(self, bad):
        for ab in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="jacobi requires finite alpha, beta > -1"):
                jacobi(2, *ab, 0.0)
            with pytest.raises(ValueError, match="gauss-jacobi weight requires finite alpha, beta > -1"):
                gauss_rule("gauss-jacobi", 5, *ab)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.5, [0.2, math.nan]], ids=["nan", "inf", "below", "nan-in-array"])
    def test_argument_probes(self, x):
        with pytest.raises(ValueError, match=re.escape("jacobi argument must lie in [-1, 1]")):
            jacobi(2, 0.5, 0.5, x)


class TestLaguerreParameter:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, -2.5], ids=["nan", "inf", "minus-one", "below"])
    def test_probes(self, alpha):
        with pytest.raises(ValueError, match="laguerre requires finite alpha > -1"):
            laguerre_levels(3, alpha, 1.0)
        with pytest.raises(ValueError, match="gauss-laguerre weight requires finite alpha > -1"):
            gauss_rule("gauss-laguerre", 5, alpha=alpha)


class TestDerivatives:
    def test_constant_derivative_is_zero(self):
        assert laguerre_deriv(0, 3.0, 1.2) == 0.0
        assert jacobi_deriv(0, 1.0, 1.0, 0.2) == 0.0

    def test_jacobi_first_degree(self):
        # (n + alpha + beta + 1)/2 with P_0 = 1
        assert jacobi_deriv(1, 0.5, 0.5, 0.9) == pytest.approx(1.5, rel=1e-15)

    def test_laguerre_against_central_difference(self):
        h = 1e-6
        fd = (laguerre(2, 1.0, 0.8 + h) - laguerre(2, 1.0, 0.8 - h)) / (2 * h)
        assert abs(laguerre_deriv(2, 1.0, 0.8) - fd) < 1e-8

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_all_against_central_differences(self, n):
        h = 1e-6
        for z in (0.3, 4.0, 11.0):
            fd = (laguerre(n, 2.5, z + h) - laguerre(n, 2.5, z - h)) / (2 * h)
            assert abs(laguerre_deriv(n, 2.5, z) - fd) < 1e-6
        for x in (-0.7, 0.1, 0.8):
            fd = (jacobi(n, 1.5, 0.5, x + h) - jacobi(n, 1.5, 0.5, x - h)) / (2 * h)
            assert abs(jacobi_deriv(n, 1.5, 0.5, x) - fd) < 1e-6


class TestGaussRules:
    def test_one_point_laguerre(self):
        rule = gauss_rule("gauss-laguerre", 1, alpha=0.0)
        np.testing.assert_allclose(rule.nodes, [1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1.0], atol=1e-14)

    def test_two_point_legendre(self):
        rule = gauss_rule("gauss-jacobi", 2, alpha=0.0, beta=0.0)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_gamma_moment(self):
        rule = gauss_rule("gauss-laguerre", 8, alpha=2.5)
        approx = float(np.sum(rule.weights))
        exact = math.exp(math.lgamma(3.5))
        assert abs(approx / exact - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.3, 17.0, 48.0])
    def test_laguerre_exactness(self, alpha):
        m = 10
        rule = gauss_rule("gauss-laguerre", m, alpha=alpha)
        for j in range(2 * m):
            approx = float(np.sum(rule.weights * rule.nodes**j))
            exact = math.exp(math.lgamma(alpha + j + 1.0))
            assert abs(approx / exact - 1.0) < 1e-12

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 1.5), (2.0, 0.7)])
    def test_jacobi_exactness(self, ab):
        alpha, beta = ab
        m = 9
        rule = gauss_rule("gauss-jacobi", m, alpha=alpha, beta=beta)
        for i in range(0, 2 * m - 1, 2):
            j = min(i + 1, 2 * m - 1 - i)
            approx = float(np.sum(rule.weights * (1 - rule.nodes) ** i * (1 + rule.nodes) ** j))
            exact = math.exp(
                (alpha + beta + i + j + 1) * math.log(2.0)
                + math.lgamma(alpha + i + 1.0)
                + math.lgamma(beta + j + 1.0)
                - math.lgamma(alpha + beta + i + j + 2.0)
            )
            assert abs(approx / exact - 1.0) < 1e-12

    def test_invariants(self):
        for kind, kw in (("gauss-laguerre", {"alpha": 3.0}), ("gauss-jacobi", {"alpha": 0.5, "beta": 1.5})):
            rule = gauss_rule(kind, 20, **kw)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            if kind == "gauss-laguerre":
                assert rule.nodes[0] > 0
            else:
                assert rule.nodes[0] > -1 and rule.nodes[-1] < 1

    @pytest.mark.parametrize("m", [1, 2, 7, 80, 161])
    def test_nodes_are_the_jacobi_matrix_eigenvalues(self, m):
        # random diagonals of both signs: the Gershgorin shift is negative
        rng = np.random.default_rng(m)
        diag, off = rng.uniform(-50.0, 50.0, m), rng.uniform(-20.0, 20.0, m - 1)
        ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
        nodes = specfun._nodes(diag, off)
        assert np.all(np.diff(nodes) >= 0)
        np.testing.assert_allclose(nodes, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    def test_errors(self):
        with pytest.raises(ValueError):
            gauss_rule("simpson", 4)
        with pytest.raises(ValueError):
            gauss_rule("gauss-laguerre", 0)
        with pytest.raises(ValueError):
            gauss_rule("gauss-jacobi", 4, alpha=-1.5)


# ---------------------------------------------------------------------------
# Gauss rules against 50-digit references

RULE_ORDERS = (1, 2, 12, 80)
LAGUERRE_ALPHAS = (-0.4, 0.0, 0.7, 5.66, 40.3, 168.0)
# alpha = beta, alpha + beta = 0 and alpha < 0 (a, b <= 1/2 give alpha, beta = a - 1/2, b - 1/2 <= 0)
JACOBI_PAIRS = ((0.5, 0.5), (-0.3, 0.3), (-0.2, -0.2), (0.7, 0.3), (1.0, 2.0))


def _mp_recurrence(mp, kind, m, a, b):
    """Per-step coefficients (u, v, w, c) of p_{j+1} = ((u + v x) p_j - w p_{j-1}) / c."""
    if kind == "gauss-laguerre":
        return [(2 * j + a + 1, -1, j + a, j + 1) for j in range(1, m)]
    steps = []
    for j in range(2, m + 1):
        s = 2 * j + a + b
        steps.append(((s - 1) * (a * a - b * b), (s - 1) * s * (s - 2), 2 * (j + a - 1) * (j + b - 1) * s, 2 * j * (j + a + b) * (s - 2)))
    return steps


def _mp_sigma_deriv(mp, kind, m, a, b, steps, x):
    """(p_m(x), sigma(x) p_m'(x)) with sigma = x (Laguerre) or 1 - x^2 (Jacobi),
    from p_m and p_{m-1} by the standard derivative identities."""
    p_prev, p = mp.mpf(1), (1 + a - x if kind == "gauss-laguerre" else ((a + b + 2) * x + (a - b)) / 2)
    for u, v, w, c in steps:
        p_prev, p = p, ((u + v * x) * p - w * p_prev) / c
    if kind == "gauss-laguerre":
        return p, m * p - (m + a) * p_prev
    s = 2 * m + a + b
    return p, (m * ((a - b) - s * x) * p + 2 * (m + a) * (m + b) * p_prev) / s


def mp_rule(kind, m, alpha, beta, start):
    """Nodes and weights to 50 digits: Newton from ``start`` in mpmath, then
    w_i = Gamma(m+a+1) / (m! x_i L_m'(x_i)^2) or
    2^(a+b+1) Gamma(m+a+1) Gamma(m+b+1) / (Gamma(m+a+b+1) m! (1-x_i^2) P_m'(x_i)^2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        steps = _mp_recurrence(mp, kind, m, a, b)
        if kind == "gauss-laguerre":
            scale = mp.gamma(m + a + 1) / mp.factorial(m)
        else:
            scale = 2 ** (a + b + 1) * mp.gamma(m + a + 1) * mp.gamma(m + b + 1) / (mp.gamma(m + a + b + 1) * mp.factorial(m))
        nodes, weights = [], []
        for x0 in start:
            x = mp.mpf(float(x0))
            for _ in range(2):  # quadratic convergence: 1e-16, 1e-30, past 1e-50
                sigma = x if kind == "gauss-laguerre" else 1 - x * x
                p, sdp = _mp_sigma_deriv(mp, kind, m, a, b, steps, x)
                x -= sigma * p / sdp
            sigma = x if kind == "gauss-laguerre" else 1 - x * x
            sdp = _mp_sigma_deriv(mp, kind, m, a, b, steps, x)[1]
            nodes.append(x)
            weights.append(scale * sigma / sdp**2)
        return nodes, weights


def rule_errors(kind, nodes, weights, ref_nodes, ref_weights):
    """Worst node error (relative for Laguerre, absolute on [-1, 1] for Jacobi)
    and worst relative weight error."""
    node_scale = [abs(r) if kind == "gauss-laguerre" else 1 for r in ref_nodes]
    node_err = max(abs(float(x) - r) / s for x, r, s in zip(nodes, ref_nodes, node_scale))
    weight_err = max(abs(float(w) - r) / r for w, r in zip(weights, ref_weights))
    return float(node_err), float(weight_err)


@pytest.mark.parametrize("order", RULE_ORDERS)
@pytest.mark.parametrize("kind", ["gauss-laguerre", "gauss-jacobi"])
def test_rules_at_least_as_close_as_scipy(kind, order):
    """Over the parameter list of one family and order, the worst node and
    weight errors against 50-digit references are no larger than those of
    scipy's rules, or than 8 eps where both are at roundoff (orders 1, 2)."""
    special = pytest.importorskip("scipy.special")
    params = [(a, 0.0) for a in LAGUERRE_ALPHAS] if kind == "gauss-laguerre" else JACOBI_PAIRS
    ours, theirs = np.zeros(2), np.zeros(2)
    for alpha, beta in params:
        rule = gauss_rule(kind, order, alpha=alpha, beta=beta)
        if kind == "gauss-laguerre":
            x_sp, w_sp = special.roots_genlaguerre(order, alpha)
        else:
            x_sp, w_sp = special.roots_jacobi(order, alpha, beta)
        ref = mp_rule(kind, order, alpha, beta, rule.nodes)
        ours = np.maximum(ours, rule_errors(kind, rule.nodes, rule.weights, *ref))
        theirs = np.maximum(theirs, rule_errors(kind, x_sp, w_sp, *ref))
    assert np.all(ours <= np.maximum(theirs, 8 * EPS)), (ours, theirs)
    # and absolute bounds, so that the test does not rest on scipy's accuracy alone
    assert ours[0] <= 2e-15 and ours[1] <= (1e-12 if order == 80 else 1e-13)


def test_rule_mass_overflows_to_inf():
    """Past alpha ~ 170.6 Gamma(alpha + 1) is out of float range: the weights
    are inf, not an exception from the mass, and the log weights, from which
    model.Grid forms its weights, stay finite."""
    rule = gauss_rule("gauss-laguerre", 12, alpha=171.0)
    assert np.all(np.isfinite(rule.nodes)) and np.all(rule.weights == np.inf)
    assert np.all(np.isfinite(rule.log_weights))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 3.7, 40.0, 160.0])
def test_log_weights_are_the_logs_of_the_weights(alpha):
    # where the weights are finite the two agree to a few ulps of |log w|
    rule = gauss_rule("gauss-laguerre", 24, alpha=alpha)
    log_w = np.log(rule.weights)
    assert np.all(np.abs(rule.log_weights - log_w) <= 4 * EPS * (1.0 + np.abs(log_w)))
    assert gauss_rule("gauss-jacobi", 8, alpha=0.5, beta=1.5).log_weights is None


@pytest.mark.parametrize("ab", [(168.9, 0.0), (0.0, 168.9), (600.0, 600.0), (1000.0, 0.5)])
def test_jacobi_mass_at_large_parameters(ab):
    """The weights sum to 2^(a+b+1) B(a+1, b+1) also where Gamma(a+b+2) or a
    partial product of the mass is past the float range."""
    mp = pytest.importorskip("mpmath")
    alpha, beta = ab
    rule = gauss_rule("gauss-jacobi", 20, alpha=alpha, beta=beta)
    with mp.workdps(50):
        mass = float(2 ** (mp.mpf(alpha) + beta + 1) * mp.beta(mp.mpf(alpha) + 1, mp.mpf(beta) + 1))
    assert float(np.sum(rule.weights)) == pytest.approx(mass, rel=1e-12)
