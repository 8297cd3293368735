import math

import numpy as np
import pytest

from ttwsusy.generators import apply_operators, superpotential
from ttwsusy.irreps import one_fermion_state, two_fermion_state, zero_fermion_state
from ttwsusy.model import ModelParams
from ttwsusy.special_cases import (
    PolyGaussSpinor,
    _gauss_monomials,
    bc2_super,
    bc2_superpotential,
    cart_from_polar,
    cm_super,
    cmw_mode_matrices,
    cmw_rel_super,
    cmw_super,
    embed_product_values,
    make_cmw_test_state,
    random_polygauss,
    sw_super,
    sw_superpotential,
)
from ttwsusy.states import FactorTable, state_bundle

P1 = ModelParams(k=1.0, a=1.0, b=1.0, omega=1.0)
P2 = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
P3 = ModelParams(k=3.0, a=2.0, b=2.0, omega=1.0)


def interior_points(rng, p, n):
    r = rng.uniform(0.4, 2.2, n)
    phi = rng.uniform(0.08, 0.92, n) * p.phi_max
    return r, phi, r * np.cos(phi), r * np.sin(phi)


def make_test_spinors(rng, p, r, phi):
    """(cartesian data, polar bundle) of each test spinor at (r, phi): four
    catalog states, bundled on one factor table, then two random spinors."""
    table = FactorTable(p, r, phi)
    catalog = table.bundles(
        [
            zero_fermion_state(p, 1, 1),
            one_fermion_state("+", p, 0, 1),
            one_fermion_state("-", p, 1, 2),
            two_fermion_state(p, 1, 1),
        ]
    )
    polygauss = [random_polygauss(rng) for _ in range(2)]
    return [(cart_from_polar(b, r, phi), b) for b in catalog] + [g.sample(r, phi) for g in polygauss]


def catalog_cart(state, p, r, phi):
    """Cartesian data of a catalog state from its polar bundle."""
    return cart_from_polar(state_bundle(state, p, r, phi), r, phi)


def polar_reference(bundle, p, r, phi):
    """(Hs, Q) of a test spinor from its polar bundle: catalog states and
    random spinors go through the same pointwise operator assembly; as
    dense (4, *shape) arrays."""
    return [image.dense() for image in apply_operators(("Hs", "Q"), bundle, FactorTable(p, r, phi))]


def vacuum_state_and_scalar(p, r, phi):
    """A zero-fermion catalog state's polar bundle at (r, phi), and the
    scalar H_k / omega applied to it, dense."""
    table = FactorTable(p, r, phi)
    (bundle,) = table.bundles([zero_fermion_state(p, 2, 1)])
    (scalar,) = (image.dense() for image in apply_operators(("H",), bundle, table))
    return bundle, scalar


def sympy_values(sp, expr, symbols, *coords):
    """``expr`` evaluated with 30-digit mpmath arithmetic at the points whose
    coordinates are ``coords`` (each float taken at its exact binary value),
    as an array of shape (len(coords[0]),)."""
    mpmath = pytest.importorskip("mpmath")
    fn = sp.lambdify(symbols, expr, "mpmath")
    with mpmath.workdps(30):
        return np.array([float(fn(*map(mpmath.mpf, pt))) for pt in zip(*coords)])


class TestPolyGauss:
    """The analytic derivatives against sympy's: every other test feeds the
    cartesian and polar sides the same partials, so only these see a
    wrong one."""

    @pytest.mark.parametrize("omega", [1.0, 0.35, 2.5])
    def test_gauss_monomials_equal_sympy_derivatives(self, omega):
        sp = pytest.importorskip("sympy")
        t = sp.Symbol("t", real=True)
        # the oscillator coordinates sqrt(omega) x of fixed physical points x
        xs = math.sqrt(omega) * np.array([-1.5, -0.4, 0.0, 0.3, 1.0, 2.2])
        got = _gauss_monomials(3, xs)
        assert got.shape == (3, 4, xs.size)
        for i in range(4):
            f = t**i * sp.exp(-(t**2) / 2)
            for d in range(3):
                want = sympy_values(sp, sp.diff(f, t, d), (t,), xs)
                np.testing.assert_allclose(got[d, i], want, rtol=1e-14, atol=1e-14, err_msg=f"i={i}, d={d}")

    def test_sample_equals_sympy_derivatives(self):
        sp = pytest.importorskip("sympy")
        st = random_polygauss(np.random.default_rng(11))
        r = np.array([0.3, 0.9, 1.4, 2.1, 1.1])
        phi = np.array([0.0, 0.7, 2.0, 3.9, 5.5])  # every quadrant, and y = 0
        cart, bundle = st.sample(r, phi)
        # one symbolic component q(x, y) exp(-(x^2+y^2)/2), its 16 coefficients as symbols
        x, y, rs, ps = sp.symbols("x y r phi", real=True)
        c = sp.symbols("c0:16", real=True)
        f = sum(c[4 * i + j] * x**i * y**j for i in range(4) for j in range(4)) * sp.exp(-(x**2 + y**2) / 2)
        fp = f.subs({x: rs * sp.cos(ps), y: rs * sp.sin(ps)})
        cart_exprs = {"val": f, "d_x": sp.diff(f, x), "d_y": sp.diff(f, y), "lap": sp.diff(f, x, 2) + sp.diff(f, y, 2)}
        polar_exprs = {"val": fp, "d_r": sp.diff(fp, rs), "d_rr": sp.diff(fp, rs, 2), "d_phi": sp.diff(fp, ps), "d_phiphi": sp.diff(fp, ps, 2)}
        for form, exprs, coords, vars_ in (
            (cart, cart_exprs, (r * np.cos(phi), r * np.sin(phi)), (x, y)),
            (bundle, polar_exprs, (r, phi), (rs, ps)),
        ):
            for name, expr in exprs.items():
                for s, coeffs in enumerate(st.coeffs):
                    # the coefficients enter as constant coordinates
                    consts = [np.full(r.size, v) for v in coeffs.ravel()]
                    want = sympy_values(sp, expr, (*vars_, *c), *coords, *consts)
                    np.testing.assert_allclose(getattr(form, name)[s], want, rtol=1e-13, atol=1e-13, err_msg=f"component {s}, {name}")

    def test_polar_and_cartesian_derivatives_consistent(self):
        rng = np.random.default_rng(0)
        st = random_polygauss(rng)
        r, phi, x, y = interior_points(rng, P2, 30)
        cart, bundle = st.sample(r, phi)
        c, s = np.cos(phi), np.sin(phi)
        np.testing.assert_allclose(c * cart.d_x + s * cart.d_y, bundle.d_r, atol=1e-12)
        np.testing.assert_allclose(-y * cart.d_x + x * cart.d_y, bundle.d_phi, atol=1e-12)
        lap_polar = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
        np.testing.assert_allclose(cart.lap, lap_polar, atol=1e-11)


class TestSeparableCase:
    def test_agreement_with_polar_form(self):
        rng = np.random.default_rng(1)
        r, phi, x, y = interior_points(rng, P1, 200)
        for cart, bundle in make_test_spinors(rng, P1, r, phi):
            h_c, q_c = sw_super(P1, cart, x, y)
            h_p, q_p = polar_reference(bundle, P1, r, phi)
            assert np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0) < 1e-9
            assert np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0) < 1e-9

    def test_fermion_free_block_reduction(self):
        # on the fermionic vacuum, Hs / omega is the scalar H_k / omega
        # shifted by -2 (a+b+1)
        rng = np.random.default_rng(2)
        r, phi, x, y = interior_points(rng, P1, 100)
        bundle, scalar = vacuum_state_and_scalar(P1, r, phi)
        h_c, _ = sw_super(P1, cart_from_polar(bundle, r, phi), x, y)
        shift = -2 * (P1.a + P1.b + 1.0)
        fv = bundle.dense().val
        assert np.max(np.abs(h_c - scalar - shift * fv)) / np.max(np.abs(scalar)) < 1e-12

    def test_superpotential_matches_polar(self):
        rng = np.random.default_rng(3)
        r, phi, x, y = interior_points(rng, P1, 60)
        np.testing.assert_allclose(sw_superpotential(P1, x, y), superpotential(P1, r, phi), atol=1e-13)

    def test_requires_unit_k_and_interior(self):
        rng = np.random.default_rng(4)
        r, phi, x, y = interior_points(rng, P1, 5)
        cart = catalog_cart(zero_fermion_state(P1, 0, 0), P1, r, phi)
        with pytest.raises(ValueError):
            sw_super(P2, cart, x, y)
        with pytest.raises(ValueError):
            sw_super(P1, cart, x - x, y)
        with pytest.raises(ValueError, match="sw_super requires k = 1"):
            sw_superpotential(P2, x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_axis_point_probes(self, bad):
        rng = np.random.default_rng(4)
        r, phi, x, y = interior_points(rng, P1, 5)
        cart = catalog_cart(zero_fermion_state(P1, 0, 0), P1, r, phi)
        for xs, ys in ((np.where(np.arange(5) == 2, bad, x), y), (x, np.where(np.arange(5) == 2, bad, y))):
            with pytest.raises(ValueError, match="axis points are outside the domain"):
                sw_super(P1, cart, xs, ys)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "wall", "outside"])
    def test_superpotential_point_probes(self, bad):
        # W takes the points Hs and Q take: log|x| of x = 0 or x = -1 is no answer
        rng = np.random.default_rng(4)
        r, phi, x, y = interior_points(rng, P1, 5)
        for xs, ys in ((np.where(np.arange(5) == 2, bad, x), y), (x, np.where(np.arange(5) == 2, bad, y))):
            with pytest.raises(ValueError, match="axis points are outside the domain"):
                sw_superpotential(P1, xs, ys)


class TestPairSector:
    def test_agreement_with_polar_form(self):
        rng = np.random.default_rng(5)
        r, phi, x, y = interior_points(rng, P2, 200)
        for cart, bundle in make_test_spinors(rng, P2, r, phi):
            h_c, q_c = bc2_super(P2, cart, x, y)
            h_p, q_p = polar_reference(bundle, P2, r, phi)
            assert np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0) < 1e-9
            assert np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0) < 1e-9

    def test_fermion_free_block_reduction(self):
        # on the fermionic vacuum, Hs / omega is the scalar H_k / omega
        # shifted by -2 (2a+2b+1)
        rng = np.random.default_rng(2)
        r, phi, x, y = interior_points(rng, P2, 100)
        bundle, scalar = vacuum_state_and_scalar(P2, r, phi)
        h_c, _ = bc2_super(P2, cart_from_polar(bundle, r, phi), x, y)
        shift = -2 * (2 * P2.a + 2 * P2.b + 1.0)
        fv = bundle.dense().val
        assert np.max(np.abs(h_c - scalar - shift * fv)) / np.max(np.abs(scalar)) < 1e-12

    def test_superpotential_differs_by_constant(self):
        rng = np.random.default_rng(6)
        r, phi, x, y = interior_points(rng, P2, 60)
        diff = bc2_superpotential(P2, x, y) - superpotential(P2, r, phi)
        np.testing.assert_allclose(diff, P2.b * math.log(2.0), atol=1e-13)

    def test_supercharge_coefficient_is_superpotential_gradient(self):
        # the x-coefficient of Q / sqrt(omega) is x + dW/dx with the pair/axis W
        rng = np.random.default_rng(7)
        r, phi, x, y = interior_points(rng, P2, 40)
        h = 1e-6
        grad_x = (bc2_superpotential(P2, x + h, y) - bc2_superpotential(P2, x - h, y)) / (2 * h)
        coded = -P2.a * (1.0 / (x - y) + 1.0 / (x + y)) - P2.b / x
        np.testing.assert_allclose(coded, grad_x, atol=1e-7)

    def test_sector_validation(self):
        rng = np.random.default_rng(8)
        r, phi, x, y = interior_points(rng, P2, 5)
        cart = catalog_cart(zero_fermion_state(P2, 0, 0), P2, r, phi)
        with pytest.raises(ValueError):
            bc2_super(P2, cart, y, x)  # y > x violates the sector

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_sector_point_probes(self, bad):
        rng = np.random.default_rng(8)
        r, phi, x, y = interior_points(rng, P2, 5)
        cart = catalog_cart(zero_fermion_state(P2, 0, 0), P2, r, phi)
        for xs, ys in ((np.where(np.arange(5) == 2, bad, x), y), (x, np.where(np.arange(5) == 2, bad, y))):
            with pytest.raises(ValueError, match="points must satisfy 0 < y < x"):
                bc2_super(P2, cart, xs, ys)

    @pytest.mark.parametrize("probe", ["nan", "inf", "wall", "outside"])
    def test_superpotential_point_probes(self, probe):
        # W takes the points Hs and Q take: on the wall y = x, log|x - y| is no answer
        rng = np.random.default_rng(8)
        r, phi, x, y = interior_points(rng, P2, 5)
        at = np.arange(5) == 2
        bad = {
            "nan": [(np.where(at, math.nan, x), y), (x, np.where(at, math.nan, y))],
            "inf": [(np.where(at, math.inf, x), y), (x, np.where(at, math.inf, y))],
            "wall": [(x, np.where(at, x, y)), (x, np.where(at, 0.0, y))],
            "outside": [(x, np.where(at, 2 * x, y)), (x, np.where(at, -y, y))],
        }[probe]
        for xs, ys in bad:
            with pytest.raises(ValueError, match="points must satisfy 0 < y < x"):
                bc2_superpotential(P2, xs, ys)
        with pytest.raises(ValueError, match="bc2_super requires k = 2"):
            bc2_superpotential(P1, x, y)


class TestThreeParticleCase:
    @pytest.fixture
    def sample(self):
        rng = np.random.default_rng(9)
        r = rng.uniform(0.5, 2.0, 120)
        phi = rng.uniform(0.08, 0.92, 120) * P3.phi_max
        X = rng.uniform(-1.5, 1.5, 120)
        return rng, r, phi, X

    def test_mode_transform_preserves_relations(self):
        cops = cmw_mode_matrices()
        eye = np.eye(8)
        for i in range(3):
            for j in range(3):
                anti = cops[i] @ cops[j].T + cops[j].T @ cops[i]
                np.testing.assert_array_almost_equal(anti, eye if i == j else 0 * eye, decimal=14)
                np.testing.assert_array_almost_equal(cops[i] @ cops[j] + cops[j] @ cops[i], 0 * eye, decimal=14)

    def test_six_center_resummation(self):
        rng = np.random.default_rng(10)
        phi = rng.uniform(0, 2 * math.pi, 200)
        sec_sum = sum(1.0 / np.cos(phi - 2 * math.pi * j / 3) ** 2 for j in range(3))
        csc_sum = sum(1.0 / np.sin(phi - 2 * math.pi * j / 3) ** 2 for j in range(3))
        np.testing.assert_allclose(sec_sum, 9.0 / np.cos(3 * phi) ** 2, rtol=1e-10)
        np.testing.assert_allclose(csc_sum, 9.0 / np.sin(3 * phi) ** 2, rtol=1e-10)

    def test_fermion_free_block_reduction(self, sample):
        # on a zero-fermion relative state times the cm Gaussian chi,
        # Hs / omega is (H_k psi_rel / omega) chi, plus 1 from the cm
        # oscillator and -3 (2a+2b+1)
        _, r, phi, X = sample
        bundle, scalar = vacuum_state_and_scalar(P3, r, phi)
        cm_vac = np.zeros((2, 2))
        cm_vac[0, 0] = 1.0
        data = make_cmw_test_state(bundle, cm_vac, P3, r, phi, X)
        h_f, _ = cmw_super(P3, data)
        chi = np.exp(-0.5 * X**2)
        h_rel = embed_product_values(scalar, np.stack([chi, np.zeros_like(chi)]))
        shift = 1.0 - 3.0 * (2 * P3.a + 2 * P3.b + 1.0)
        assert np.max(np.abs(h_f - h_rel - shift * data.val)) / np.max(np.abs(h_rel)) < 1e-12

    def test_split_into_relative_and_cm_parts(self, sample):
        rng, r, phi, X = sample
        for rel in (
            state_bundle(zero_fermion_state(P3, 1, 1), P3, r, phi),
            state_bundle(one_fermion_state("+", P3, 0, 2), P3, r, phi),
            random_polygauss(rng).sample(r, phi)[1],
        ):
            cm = rng.uniform(-1, 1, size=(2, 3))
            data = make_cmw_test_state(rel, cm, P3, r, phi, X)
            h_f, q_f = cmw_super(P3, data)
            h_r, q_r = cmw_rel_super(P3, data)
            h_c, q_c = cm_super(P3, data)
            assert np.max(np.abs(h_f - h_r - h_c)) / max(np.max(np.abs(h_f)), 1.0) < 1e-9
            assert np.max(np.abs(q_f - q_r - q_c)) / max(np.max(np.abs(q_f)), 1.0) < 1e-9

    def test_relative_part_matches_polar_construction(self, sample):
        _, r, phi, X = sample
        cm_vac = np.zeros((2, 2))
        cm_vac[0, 0] = 1.0
        chi = np.exp(-0.5 * X**2)
        cm_field = np.stack([chi, np.zeros_like(chi)])
        for st in (zero_fermion_state(P3, 2, 1), one_fermion_state("+", P3, 1, 1)):
            bundle = state_bundle(st, P3, r, phi)
            data = make_cmw_test_state(bundle, cm_vac, P3, r, phi, X)
            h_r, q_r = cmw_rel_super(P3, data)
            h_p, q_p = polar_reference(bundle, P3, r, phi)
            h_ref = embed_product_values(h_p, cm_field)
            q_ref = embed_product_values(q_p, cm_field)
            assert np.max(np.abs(h_r - h_ref)) / max(np.max(np.abs(h_ref)), 1.0) < 1e-9
            assert np.max(np.abs(q_r - q_ref)) / max(np.max(np.abs(q_ref)), 1.0) < 1e-9

    def test_cm_oscillator_oracle(self, sample):
        # in oscillator units the bosonic 1D oscillator on the Gaussian
        # gives +1; the fermionic term contributes -1; the total annihilates it
        _, r, phi, X = sample
        cm_vac = np.zeros((2, 2))
        cm_vac[0, 0] = 1.0
        data = make_cmw_test_state(state_bundle(zero_fermion_state(P3, 0, 0), P3, r, phi), cm_vac, P3, r, phi, X)
        h_c, q_c = cm_super(P3, data)
        assert np.max(np.abs(h_c)) < 1e-12
        assert np.max(np.abs(q_c)) < 1e-12
        bosonic = -data.d_XX + X**2 * data.val
        np.testing.assert_allclose(bosonic, data.val, atol=1e-12)
        cops = cmw_mode_matrices()
        fermionic = 2.0 * ((cops[2].T @ cops[2]) @ data.val) - data.val
        np.testing.assert_allclose(fermionic, -data.val, atol=1e-12)

    def test_cm_excited_level(self, sample):
        # first bosonic excitation of the cm line sits at Hs / omega = 2
        _, r, phi, X = sample
        cm = np.zeros((2, 2))
        cm[0, 1] = 1.0  # X exp(-X^2 / 2)
        data = make_cmw_test_state(state_bundle(zero_fermion_state(P3, 0, 0), P3, r, phi), cm, P3, r, phi, X)
        h_c, _ = cm_super(P3, data)
        target = 2.0 * data.val
        assert np.max(np.abs(h_c - target)) / np.max(np.abs(data.val)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_points_rejected(self, sample, bad):
        # the full operator and both of its parts: a non-finite X enters
        # only the cm part, and each takes the points the others take
        _, r, phi, X = sample
        for coord in ("u", "v", "X"):
            data = make_cmw_test_state(state_bundle(zero_fermion_state(P3, 0, 0), P3, r, phi), np.eye(2), P3, r, phi, X.copy())
            getattr(data, coord)[0] = bad
            for operator in (cmw_super, cmw_rel_super, cm_super):
                with pytest.raises(ValueError, match="coincidence points are outside the domain"):
                    operator(P3, data)

    def test_coincidence_points_rejected(self, sample):
        rng, r, phi, X = sample
        data = make_cmw_test_state(state_bundle(zero_fermion_state(P3, 0, 0), P3, r, phi), np.eye(2), P3, r, phi, X)
        data.u[0] = 0.0  # forces x1 = x2 at the first sample point
        for operator in (cmw_super, cmw_rel_super, cm_super):
            with pytest.raises(ValueError, match="coincidence points are outside the domain"):
                operator(P3, data)
        data.v[0] = 0.0  # u = v = 0: all three particles coincide, and r = 0 in the six-center form
        for operator in (cmw_super, cmw_rel_super, cm_super):
            with pytest.raises(ValueError, match="coincidence points are outside the domain"):
                operator(P3, data)
