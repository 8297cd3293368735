import math

import numpy as np
import pytest

from ttwsusy.generators import apply_operator, superpotential
from ttwsusy.irreps import one_fermion_state, two_fermion_state, zero_fermion_state
from ttwsusy.model import ModelParams
from ttwsusy.special_cases import (
    CatalogTestSpinor,
    PolyGaussSpinor,
    bc2_super,
    bc2_superpotential,
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

P1 = ModelParams(k=1.0, a=1.0, b=1.0, omega=1.0)
P2 = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
P3 = ModelParams(k=3.0, a=2.0, b=2.0, omega=1.0)


def interior_points(rng, p, n):
    r = rng.uniform(0.4, 2.2, n)
    phi = rng.uniform(0.08, 0.92, n) * p.phi_max
    return r, phi, r * np.cos(phi), r * np.sin(phi)


def make_test_states(rng, p):
    return [
        CatalogTestSpinor(zero_fermion_state(p, 1, 1)),
        CatalogTestSpinor(one_fermion_state("+", p, 0, 1)),
        CatalogTestSpinor(one_fermion_state("-", p, 1, 2)),
        CatalogTestSpinor(two_fermion_state(p, 1, 1)),
        random_polygauss(rng, p.omega),
        random_polygauss(rng, p.omega),
    ]


def polar_reference(st, p, r, phi):
    """(Hs, Q) of a test spinor from its polar bundle: catalog states and
    random spinors go through the same pointwise operator assembly."""
    bundle = st.polar_bundle(p, r, phi)
    return apply_operator("Hs", bundle, p, r, phi), apply_operator("Q", bundle, p, r, phi)


class TestPolyGauss:
    def test_polar_and_cartesian_derivatives_consistent(self):
        rng = np.random.default_rng(0)
        st = random_polygauss(rng, 1.0)
        r, phi, x, y = interior_points(rng, P2, 30)
        cart = st.cart_data(P2, r, phi)
        bundle = st.polar_bundle(P2, r, phi)
        c, s = np.cos(phi), np.sin(phi)
        np.testing.assert_allclose(c * cart.d_x + s * cart.d_y, bundle.d_r, atol=1e-12)
        np.testing.assert_allclose(-y * cart.d_x + x * cart.d_y, bundle.d_phi, atol=1e-12)
        lap_polar = bundle.d_rr + bundle.d_r / r + bundle.d_phiphi / r**2
        np.testing.assert_allclose(cart.lap, lap_polar, atol=1e-11)


class TestSeparableCase:
    def test_agreement_with_polar_form(self):
        rng = np.random.default_rng(1)
        r, phi, x, y = interior_points(rng, P1, 200)
        for st in make_test_states(rng, P1):
            cart = st.cart_data(P1, r, phi)
            h_c, q_c = sw_super(P1, cart, x, y)
            h_p, q_p = polar_reference(st, P1, r, phi)
            assert np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0) < 1e-9
            assert np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0) < 1e-9

    def test_fermion_free_block_reduction(self):
        # on the fermionic vacuum, Hs is the scalar Hamiltonian shifted
        # by -2 omega (a+b+1)
        rng = np.random.default_rng(2)
        r, phi, x, y = interior_points(rng, P1, 100)
        st = CatalogTestSpinor(zero_fermion_state(P1, 2, 1))
        cart = st.cart_data(P1, r, phi)
        h_c, _ = sw_super(P1, cart, x, y)
        bundle = st.polar_bundle(P1, r, phi)
        scalar = apply_operator("H", bundle, P1, r, phi)
        shift = -2 * P1.omega * (P1.a + P1.b + 1.0)
        fv = bundle.val
        assert np.max(np.abs(h_c - scalar - shift * fv)) / np.max(np.abs(scalar)) < 1e-12

    def test_superpotential_matches_polar(self):
        rng = np.random.default_rng(3)
        r, phi, x, y = interior_points(rng, P1, 60)
        np.testing.assert_allclose(sw_superpotential(P1, x, y), superpotential(P1, r, phi), atol=1e-13)

    def test_requires_unit_k_and_interior(self):
        rng = np.random.default_rng(4)
        r, phi, x, y = interior_points(rng, P1, 5)
        cart = CatalogTestSpinor(zero_fermion_state(P1, 0, 0)).cart_data(P1, r, phi)
        with pytest.raises(ValueError):
            sw_super(P2, cart, x, y)
        with pytest.raises(ValueError):
            sw_super(P1, cart, x - x, y)


class TestPairSector:
    def test_agreement_with_polar_form(self):
        rng = np.random.default_rng(5)
        r, phi, x, y = interior_points(rng, P2, 200)
        for st in make_test_states(rng, P2):
            cart = st.cart_data(P2, r, phi)
            h_c, q_c = bc2_super(P2, cart, x, y)
            h_p, q_p = polar_reference(st, P2, r, phi)
            assert np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0) < 1e-9
            assert np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0) < 1e-9

    def test_superpotential_differs_by_constant(self):
        rng = np.random.default_rng(6)
        r, phi, x, y = interior_points(rng, P2, 60)
        diff = bc2_superpotential(P2, x, y) - superpotential(P2, r, phi)
        np.testing.assert_allclose(diff, P2.b * math.log(2.0), atol=1e-13)

    def test_supercharge_coefficient_is_superpotential_gradient(self):
        # Q's x-coefficient is omega x + dW/dx with the pair/axis W
        rng = np.random.default_rng(7)
        r, phi, x, y = interior_points(rng, P2, 40)
        h = 1e-6
        grad_x = (bc2_superpotential(P2, x + h, y) - bc2_superpotential(P2, x - h, y)) / (2 * h)
        coded = -P2.a * (1.0 / (x - y) + 1.0 / (x + y)) - P2.b / x
        np.testing.assert_allclose(coded, grad_x, atol=1e-7)

    def test_sector_validation(self):
        rng = np.random.default_rng(8)
        r, phi, x, y = interior_points(rng, P2, 5)
        cart = CatalogTestSpinor(zero_fermion_state(P2, 0, 0)).cart_data(P2, r, phi)
        with pytest.raises(ValueError):
            bc2_super(P2, cart, y, x)  # y > x violates the sector


class TestThreeParticleCase:
    @pytest.fixture
    def sample(self):
        rng = np.random.default_rng(9)
        r = rng.uniform(0.5, 2.0, 120)
        phi = rng.uniform(0.08, 0.92, 120) * P3.phi_max
        X = rng.uniform(-1.5, 1.5, 120)
        return rng, r, phi, X

    def test_mode_transform_preserves_relations(self):
        _, _, cops = cmw_mode_matrices()
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

    def test_split_into_relative_and_cm_parts(self, sample):
        rng, r, phi, X = sample
        for rel in (
            CatalogTestSpinor(zero_fermion_state(P3, 1, 1)),
            CatalogTestSpinor(one_fermion_state("+", P3, 0, 2)),
            random_polygauss(rng, P3.omega),
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
        chi = np.exp(-0.5 * P3.omega * X**2)
        cm_field = np.stack([chi, np.zeros_like(chi)])
        for st in (zero_fermion_state(P3, 2, 1), one_fermion_state("+", P3, 1, 1)):
            data = make_cmw_test_state(CatalogTestSpinor(st), cm_vac, P3, r, phi, X)
            h_r, q_r = cmw_rel_super(P3, data)
            h_p, q_p = polar_reference(CatalogTestSpinor(st), P3, r, phi)
            h_ref = embed_product_values(h_p, cm_field)
            q_ref = embed_product_values(q_p, cm_field)
            assert np.max(np.abs(h_r - h_ref)) / max(np.max(np.abs(h_ref)), 1.0) < 1e-9
            assert np.max(np.abs(q_r - q_ref)) / max(np.max(np.abs(q_ref)), 1.0) < 1e-9

    def test_cm_oscillator_oracle(self, sample):
        # bosonic 1D oscillator on the Gaussian gives +omega; the
        # fermionic term contributes -omega; the total annihilates it
        _, r, phi, X = sample
        cm_vac = np.zeros((2, 2))
        cm_vac[0, 0] = 1.0
        data = make_cmw_test_state(CatalogTestSpinor(zero_fermion_state(P3, 0, 0)), cm_vac, P3, r, phi, X)
        h_c, q_c = cm_super(P3, data)
        assert np.max(np.abs(h_c)) < 1e-12
        assert np.max(np.abs(q_c)) < 1e-12
        w = P3.omega
        bosonic = -data.d_XX + w * w * X**2 * data.val
        np.testing.assert_allclose(bosonic, w * data.val, atol=1e-12)
        _, _, cops = cmw_mode_matrices()
        fermionic = 2.0 * w * ((cops[2].T @ cops[2]) @ data.val) - w * data.val
        np.testing.assert_allclose(fermionic, -w * data.val, atol=1e-12)

    def test_cm_excited_level(self, sample):
        # first bosonic excitation of the cm line sits at 2 omega
        _, r, phi, X = sample
        cm = np.zeros((2, 2))
        cm[0, 1] = 1.0  # X exp(-omega X^2 / 2)
        data = make_cmw_test_state(CatalogTestSpinor(zero_fermion_state(P3, 0, 0)), cm, P3, r, phi, X)
        h_c, _ = cm_super(P3, data)
        target = 2.0 * P3.omega * data.val
        assert np.max(np.abs(h_c - target)) / np.max(np.abs(data.val)) < 1e-12

    def test_coincidence_points_rejected(self, sample):
        rng, r, phi, X = sample
        data = make_cmw_test_state(CatalogTestSpinor(zero_fermion_state(P3, 0, 0)), np.eye(2), P3, r, phi, X)
        data.u[0] = 0.0  # forces x1 = x2 at the first sample point
        with pytest.raises(ValueError):
            cmw_super(P3, data)
