import numpy as np
import pytest

from ttwsusy.fock import jordan_wigner

I4 = np.eye(4)


def rotate_to_barred(phi: float) -> np.ndarray:
    """Orthogonal map from (x, y) mode labels to the barred modes."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def barred_creators(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(bdag_xbar, bdag_ybar) at angle phi, as 4x4 matrices."""
    u = rotate_to_barred(phi)
    bx, by = jordan_wigner(2)
    return u[0, 0] * bx.T + u[0, 1] * by.T, u[1, 0] * bx.T + u[1, 1] * by.T


def anticomm(a, b):
    return a @ b + b @ a


def fermion_matrices():
    """The four 4x4 matrices {b_x, bdag_x, b_y, bdag_y}."""
    bx, by = jordan_wigner(2)
    return {"b_x": bx, "bdag_x": bx.T, "b_y": by, "bdag_y": by.T}


def barred_annihilators(phi):
    """(b_xbar, b_ybar) at angle phi, as 4x4 matrices."""
    cx, cy = barred_creators(phi)
    return cx.T, cy.T


class TestCanonicalRelations:
    def test_mixed_anticommutators(self):
        m = fermion_matrices()
        np.testing.assert_array_equal(anticomm(m["b_x"], m["bdag_x"]), I4)
        np.testing.assert_array_equal(anticomm(m["b_y"], m["bdag_y"]), I4)
        np.testing.assert_array_equal(anticomm(m["b_x"], m["bdag_y"]), np.zeros((4, 4)))
        np.testing.assert_array_equal(anticomm(m["b_y"], m["bdag_x"]), np.zeros((4, 4)))

    def test_nilpotency_and_same_species(self):
        bx, by = jordan_wigner(2)
        for op in (bx, by, bx.T, by.T):
            np.testing.assert_array_equal(op @ op, np.zeros((4, 4)))
        np.testing.assert_array_equal(anticomm(bx, by), np.zeros((4, 4)))
        np.testing.assert_array_equal(anticomm(bx.T, by.T), np.zeros((4, 4)))

    def test_adjoint_pairs_are_transposes(self):
        m = fermion_matrices()
        np.testing.assert_array_equal(m["bdag_x"], m["b_x"].T)
        np.testing.assert_array_equal(m["bdag_y"], m["b_y"].T)

    def test_basis_ordering_convention(self):
        # |10> = bdag_x|0>, |11> = bdag_x bdag_y|0>; the JW string makes
        # bdag_y|10> = -|11>
        m = fermion_matrices()
        vac = np.array([1.0, 0, 0, 0])
        np.testing.assert_array_equal(m["bdag_x"] @ vac, [0, 1, 0, 0])
        np.testing.assert_array_equal(m["bdag_y"] @ vac, [0, 0, 1, 0])
        np.testing.assert_array_equal(m["bdag_x"] @ m["bdag_y"] @ vac, [0, 0, 0, 1])
        np.testing.assert_array_equal(m["bdag_y"] @ (m["bdag_x"] @ vac), [0, 0, 0, -1])


class TestBarredModes:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotate_to_barred(0.0), np.eye(2), atol=1e-15)
        bx, by = jordan_wigner(2)
        cbx, cby = barred_annihilators(0.0)
        np.testing.assert_allclose(cbx, bx, atol=1e-15)
        np.testing.assert_allclose(cby, by, atol=1e-15)

    @pytest.mark.parametrize("phi", [0.3, 1.1, 2.9, -0.7])
    def test_barred_relations_hold(self, phi):
        cbx, cby = barred_annihilators(phi)
        np.testing.assert_allclose(anticomm(cbx, cbx.T), I4, atol=1e-14)
        np.testing.assert_allclose(anticomm(cby, cby.T), I4, atol=1e-14)
        np.testing.assert_allclose(anticomm(cbx, cby.T), np.zeros((4, 4)), atol=1e-14)
        np.testing.assert_allclose(anticomm(cbx, cby), np.zeros((4, 4)), atol=1e-14)

    def test_number_operator_invariance(self):
        bx, by = jordan_wigner(2)
        number = bx.T @ bx + by.T @ by
        for phi in (0.4, 1.7):
            cbx, cby = barred_annihilators(phi)
            np.testing.assert_allclose(cbx.T @ cbx + cby.T @ cby, number, atol=1e-14)

    def test_rotation_composition(self):
        r = rotate_to_barred(0.5) @ rotate_to_barred(1.2)
        np.testing.assert_allclose(r, rotate_to_barred(1.7), atol=1e-14)

    def test_double_occupation_is_rotation_invariant(self):
        vac = np.array([1.0, 0, 0, 0])
        for phi in (0.0, 0.9, 2.2):
            cdx, cdy = barred_creators(phi)
            np.testing.assert_allclose(cdx @ cdy @ vac, [0, 0, 0, 1], atol=1e-14)


class TestJordanWigner:
    def test_three_mode_relations(self):
        ops = jordan_wigner(3)
        eye = np.eye(8)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                np.testing.assert_allclose(anticomm(a, b.T), eye if i == j else 0 * eye, atol=1e-15)
                np.testing.assert_allclose(anticomm(a, b), 0 * eye, atol=1e-15)
