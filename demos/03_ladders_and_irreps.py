"""Ladder actions, fermionic towers and irreducible representations.

Applies the odd generators to the bosonic eigenstates, compares with
the closed-form expansions, normalizes the one- and two-fermion states,
and classifies each angular sector's representation through its Casimir
eigenvalues.
"""

import numpy as np

from ttwsusy import (
    FactorTable,
    Grid,
    ModelParams,
    apply_operators,
    casimir_eigenvalues,
    classify,
    k_ladder_coeff,
    mixing_coeffs,
    overlap,
    project,
    two_fermion_state,
    v_action,
    weights_of,
    zero_fermion_state,
)

params = ModelParams(k=2.0, a=1.0, b=1.0, omega=1.0)
N, n = 1, 1
lam = (n + params.a + params.b) * params.k
mu = n * params.k

print(f"model: k={params.k}, a={params.a}, b={params.b}; acting on the state (N, n) = ({N}, {n})\n")

w = weights_of(params, n)
print(f"weights: tau = {w.tau}, q = {w.q}")
print(f"radial raising coefficient sqrt((N+1)(2 tau + N)) = {k_ladder_coeff('+', w.tau, N):.6f}\n")

grid_odd = Grid.for_pair(params, n, n, 64, 64, odd=True)
table = FactorTable.on(grid_odd)
# one bundle (values and polar derivatives) of the state serves both odd operators
(bundle,) = table.bundles([zero_fermion_state(params, N, n)])
images = apply_operators(("V+", "V-"), bundle, table)
expansions = [v_action(sign, params, N, n) for sign in ("+", "-")]
for (sign, norm2), field, expansion, ref in zip((("+", N + lam + 1.0), ("-", N + mu)), images, expansions, table.fields(expansions)):
    print(f"V{sign}: differential action vs closed-form expansion, max |diff| = {np.max(np.abs(field.dense() - ref.dense())):.3e}")
    measured = project(("1",), [expansion], [expansion], grid_odd)["1"][0, 0]
    print(f"     norm^2 of the expansion on the grid = {measured:.12f} (closed form {norm2})")

print(f"\noverlap of the two one-fermion states at equal weight: {overlap(params, N, n):.9f}")
print("recombination into orthonormal towers, coefficients (alpha, beta, gamma, delta):")
print("  " + ", ".join(f"{c:+.6f}" for c in mixing_coeffs(params, N, n)))

grid_even = Grid.for_pair(params, n, n, 64, 64)
two = [two_fermion_state(params, N, n)]
print(f"\ntwo-fermion state norm = {project(('1',), two, two, grid_even)['1'][0, 0]:.12f}")
print(f"two-fermion tower at n = 0 is empty: {two_fermion_state(params, N, 0).is_zero}")

print("\nsector classification:")
for m in range(3):
    label = classify(params, m)
    c2, c3 = casimir_eigenvalues(params, m)
    blocks = ", ".join(f"({t:g})({q:g})" for t, q in label.blocks)
    print(f"  n={m}: {label.kind:<13} C2={c2:6.2f} C3={c3:7.2f}  motion-integral eigenvalue {label.motion_integral_eigenvalue:6.1f}")
    print(f"        blocks: {blocks}")
