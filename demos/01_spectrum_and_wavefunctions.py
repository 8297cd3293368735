"""Exact bound states of the deformed planar oscillator.

Samples the closed-form eigenfunctions, checks their normalization on
the Gauss grid, and prints the spectrum with its supersymmetric shift.
"""

import numpy as np

from ttwsusy import (
    Grid,
    ModelParams,
    energy,
    eval_wavefunction,
    project,
    susy_energy,
    wavefunction_gram,
    weights_of,
    zero_fermion_state,
)

params = ModelParams(k=2.0, a=1.5, b=2.5, omega=1.0)
print(f"model: k={params.k}, a={params.a}, b={params.b}, omega={params.omega}")
print(f"angular wedge: 0 < phi < pi/(2k) = {params.phi_max:.6f}\n")

print("spectrum E_{N,n} = 2 omega [2N + (2n+a+b)k + 1] and the shifted")
print("ladder E - E_00 = 4 omega (N + nk):")
for n in range(3):
    w = weights_of(params, n)
    row = "  ".join(f"{energy(params, N, n):7.3f}" for N in range(4))
    print(f"  n={n} (tau={w.tau:5.2f}, q={w.q:5.2f}):  {row}")
print()
for n in range(3):
    row = "  ".join(f"{susy_energy(params, N, n):7.3f}" for N in range(4))
    print(f"  shifted, n={n}:               {row}")

# pointwise values along a radial cut
phi0 = 0.3 * params.phi_max
r = np.linspace(0.2, 3.0, 8)
print(f"\nPsi_{{1,1}} along phi = {phi0:.3f}:")
print("  " + "  ".join(f"{v:+.4f}" for v in eval_wavefunction(params, 1, 1, r, np.full_like(r, phi0))))

# quadrature normalization: one state, then the whole Gram matrix, each
# entry from 1-D radial and angular Gauss sums
grid = Grid.for_pair(params, 1, 1, 64, 64)
psi = [zero_fermion_state(params, 1, 1)]
print(f"\n<Psi_11, Psi_11> on the Gauss grid = {project(('1',), psi, psi, grid)['1'][0, 0]:.15f}")

# each (n1, n2) block of the Gram matrix is one projection of the zero-fermion
# states, from 1-D radial and angular Gauss sums on the n1 + n2 pair grid
gram = wavefunction_gram(params, (5, 5), 64, 64)
dev = np.max(np.abs(gram - np.eye(gram.shape[0])))
print(f"Gram matrix of all states with N, n <= 5: max deviation from identity = {dev:.3e}")
