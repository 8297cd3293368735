"""The eight-generator superalgebra behind the supersymmetric extension.

Builds the truncated generator matrices in the orthonormal super-basis,
one block per angular sector, verifies every (anti)commutation relation
and the Hermiticity pairing sector by sector, and repeats the
structure-constant check in the wavefunction-free boson-fermion matrix
realization.
"""

import math

import numpy as np

from ttwsusy import (
    ModelParams,
    check_structure_constants,
    generator_matrices,
    hermiticity_residuals,
    interior_mask,
    oscillator_realization,
)

params = ModelParams(k=math.sqrt(2.0), a=1.2, b=0.8, omega=1.0)
truncation = (6, 4)
print(f"model: k=sqrt(2), a={params.a}, b={params.b}; truncation (N_max, n_max) = {truncation}")

blocks, basis = generator_matrices(params, truncation, m_rad=64, m_ang=64)
sizes = " + ".join(str(len(block["K0"])) for block in blocks)
print(f"basis size {len(basis)} (towers per sector: 2 at n=0, 4 otherwise)")
print(f"every generator preserves the angular sector: {len(blocks)} blocks of sizes {sizes}\n")

print("K0 is diagonal with the expected weights; a slice of its sector-0 diagonal:")
for s, d in list(zip(basis, np.diag(blocks[0]["K0"])))[:6]:
    print(f"  n={s.n} {s.family:>6} level {s.level}: K0 = {d:.12f} (expected {s.k0:.12f})")

# sector by sector, the top sector n_max included: no generator leaves its
# sector, so each sector's interior is its states below the top radial level
interior = interior_mask(basis, truncation[0])
sectors = np.array([s.n for s in basis])
per_sector = [(block, interior[sectors == n]) for n, block in enumerate(blocks)]
relations: dict[str, list[float]] = {}
for block, inner in per_sector:
    for name, res in check_structure_constants(block, inner).items():
        relations.setdefault(name, []).append(res)
worst = max(relations, key=lambda name: np.max(relations[name]))
print(f"\nall {len(relations)} superalgebra relations on the interior of {len(per_sector)} sectors:")
print(f"  worst residual {np.max(relations[worst]):.3e} from {worst}")

print("\nHermiticity pairings (transposes in the real orthonormal basis), worst over the sectors:")
hermiticity = [hermiticity_residuals(block) for block in blocks]
for name in hermiticity[0]:
    print(f"  {name:<12} residual {max(h[name] for h in hermiticity):.3e}")

print("\nsupersymmetry algebra {Q, Qdag} = Hs as matrices, worst over the sectors:")
w4 = 4.0 * params.omega
res = []
for block, inner in per_sector:
    anti = w4 * (block["W+"] @ block["V-"] + block["V-"] @ block["W+"])
    hs = w4 * (block["K0"] + block["Y"])
    res.append(np.max(np.abs((anti - hs)[np.ix_(inner, inner)])))
print(f"  residual {max(res):.3e}")

osc = oscillator_realization()
worst_osc = max(check_structure_constants(osc.mats, osc.interior).values())
print(f"\noscillator matrix realization (no wavefunctions): worst relation residual {worst_osc:.3e}")
