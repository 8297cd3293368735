"""The k = 1, 2, 3 cartesian constructions against the polar realization.

Each case applies the cartesian supersymmetrized Hamiltonian and
supercharge to generic test spinors at random interior points and
compares with the polar-coordinate operators; the three-particle case
additionally splits into relative + centre-of-mass parts.  Points and
operators are in oscillator units (coordinates times sqrt(omega); Hs / omega
and Q / sqrt(omega)), which at the default omega = 1 are the physical ones.
"""

import numpy as np

from ttwsusy import FactorTable, ModelParams, apply_operators, zero_fermion_state
from ttwsusy.irreps import one_fermion_state
from ttwsusy.special_cases import (
    bc2_super,
    cart_from_polar,
    cm_super,
    cmw_rel_super,
    cmw_super,
    embed_product_values,
    make_cmw_test_state,
    random_polygauss,
    sw_super,
)

rng = np.random.default_rng(42)


def compare(p, cart_fn, title):
    r = rng.uniform(0.4, 2.0, 200)
    phi = rng.uniform(0.08, 0.92, 200) * p.phi_max
    x, y = r * np.cos(phi), r * np.sin(phi)
    worst = 0.0
    # a catalog state's cartesian data comes from its polar bundle; a random
    # polynomial x Gaussian spinor gives both forms from one evaluation
    table = FactorTable(p, r, phi)
    (catalog,) = table.bundles([zero_fermion_state(p, 1, 1)])
    gauss = random_polygauss(rng)
    spinors = [(cart_from_polar(catalog, r, phi), catalog), gauss.sample(r, phi)]
    for cart, bundle in spinors:
        h_c, q_c = cart_fn(p, cart, x, y)
        # the same operator assembly for catalog states and random spinors
        h_p, q_p = (image.dense() for image in apply_operators(("Hs", "Q"), bundle, table))
        worst = max(worst, np.max(np.abs(h_c - h_p)) / np.max(np.abs(h_p)), np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1))
    print(f"{title}: max relative deviation over 200 random points = {worst:.3e}")


compare(ModelParams(k=1.0, a=1.0, b=1.0), sw_super, "k=1 separable oscillator")
compare(ModelParams(k=2.0, a=1.5, b=2.5), bc2_super, "k=2 pair/axis model     ")

p3 = ModelParams(k=3.0, a=2.0, b=2.0)
r = rng.uniform(0.5, 2.0, 200)
phi = rng.uniform(0.08, 0.92, 200) * p3.phi_max
X = rng.uniform(-1.5, 1.5, 200)
data = make_cmw_test_state(random_polygauss(rng).sample(r, phi)[1], rng.uniform(-1, 1, (2, 3)), p3, r, phi, X)
h_f, q_f = cmw_super(p3, data)
h_r, q_r = cmw_rel_super(p3, data)
h_c, q_c = cm_super(p3, data)
print(f"k=3 three-particle split: |Hs - Hs_rel - Hs_cm| = {np.max(np.abs(h_f - h_r - h_c)):.3e}, "
      f"|Q - Q_rel - Q_cm| = {np.max(np.abs(q_f - q_r - q_c)):.3e}")

st = zero_fermion_state(p3, 2, 1)
cm_vac = np.zeros((2, 2))
cm_vac[0, 0] = 1.0
chi = np.exp(-0.5 * X**2)
table = FactorTable(p3, r, phi)
(bundle,) = table.bundles([st])
data = make_cmw_test_state(bundle, cm_vac, p3, r, phi, X)
h_r, q_r = cmw_rel_super(p3, data)
(q_p,) = apply_operators(("Q",), bundle, table)
q_ref = embed_product_values(q_p.dense(), np.stack([chi, np.zeros_like(chi)]))
print(f"k=3 relative supercharge Q_rel / sqrt(omega) vs 2 W+: max |diff| = {np.max(np.abs(q_r - q_ref)):.3e}")
