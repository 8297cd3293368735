"""The k = 1, 2, 3 cartesian constructions against the polar realization.

Each case applies the cartesian supersymmetrized Hamiltonian and
supercharge to generic test spinors at random interior points and
compares with the polar-coordinate operators; the three-particle case
additionally splits into relative + centre-of-mass parts.
"""

import numpy as np

from ttwsusy import ModelParams, apply_operator, state_bundle, zero_fermion_state
from ttwsusy.irreps import one_fermion_state
from ttwsusy.special_cases import (
    CatalogTestSpinor,
    bc2_super,
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
    for st in (CatalogTestSpinor(zero_fermion_state(p, 1, 1)), random_polygauss(rng, p.omega)):
        cart = st.cart_data(p, r, phi)
        h_c, q_c = cart_fn(p, cart, x, y)
        # the same operator assembly for catalog states and random spinors
        bundle = st.polar_bundle(p, r, phi)
        h_p = apply_operator("Hs", bundle, p, r, phi)
        q_p = apply_operator("Q", bundle, p, r, phi)
        worst = max(worst, np.max(np.abs(h_c - h_p)) / np.max(np.abs(h_p)), np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1))
    print(f"{title}: max relative deviation over 200 random points = {worst:.3e}")


compare(ModelParams(k=1.0, a=1.0, b=1.0), sw_super, "k=1 separable oscillator")
compare(ModelParams(k=2.0, a=1.5, b=2.5), bc2_super, "k=2 pair/axis model     ")

p3 = ModelParams(k=3.0, a=2.0, b=2.0)
r = rng.uniform(0.5, 2.0, 200)
phi = rng.uniform(0.08, 0.92, 200) * p3.phi_max
X = rng.uniform(-1.5, 1.5, 200)
data = make_cmw_test_state(random_polygauss(rng, p3.omega), rng.uniform(-1, 1, (2, 3)), p3, r, phi, X)
h_f, q_f = cmw_super(p3, data)
h_r, q_r = cmw_rel_super(p3, data)
h_c, q_c = cm_super(p3, data)
print(f"k=3 three-particle split: |Hs - Hs_rel - Hs_cm| = {np.max(np.abs(h_f - h_r - h_c)):.3e}, "
      f"|Q - Q_rel - Q_cm| = {np.max(np.abs(q_f - q_r - q_c)):.3e}")

st = zero_fermion_state(p3, 2, 1)
cm_vac = np.zeros((2, 2))
cm_vac[0, 0] = 1.0
chi = np.exp(-0.5 * p3.omega * X**2)
data = make_cmw_test_state(CatalogTestSpinor(st), cm_vac, p3, r, phi, X)
h_r, q_r = cmw_rel_super(p3, data)
q_p = apply_operator("Q", state_bundle(st, p3, r, phi), p3, r, phi)
q_ref = embed_product_values(q_p, np.stack([chi, np.zeros_like(chi)]))
print(f"k=3 relative supercharge vs 2 sqrt(omega) W+: max |diff| = {np.max(np.abs(q_r - q_ref)):.3e}")
