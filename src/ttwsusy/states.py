"""Catalog states and their analytic evaluation as spinor fields.

A catalog state is a finite linear combination of factorized basis
functions closed under the action of all eight superalgebra
generators.  Each term is labelled by (N, n, occ):

    occ 0 (vacuum):   Z_N^((2n+a+b)k)(z)          Phi_n^(a,b)(phi)        |00>
    occ 1 (xbar):     z^(-1/2) Z_N^((2n+a+b)k)(z) Phi_n^(a,b)(phi)        bdag_xbar|0>
    occ 2 (ybar):     z^(-1/2) Z_N^((2n+a+b)k)(z) Phi_{n-1}^(a+1,b+1)     bdag_ybar|0>
    occ 3 (xbar ybar):          Z_N^((2n+a+b)k)(z) Phi_{n-1}^(a+1,b+1)    bdag_xbar bdag_ybar|0>

where Z and Phi are the normalized radial/angular factors.  The
occupation fixes the (a,b) -> (a+1,b+1) shift of the angular factor;
terms with a negative radial or angular index are the zero function
(the ladder expansions use that sentinel implicitly).  A
``CatalogState`` holds its terms as ``irreps`` writes them from the
closed forms; no state is composed from others by catalog arithmetic,
and a state's fermion parity is its basis tower's
(``irreps.BasisState.parity``).

Because the barred fermion modes depend on phi, a term's fixed-basis
spinor components pick up cos(phi)/sin(phi) factors, and the angular
derivative acts on those too.  A state's bundle holds the exact values
and first/second polar derivatives of every fixed-basis component on a
set of sample points; the generator module applies its differential
operators to these bundles, so there is no discretization error
anywhere.

Every term is a radial factor (a function of r alone) times an angular
spinor factor (angular factor times fermion trig, a function of phi
alone).  ``FactorTable.expand`` is the one place that groups terms by
factor key and evaluates the factors, through
``model.radial_levels``/``angular_parts``, on any broadcastable pair
(r, phi): it writes each group of states it is given as a coefficient
array over (radial key, angular key) pairs plus the factor arrays.
Radial factors are evaluated once per call, every level of a sector,
with and without the one-fermion z^(-1/2), from one Laguerre pass, and
kept by no one after it.  The angular factors of ``angular_parts``, 1-D
functions of phi, are kept read-only on the table's angular row
(``model.AngularRow``): a table on any points has a row of its own, and
a grid's table (``FactorTable.on``, also on several grids of one set at
once) reads the row that every grid of its parameter set shares, so
each is evaluated once per set in a process.  The row also keeps the
one (cos phi, sin phi) pair that the one-fermion trig is made of.
``expand`` writes every angular spinor factor, the fermion trig times
an angular factor, in place in each call, and no one keeps it.
``FactorTable.bundles``/``fields`` contract one call, a state per
group, broadcast over the table's points; ``generators`` contracts the
groups of row and column states with 1-D Gauss sums.
Equal-shape arrays sample scattered points; a grid's ``(grid.r,
grid.phi)``, a column of radial nodes against a row of angular nodes,
samples the whole tensor grid while evaluating each factor on the 1-D
nodes only.  ``generators.apply_operators`` applies operators to a
table's bundles; ``state_bundle``/``state_field`` build a one-shot
table.

A table's fields and bundles are compact: one row per fixed-basis
component the state reaches, listed in its ``reached`` tuple, of shape
(len(reached), *broadcast shape).  A zero- or two-fermion state reaches
one component and a one-fermion state two, so an 80 x 80 grid field
takes 51 or 102 KB instead of the 205 KB of all four rows.
``SpinorField.dense`` and ``StateBundle.dense`` give the (4, *broadcast
shape) arrays, the unreached rows zero, for the consumers that need all
four (the cartesian special cases and the one-shot helpers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AngularRow, Grid, ModelParams, angular_parts, radial_levels

__all__ = [
    "CatalogState",
    "CatalogTerm",
    "FactorTable",
    "OCC_VAC",
    "OCC_XBAR",
    "OCC_XYBAR",
    "OCC_YBAR",
    "SpinorField",
    "StateBundle",
    "state_bundle",
    "state_field",
]

OCC_VAC, OCC_XBAR, OCC_YBAR, OCC_XYBAR = 0, 1, 2, 3

FERMION_NUMBER = {OCC_VAC: 0, OCC_XBAR: 1, OCC_YBAR: 1, OCC_XYBAR: 2}

# (a,b) shift of the angular factor per occupation, following the ladder expansions
_OCC_SHIFT = {OCC_VAC: 0, OCC_XBAR: 0, OCC_YBAR: 1, OCC_XYBAR: 1}


@dataclass(frozen=True)
class CatalogTerm:
    coeff: float
    N: int
    n: int
    occ: int

    @property
    def angular_index(self) -> int:
        return self.n - _OCC_SHIFT[self.occ]

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0.0 or self.N < 0 or self.angular_index < 0


def term(coeff: float, N: int, n: int, occ: int) -> CatalogTerm:
    return CatalogTerm(float(coeff), N, n, occ)


@dataclass(frozen=True)
class CatalogState:
    """Finite linear combination of catalog terms (immutable), its terms
    as they are written: ``irreps`` writes every state it needs straight
    from the closed forms, so states are not added or scaled here."""

    terms: tuple[CatalogTerm, ...]

    @classmethod
    def of(cls, *terms_: CatalogTerm) -> "CatalogState":
        return cls(tuple(t for t in terms_ if not t.is_zero))

    @property
    def is_zero(self) -> bool:
        return all(t.is_zero for t in self.terms)


# every fixed-basis component, in order
ALL_COMPONENTS = (0, 1, 2, 3)


@dataclass(frozen=True)
class SpinorField:
    """A fixed-basis spinor field as one row per component it reaches:
    ``rows[i]`` is component ``reached[i]``, and every other component is
    zero.  ``reached`` is sorted; it may be empty."""

    rows: np.ndarray
    reached: tuple[int, ...]

    def on(self, components: tuple[int, ...]) -> np.ndarray:
        """The rows of the sorted ``components``, zero where the field
        does not reach; the rows themselves when they are those
        components."""
        if components == self.reached:
            return self.rows
        out = np.zeros((len(components), *self.rows.shape[1:]))
        for i, c in enumerate(components):
            if c in self.reached:
                out[i] = self.rows[self.reached.index(c)]
        return out

    def dense(self) -> np.ndarray:
        """The field as a (4, *shape) array."""
        return self.on(ALL_COMPONENTS)


@dataclass
class StateBundle:
    """Values and polar derivatives of a state's fixed-basis components,
    each array one row per component of ``reached`` (as in
    ``SpinorField``); every other component is zero with its
    derivatives."""

    val: np.ndarray
    d_r: np.ndarray
    d_rr: np.ndarray
    d_phi: np.ndarray
    d_phiphi: np.ndarray
    reached: tuple[int, ...] = ALL_COMPONENTS

    @property
    def field(self) -> SpinorField:
        """The values as a ``SpinorField``."""
        return SpinorField(self.val, self.reached)

    def dense(self) -> "StateBundle":
        """The bundle with all four rows of each array."""
        arrays = (self.val, self.d_r, self.d_rr, self.d_phi, self.d_phiphi)
        return StateBundle(*(SpinorField(a, self.reached).dense() for a in arrays))


def _occupation_trig(occ: int, row: AngularRow):
    """Nonzero fixed-basis components as (index, t, t', t'') triples on the
    angles of ``row``; a constant t is a float, which multiplies to the
    same bits as an array of it, and the arrays share each of cos, sin
    and their negatives, the (cos, sin) pair formed once per row."""
    if occ == OCC_VAC:
        return [(0, 1.0, 0.0, 0.0)]
    if occ == OCC_XYBAR:
        # bdag_xbar bdag_ybar|0> = bdag_x bdag_y|0> for every phi
        return [(3, 1.0, 0.0, 0.0)]
    c, s = row.value(("trig",), lambda: (np.cos(row.phi), np.sin(row.phi)))
    nc, ns = -c, -s
    if occ == OCC_XBAR:
        return [(1, c, ns, nc), (2, s, c, ns)]
    if occ == OCC_YBAR:
        return [(1, ns, nc, s), (2, c, ns, nc)]
    raise ValueError(f"unknown occupation {occ}")


class FactorTable:
    """One set of points at which states are expanded and sampled.

    ``r`` is the oscillator radius rho = sqrt(omega) r_phys, in which the
    factors of ``model`` take no omega, and the fields are in ``model``'s
    oscillator units.  ``r`` and ``phi`` are any broadcastable pair:
    equal-shape arrays for scattered points, or a grid's column of radial
    nodes and row of angular nodes (``grid.r``, ``grid.phi``), in which
    case fields come out on the whole tensor grid while every factor is
    evaluated on the 1-D nodes only.  ``expand`` evaluates the factors of the groups of
    states it is given, keyed without the term coefficient, so states
    sharing basis functions share their evaluation within the call,
    whatever group they are in.  The table keeps no factor between
    calls: the radial factors and the angular spinor factors die with
    the call.  ``row`` keeps the 1-D functions of phi they are formed
    from, and the operators' term tables: a row of the table's own, or,
    for ``FactorTable.on(grid)``, the one row every grid of the set
    shares.  ``bundles``/``fields`` contract one call a state at a time.
    """

    def __init__(self, params: ModelParams, r, phi):
        params.require_interior(r, phi)
        self.params = params
        self.r = np.asarray(r, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        self.shape = np.broadcast_shapes(self.r.shape, self.phi.shape)
        # keeps the angular functions of phi: the table's own, or its grid's set's (``on``)
        self.row = AngularRow(self.phi)
        # operator term tables on these points, built and read by generators
        self.operators: dict[str, list] = {}

    @classmethod
    def on(cls, *grids: Grid) -> "FactorTable":
        """The table on a grid's radial column and angular row, whose
        angular functions the set's row keeps (``model.AngularRow``).
        Given several grids of one set, which share that row, the table's
        radial column is theirs stacked in order, so that one expansion,
        with one radial pass per sector, serves every grid: grid i's
        radial factors are the rows of its own nodes."""
        row = grids[0].angular
        if any(grid.angular is not row for grid in grids):
            raise ValueError("the grids of one table must share their angular row")
        table = cls(grids[0].params, np.concatenate([grid.r for grid in grids]) if len(grids) > 1 else grids[0].r, row.phi)
        table.row = row
        return table

    def expand(self, *groups: list[CatalogState]):
        """Expand each group of states over products of the table's factors,
        as one (C, R, S) per group, made when the iteration reaches it:
        C (states, radial keys, angular keys) holds each state's coefficient
        per (radial factor, angular spinor factor) pair, R (3, *r.shape,
        radial keys) the radial factors and S (3, angular keys, 4,
        *phi.shape) the angular spinor factors S = t A, the fermion trig t
        of the occupation times the angular factor A, each with their first
        two derivatives.  A radial key is (N, n, one-fermion), an angular
        key (occ, angular index); a group's keys are its own, in the order
        its terms first name them.  Every level of a sector n, with and
        without the one-fermion z^(-1/2), comes from one ``radial_levels``
        pass up to the highest N any group asks for of either (the keys'
        columns of R copied out of it at once), and each (shift, angular
        index) from one ``angular_parts`` call for the table's ``row`` (so
        one per set on a grid); C is filled by one ``np.add.at``; S is written
        in place from the row's angular factors in every call; a
        group's arrays are C-contiguous and equal to the last bit to those
        of a call with that group alone.  The factors are the normalized
        ones of ``model``, so C holds the catalog coefficients as they
        are."""
        rad_keys: dict[tuple, int] = {}
        ang_keys: dict[tuple, int] = {}
        # per group: its size, its keys (the call's indices, in the group's order) and its (state, key, key, coeff) entries by group index
        own = []
        for states in groups:
            rad, ang, entries = {}, {}, []
            for i, st in enumerate(states):
                for t in st.terms:
                    if not t.is_zero:
                        rk = rad_keys.setdefault((t.N, t.n, FERMION_NUMBER[t.occ] == 1), len(rad_keys))
                        ak = ang_keys.setdefault((t.occ, t.angular_index), len(ang_keys))
                        entries.append((i, rad.setdefault(rk, len(rad)), ang.setdefault(ak, len(ang)), t.coeff))
            own.append((len(states), list(rad), list(ang), entries))
        # per sector n, its keys as (call index, N, one-fermion)
        by_sector: dict[int, list] = {}
        for j, (N, n, one_fermion) in enumerate(rad_keys):
            by_sector.setdefault(n, []).append((j, N, one_fermion))
        R = np.empty((3, *self.r.shape, len(rad_keys)))
        for n, keys in by_sector.items():
            # one pass for the sector's flags, up to the highest N any of its keys asks for
            flags = tuple(sorted({one for _, _, one in keys}))
            for flag, parts in zip(flags, radial_levels(self.params, max(N for _, N, _ in keys), n, self.r, flags)):
                columns, levels = (list(c) for c in zip(*((j, N) for j, N, one in keys if one == flag)))
                R[..., columns] = np.moveaxis(np.stack(parts)[:, levels], 1, -1)
        S = np.zeros((3, len(ang_keys), 4, *self.phi.shape))
        for a, (occ, m) in enumerate(ang_keys):
            self._spinor_factor(occ, m, S[:, a])
        for size, rad, ang, entries in own:
            C = np.zeros((size, len(rad), len(ang)))
            if entries:
                i, rk, ak, c = zip(*entries)
                # entry by entry, in order, as a loop of C[i, rk, ak] += c adds them
                np.add.at(C, (i, rk, ak), c)
            # C-contiguous copies, as a call with this group alone makes: fancy-index slices are not, and move BLAS sums' last bits
            yield C, np.take(R, rad, axis=-1), np.take(S, ang, axis=1)

    def _spinor_factor(self, occ: int, m: int, out: np.ndarray) -> None:
        """Write into ``out``, a zero (3, 4, *phi.shape) array, the angular
        spinor factor of occupation ``occ`` and angular index ``m`` and its
        first two derivatives: the fermion trig t of the occupation times
        the angular factor A of ``angular_parts``, which the table's row
        keeps."""
        shift = _OCC_SHIFT[occ]
        A0, A1, A2 = self.row.value(("parts", shift, m), lambda: angular_parts(self.params, m, self.phi, shift))
        for idx, t, t1, t2 in _occupation_trig(occ, self.row):
            out[:, idx] = t * A0, t1 * A0 + t * A1, t2 * A0 + 2.0 * t1 * A1 + t * A2

    def _contractions(self, states: list[CatalogState], orders):
        """Per state, its fields for each (radial, angular) derivative order
        of ``orders``, each one row per component some term reaches, of
        shape (len(reached), *broadcast shape), and those components, one
        state at a time from one ``expand`` with each state its own group.
        A state's sums run over its own keys in its own order, as a loop
        over its terms does, so its fields are the same to the last bit
        whatever states share the call."""
        for C, R, S in self.expand(*([st] for st in states)):
            coeff = C[0].reshape(C.shape[1], 1, C.shape[2], *(1,) * self.phi.ndim)
            spinors = S[: 1 + max(d for _, d in orders)]
            reached = tuple(idx for idx in range(4) if spinors[:, :, idx].any())
            out = [np.empty((len(reached), *self.shape)) for _ in orders]
            for row, idx in enumerate(reached):
                # per radial key, its coefficient-weighted angular spinor factors
                weighted = np.sum(coeff * spinors[None, :, :, idx], axis=2)
                # radial keys one at a time, like a loop over the terms: a
                # BLAS contraction would reorder the sums' last bits; the
                # first key's products are written in place, not added to zeros
                for j in range(len(coeff)):
                    for o, (d_r, d_phi) in zip(out, orders):
                        if j:
                            o[row] += R[d_r, ..., j] * weighted[j, d_phi]
                        else:
                            np.multiply(R[d_r, ..., j], weighted[j, d_phi], out=o[row])
            yield out, reached

    def bundles(self, states: list[CatalogState]):
        """Each state's exact values and polar derivatives of the
        components it reaches, as a compact ``StateBundle`` per state, made
        when the iteration reaches it."""
        for fields, reached in self._contractions(states, ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))):
            yield StateBundle(*fields, reached)

    def fields(self, states: list[CatalogState]):
        """Each state as a compact ``SpinorField``, made when the iteration
        reaches it."""
        for (field,), reached in self._contractions(states, ((0, 0),)):
            yield SpinorField(field, reached)


def state_bundle(state: CatalogState, params: ModelParams, r, phi) -> StateBundle:
    """Exact values and polar derivatives of the state's components at the
    broadcastable points (r, phi), each of shape (4, *broadcast shape):
    the ``dense`` form of its table bundle.

    Equal-shape r and phi sample scattered points; a column of radial
    nodes against a row of angular nodes samples the tensor grid they
    span, with every factor evaluated on the 1-D nodes (see
    ``FactorTable``)."""
    return next(FactorTable(params, r, phi).bundles([state])).dense()


def state_field(state: CatalogState, params: ModelParams, r, phi) -> np.ndarray:
    """Sample the state as a (4, *broadcast shape) fixed-basis spinor field
    at the broadcastable points (r, phi), the ``dense`` form of its table
    field; see ``FactorTable``."""
    return next(FactorTable(params, r, phi).fields([state])).dense()
