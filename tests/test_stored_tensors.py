"""Each structure tensor is stored once, as the matrix of its flat array.

A quasi-Hopf algebra holds m, Delta, Phi and Phi^-1, and an algebroid and
its base ring hold m, as sparse matrices whose dense row-major entries are
the flat arrays of the structure file.  The reversed structures (H^cop,
H^op and R^op) permute the entries of those matrices.  These tests compare
them with the flat-list formulas they replaced, kept below as the
reference, on the built-in parents with a few drawn scalars changed, so
that no symmetry of a tensor hides a leg put in the wrong place.  They also
parse each serialisation back: the stored matrices are equal, the arrays
are their entries in order, and serialising again gives the same bytes.
"""

import json
from functools import cache

from hypothesis import given, settings, strategies as st

from qha.algebroid import BaseRing, HopfAlgebroid, base_ring_dual_numbers, enveloping_algebroid
from qha.fields import prime_field
from qha.linalg import Matrix
from qha.quasihopf import (QuasiHopfAlgebra, cyclic_group_table, group_algebra,
                           symmetric_group_table, sweedler_h4, twisted_dual_group_algebra,
                           z2_nontrivial_cocycle, z3_nontrivial_cocycle)
from qha.structures import canonical_bytes, parse_document, serialize

from conftest import F5, QQ, base_ring_t2

F7 = prime_field(7)
FIELDS = (QQ, F5, F7)

# the tensors a reversal permutes, changed at drawn entries
QUASI_HOPF_TENSORS = ("mult", "comult", "phi", "phi_inv")
ALGEBROID_TENSORS = ("mult", "base_mult", "delta_l_lift", "delta_r_lift")
QUASI_HOPF_ARGS = ("mult", "unit", "comult", "counit", "antipode", "antipode_inv",
                   "phi", "phi_inv", "alpha", "beta")
ALGEBROID_ARGS = ("mult", "unit", "s_l", "t_l", "s_r", "t_r", "delta_l_lift",
                  "delta_r_lift", "eps_l", "eps_r", "antipode", "antipode_inv")


# -- the flat-list formulas, as the reference ---------------------------------------

def legs_reversed(flat, n):
    """An element of H^(x)3 with its legs in order 3, 2, 1."""
    return [flat[(z * n + y) * n + x] for x in range(n) for y in range(n) for z in range(n)]


def comult_cop(rows, n):
    """Every Delta(e_i) with its two legs exchanged."""
    return [[row[q * n + p] for p in range(n) for q in range(n)] for row in rows]


def opposite(flat, n):
    """An n^2 x n array with the two legs of its row index exchanged: the
    opposite multiplication of a.b = ba, or a coproduct lift with its legs
    flipped."""
    return [flat[(j * n + i) * n + k] for i in range(n) for j in range(n) for k in range(n)]


def flat(rows):
    return tuple(a for row in rows for a in row)


# -- the parents ----------------------------------------------------------------------

@cache
def parents(f):
    out = {"kC2": group_algebra(f, cyclic_group_table(2), "kC2"),
           "kS3": group_algebra(f, symmetric_group_table(3), "kS3"),
           "H4": sweedler_h4(f),
           "k^Z2_w": twisted_dual_group_algebra(f, cyclic_group_table(2),
                                                z2_nontrivial_cocycle(f), "k^Z2_w")}
    if f is F7:
        # GF(7) is the one field here with a primitive cube root of unity
        out["k^Z3_w"] = twisted_dual_group_algebra(f, cyclic_group_table(3),
                                                   z3_nontrivial_cocycle(f), "k^Z3_w")
    out["k[x]/(x^2)^e"] = enveloping_algebroid(base_ring_dual_numbers(f))
    out["T2^e"] = enveloping_algebroid(base_ring_t2(f))
    return out


CASES = [(f, name) for f in FIELDS for name in parents(f)]


def _changed(m: Matrix, changes) -> Matrix:
    """m with the entries at the drawn positions (taken modulo its size) set."""
    entries = list(m.entries)
    for pos, value in changes:
        entries[pos % len(entries)] = value
    return Matrix(m.field, m.rows, m.cols, entries)


def changed_parent(H, changes):
    """H rebuilt with its tensors changed at the entries of changes, a list
    of (tensor, position, value); the constructors check shapes only."""
    f, keys = H.field, (ALGEBROID_TENSORS if isinstance(H, HopfAlgebroid)
                        else QUASI_HOPF_TENSORS)
    by_key = {key: [(pos, v) for k, pos, v in changes if keys[k % len(keys)] == key]
              for key in keys}
    if isinstance(H, QuasiHopfAlgebra):
        args = {key: getattr(H, key) for key in QUASI_HOPF_ARGS}
        args.update({key: _changed(args[key], by_key[key]) for key in keys})
        return QuasiHopfAlgebra(f, H.dim, name=H.name, **args)
    R = H.base
    base = BaseRing(f, R.dim, _changed(R.mult, by_key["base_mult"]), R.unit, name=R.name)
    args = {key: getattr(H, key) for key in ALGEBROID_ARGS}
    args.update({key: _changed(args[key], by_key[key]) for key in keys if key in args})
    return HopfAlgebroid(base, H.dim, name=H.name, **args)


def scalar(f, num, den):
    return f.div(f.from_int(num), f.from_int(den))


changes_strategy = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10 ** 6),
                                      st.integers(-3, 3), st.integers(1, 3)), max_size=6)


def drawn(case, changes):
    f, name = case
    return changed_parent(parents(f)[name], [(k, pos, scalar(f, a, b))
                                             for k, pos, a, b in changes])


# -- the reversed structures --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), changes=changes_strategy)
def test_reversed_structures_equal_the_flat_list_formulas(case, changes):
    H = drawn(case, changes)
    n = H.dim
    if isinstance(H, QuasiHopfAlgebra):
        C = H.cop
        assert C.mult is H.mult
        assert C.comult.entries == flat(comult_cop(H.comult.row_list(), n))
        assert C.phi.entries == tuple(legs_reversed(H.phi_inv.entries, n))
        assert C.phi_inv.entries == tuple(legs_reversed(H.phi.entries, n))
        assert (C.antipode, C.antipode_inv) == (H.antipode_inv, H.antipode)
        assert C.cop.comult == H.comult and (C.cop.phi, C.cop.phi_inv) == (H.phi, H.phi_inv)
        return
    R, r = H.base, H.base.dim
    assert R.op.mult.entries == tuple(opposite(R.mult.entries, r))
    assert R.op.op.mult == R.mult
    assert H.op.mult.entries == tuple(opposite(H.mult.entries, n))
    assert H.op.base is R.op and H.cop.base is R.op
    assert (H.op.delta_l_lift, H.op.delta_r_lift) == (H.delta_r_lift, H.delta_l_lift)
    assert H.cop.mult is H.mult
    for key in ("delta_l_lift", "delta_r_lift"):
        assert getattr(H.cop, key).entries == tuple(opposite(getattr(H, key).entries, n))


# -- the structure file ----------------------------------------------------------------

def nested(array):
    """The scalars of a nested list, in order."""
    return [a for item in array for a in nested(item)] if isinstance(array, list) else [array]


def stored(H):
    """Every stored structure tensor and element of H, by key, and those of
    its base ring."""
    if isinstance(H, QuasiHopfAlgebra):
        return {key: getattr(H, key) for key in QUASI_HOPF_ARGS}
    return {"base": (H.base.mult, H.base.unit),
            **{key: getattr(H, key) for key in ALGEBROID_ARGS}}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), changes=changes_strategy)
def test_a_parsed_serialisation_stores_equal_matrices_and_writes_the_same_bytes(case, changes):
    H = drawn(case, changes)
    doc = serialize(H, H.name)
    text = canonical_bytes(doc)
    back = parse_document(json.loads(text))
    assert stored(back) == stored(H)
    assert canonical_bytes(serialize(back, H.name)) == text
    # each array in the file is the row-major entries of its stored matrix
    f = H.field
    for key in QUASI_HOPF_TENSORS if isinstance(H, QuasiHopfAlgebra) else ("mult",):
        assert nested(doc[key]) == [f.format(a) for a in getattr(H, key).entries]
    if isinstance(H, HopfAlgebroid):
        assert nested(doc["base"]["mult"]) == [f.format(a) for a in H.base.mult.entries]
