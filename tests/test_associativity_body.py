"""One body for the associativity constraint and one for the hom
associativity, for both parents.

``associativity`` and ``associativity_inverse`` are the action of Phi
(Phi^-1) on the ambient U (x) V (x) W, read between the carriers of the two
bracketings; ``hom_associativity`` is the three Phi-decorated maps of the
weak-center hexagon.  A parent gives them data only.  Over a quasi-Hopf
algebra there are no base relations, and the associativity maps are the
associator objects themselves.  Over a Hopf algebroid Phi = 1 (x) 1 (x) 1,
and the maps are the strict requotients and currying maps, written out
below as dense references.  Both satisfy Mac Lane's pentagon on their
carriers, and a Hopf algebra read as an algebroid over k has the same maps.
"""

import pytest

from qha import algebroid
from qha.linalg import Matrix, Subspace
from qha.quasihopf import (QuasiHopfAlgebra, associativity, associativity_inverse, associator,
                           associator_inverse, build_scope, hom_associativity, left_hom,
                           regular_module, right_hom, right_hom_carrier, tensor_module,
                           trivial_module)
from qha.algebroid import (HopfAlgebroid, algebroid_from_hopf, base_module,
                           module_tensor_relations)
from qha.coefficients import _nested
from qha.cyclic import _kron

from conftest import random_module

QUASI_HOPF = ["kc2_q", "kc2_f5", "ks3_q", "h4_q", "twisted_q", "twisted_f5", "twisted_z3_f7",
              "twisted_z3_skew_f7", "twisted_h4_q"]


def dense_eye(f, n):
    return Matrix(f, n, n, [f.one if i == j else f.zero for i in range(n) for j in range(n)])


def dense_kron(f, a, b):
    """The Kronecker product of a and b, entry by entry."""
    return Matrix(f, a.rows * b.rows, a.cols * b.cols,
                  [f.mul(a.get(i, j), b.get(k, l)) for i in range(a.rows) for k in range(b.rows)
                   for j in range(a.cols) for l in range(b.cols)])


def strict_requotients(U, V, W):
    """(U (x)_R V) (x)_R W -> U (x)_R (V (x)_R W) and back, through the
    ambient U (x) V (x) W: lift the source's outer relations, then its inner
    ones, project onto the target's inner relations, then its outer ones."""
    f = U.parent.field
    uv, vw = module_tensor_relations(U, V), module_tensor_relations(V, W)
    uv_w = module_tensor_relations(tensor_module(U, V), W)
    u_vw = module_tensor_relations(U, tensor_module(V, W))
    eye_u, eye_w = dense_eye(f, U.dim), dense_eye(f, W.dim)
    forward = (u_vw.projector * dense_kron(f, eye_u, vw.projector)
               * dense_kron(f, uv.lift, eye_w) * uv_w.lift)
    backward = (uv_w.projector * dense_kron(f, uv.projector, eye_w)
                * dense_kron(f, eye_u, vw.lift) * u_vw.lift)
    return forward, backward


def mwv_to_mvw(f, dm, dw, dv):
    """The permutation from (m, w, v)-ordered carriers to (m, v, w)-ordered ones."""
    size = dm * dw * dv
    target = {(m * dw + w) * dv + v: (m * dv + v) * dw + w
              for m in range(dm) for w in range(dw) for v in range(dv)}
    return Matrix(f, size, size, [f.one if target[c] == r else f.zero
                                  for r in range(size) for c in range(size)])


def currying_maps(V, W, M):
    """The strict maps of the hexagon: the hom out of V (x)_R W read on the
    ambient by precomposing with the lift, the reordering of the carrier,
    and precomposing with the projector."""
    f = M.parent.field
    rel = module_tensor_relations(V, W)
    perm = mwv_to_mvw(f, M.dim, W.dim, V.dim)
    eye_m = dense_eye(f, M.dim)
    return (dense_kron(f, eye_m, rel.lift.transpose()) * perm, perm,
            dense_kron(f, eye_m, rel.projector.transpose()))


def test_parents_give_data_not_algorithms():
    for cls in (QuasiHopfAlgebra, HopfAlgebroid):
        for name in ("associativity", "associativity_inverse", "hom_associativity", "tensor",
                     "phi_terms"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(algebroid, "requotient_associativity")
    assert not hasattr(algebroid, "requotient_associativity_inverse")


@pytest.mark.parametrize("name", QUASI_HOPF)
def test_quasi_hopf_associativity_is_the_associator_itself(name, request):
    H = request.getfixturevalue(name)
    reg, triv, rand = regular_module(H), trivial_module(H), random_module(H, 2, seed=5)
    with build_scope():
        for U, V, W in [(reg, triv, rand), (rand, reg, triv), (triv, rand, rand)]:
            assert associativity(U, V, W) is associator(U, V, W)
            assert associativity_inverse(U, V, W) is associator_inverse(U, V, W)


ALGEBROID_TRIPLES = {
    "env_f5": ["RrR", "rRr", "rrR", "rrr"],
    "env_q": ["Rrr", "rRR", "rrr"],
    "t2e_f5": ["rRr", "RrR", "rrR"],
}


def _triples(H, names):
    mods = {"r": regular_module(H), "R": base_module(H)}
    return [tuple(mods[c] for c in t) for t in names]


@pytest.mark.parametrize("name", sorted(ALGEBROID_TRIPLES))
def test_algebroid_maps_are_the_strict_requotients_and_currying_maps(name, request):
    H = request.getfixturevalue(name)
    for U, V, W in _triples(H, ALGEBROID_TRIPLES[name]):
        forward, backward = strict_requotients(U, V, W)
        assert associativity(U, V, W) == forward
        assert associativity_inverse(U, V, W) == backward
        assert hom_associativity(U, V, W) == currying_maps(U, V, W)


def pentagon_sides(U, V, W, X):
    """The two ways from ((U V) W) X to U (V (W X)) on the quotient
    carriers: a_(U,V,WX) a_(UV,W,X), and (id (x) a_(V,W,X)) a_(U,VW,X)
    (a_(U,V,W) (x) id), each id (x) a through its relation spaces."""
    H = U.parent
    f, rel = H.field, H.tensor_relations
    UV, VW, WX = tensor_module(U, V), tensor_module(V, W), tensor_module(W, X)
    UV_W, U_VW = tensor_module(UV, W), tensor_module(U, VW)
    VW_X, V_WX = tensor_module(VW, X), tensor_module(V, WX)
    lhs = associativity(U, V, WX) * associativity(UV, W, X)
    rhs = (_kron(Matrix.identity(f, U.dim), associativity(V, W, X), rel(U, VW_X), rel(U, V_WX))
           * associativity(U, VW, X)
           * _kron(associativity(U, V, W), Matrix.identity(f, X.dim), rel(UV_W, X),
                   rel(U_VW, X)))
    return lhs, rhs


PENTAGONS = {
    "twisted_q": ["rrrr", "rsrs"],
    "twisted_z3_skew_f7": ["rrrr", "srrs"],
    "twisted_h4_q": ["rrrr", "rsrr"],
    "env_f5": ["rRrR", "RrrR", "rrRr"],
    "t2e_f5": ["RrRR", "rRRr"],
}


@pytest.mark.parametrize("name", sorted(PENTAGONS))
def test_mac_lane_pentagon_on_quotient_carriers(name, request):
    H = request.getfixturevalue(name)
    if isinstance(H, QuasiHopfAlgebra):
        mods = {"r": regular_module(H), "s": random_module(H, 2, seed=3)}
    else:
        mods = {"r": regular_module(H), "R": base_module(H)}
    with build_scope():
        for word in PENTAGONS[name]:
            lhs, rhs = pentagon_sides(*(mods[c] for c in word))
            assert lhs == rhs, word


@pytest.mark.parametrize("name", ["kc2_q", "kc2_f5", "h4_q", "ks3_q"])
def test_a_hopf_algebra_and_its_algebroid_have_the_same_maps(name, request):
    Hq = request.getfixturevalue(name)
    Ha = algebroid_from_hopf(Hq)
    quasi = {"r": regular_module(Hq), "k": trivial_module(Hq)}
    over_k = {"r": regular_module(Ha), "k": base_module(Ha)}
    assert all(quasi[c].mats == over_k[c].mats for c in "rk")
    for word in ("rrr", "kkk", "rkr", "krk"):
        a, b = ([mods[c] for c in word] for mods in (quasi, over_k))
        assert associativity(*a) == associativity(*b)
        assert associativity_inverse(*a) == associativity_inverse(*b)
        assert hom_associativity(*a) == hom_associativity(*b)


@pytest.mark.parametrize("name", ["twisted_q", "env_q"])
def test_nested_carriers_match_the_elimination(name, request):
    """The nested carriers of the hexagon, read off their factors with no
    elimination, are the subspaces that row reduction of the embedded
    basis gives, pivots included."""
    H = request.getfixturevalue(name)
    f = H.field
    reg, unit = regular_module(H), H.unit_object()
    partial = 0
    for V, W, M in [(reg, reg, unit), (reg, unit, reg), (unit, reg, reg), (reg, reg, reg)]:
        (hlw, cwl), (hrw, cwr) = left_hom(W, M), right_hom(W, M)
        (hlv, cvl), (hrv, cvr) = left_hom(V, M), right_hom(V, M)
        d1, d2 = H.hom_carrier(V, hlw), H.hom_carrier(V, hrw)
        d3, d4 = right_hom_carrier(W, hlv), right_hom_carrier(W, hrv)
        for outer, inner, dim in ((cwr, d2, V.dim), (cvl, d3, W.dim),
                                  (cvr, d4, W.dim), (cwl, d1, V.dim)):
            emb = outer.basis_matrix().kron(Matrix.identity(f, dim)) * inner.basis_matrix()
            want = Subspace.row_space(emb.transpose())
            got = _nested(outer, inner, dim)
            assert got == want and got.pivots() == want.pivots()
            partial += outer.dim < outer.ambient_dim
    # over the algebroid the outer carriers are proper subspaces
    assert partial > 0 if name == "env_q" else partial == 0
