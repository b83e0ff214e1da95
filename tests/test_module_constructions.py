"""Module constructions against dense references.

Every construction below is a short sum of Kronecker products of action
matrices.  The references build each term as a dense matrix and add them
one by one, straight from the defining formulas.
"""

import pytest

from qha.linalg import Matrix, stack_of_maps
from qha.quasihopf import (QuasiHopfAlgebra, regular_module, trivial_module, tensor_module,
                           associator, associator_inverse, associativity, associativity_inverse,
                           hom_associativity, left_hom, right_hom, zeta_l,
                           element_legs, hom_module_morphisms, eval_left, group_algebra,
                           cyclic_group_table, StructureError)
from qha.algebroid import (base_ring_dual_numbers, enveloping_algebroid,
                           base_module, tensor_over_base,
                           module_tensor_relations, left_hom_algebroid,
                           right_linear_hom_basis)

from conftest import F5, random_module, random_intertwiner


def dense_act(V, vec):
    f = V.parent.field
    out = Matrix.zeros(f, V.dim, V.dim)
    for i, c in enumerate(vec):
        out = out + V.mats[i].scale(c)
    return out


def dense_tensor_actions(V, W, terms):
    """a . (v (x) w) = a^1 v (x) a^2 w, one matrix per basis element a."""
    H = V.parent
    d = V.dim * W.dim
    mats = []
    for i in range(H.dim):
        m = Matrix.zeros(H.field, d, d)
        for c, p, q in terms(i):
            m = m + dense_act(V, H.basis(p)).kron(dense_act(W, H.basis(q))).scale(c)
        mats.append(m)
    return mats


def dense_associator(V, W, U):
    H = V.parent
    d = V.dim * W.dim * U.dim
    out = Matrix.zeros(H.field, d, d)
    for (x, y, z), c in element_legs(H.phi, H.dim, 3).items():
        out = out + V.mats[x].kron(W.mats[y]).kron(U.mats[z]).scale(c)
    return out


def dense_hom_actions(V, M, terms, antipode):
    """h . phi = h^1 phi(S(h^2) -) on Hom_k(V, M), row-major."""
    H = V.parent
    d = M.dim * V.dim
    mats = []
    for i in range(H.dim):
        m = Matrix.zeros(H.field, d, d)
        for c, p, q in terms(i):
            pre = dense_act(V, antipode(H.basis(q))).transpose()
            m = m + dense_act(M, H.basis(p)).kron(pre).scale(c)
        mats.append(m)
    return mats


def dense_zeta_l(f_mat, M, N, L):
    """f |-> (m |-> f(P m (x) Q beta S(R) -)), read off column by column."""
    H = M.parent
    d = M.dim * N.dim
    kmat = Matrix.zeros(H.field, d, d)
    for (p, q, r), c in element_legs(H.phi_inv, H.dim, 3).items():
        nq = dense_act(N, H.prod(H.basis(q), H.beta, H.antipode.apply(H.basis(r))))
        kmat = kmat + dense_act(M, H.basis(p)).kron(nq).scale(c)
    g = f_mat * kmat
    # the value at e_i is the map e_b |-> g(e_i (x) e_b), at index a*dN + b
    return Matrix.from_rows(H.field, [[g.get(a, i * N.dim + b) for i in range(M.dim)]
                                      for a in range(L.dim) for b in range(N.dim)])


def dense_phi_decorated(V, W, M, legs):
    H = V.parent
    d = M.dim * V.dim * W.dim
    out = Matrix.zeros(H.field, d, d)
    for xyz, c in element_legs(H.phi, H.dim, 3).items():
        m, v, w = (xyz[k] for k in legs)
        pv = dense_act(V, H.antipode.apply(H.basis(v))).transpose()
        pw = dense_act(W, H.antipode.apply(H.basis(w))).transpose()
        out = out + M.mats[m].kron(pv).kron(pw).scale(c)
    return out


def swap_mw_v(f, d, dw, dv):
    """The permutation from (m, w, v)-ordered carriers to (m, v, w)-ordered ones."""
    size = d * dw * dv
    cols = []
    for m in range(d):
        for w in range(dw):
            for v in range(dv):
                col = [f.zero] * size
                col[(m * dv + v) * dw + w] = f.one
                cols.append(col)
    return Matrix.from_cols(f, cols, ambient=size)


@pytest.fixture(params=["h4_q", "twisted_q", "twisted_z3_f7", "twisted_z3_skew_f7",
                        "twisted_h4_q"])
def quasi(request):
    H = request.getfixturevalue(request.param)
    return H, [regular_module(H), trivial_module(H), random_module(H, 3, seed=7)]


def test_quasi_hopf_constructions_match_dense_references(quasi):
    H, (reg, triv, rand) = quasi
    pairs = [(reg, rand), (rand, reg), (rand, triv), (triv, reg)]
    for V, W in pairs:
        assert list(tensor_module(V, W).mats) == \
            dense_tensor_actions(V, W, H.delta_legs.__getitem__)
        assert list(left_hom(V, W)[0].mats) == \
            dense_hom_actions(V, W, H.delta_legs.__getitem__, H.antipode.apply)
        assert dense_act(V, H.beta) == V.act(H.beta)
    for U, V, W in [(reg, rand, triv), (rand, reg, rand), (triv, triv, reg)]:
        assert associator(U, V, W) == dense_associator(U, V, W)


def test_associativity_maps_compose_to_the_identity(quasi):
    H, (reg, triv, rand) = quasi
    for U, V, W in [(reg, rand, triv), (rand, reg, rand), (triv, triv, reg)]:
        fwd, back = associativity(U, V, W), associativity_inverse(U, V, W)
        assert back == associator_inverse(U, V, W)
        eye = Matrix.identity(H.field, fwd.rows)
        assert fwd * back == eye and back * fwd == eye


@pytest.mark.parametrize("name", ["env_f5", "t2e_f5"])
def test_algebroid_associativity_maps_compose_to_the_identity(name, request):
    H = request.getfixturevalue(name)
    reg, base = regular_module(H), base_module(H)
    for U, V, W in [(reg, reg, base), (base, reg, reg), (reg, base, reg), (reg, reg, reg)]:
        fwd, back = associativity(U, V, W), associativity_inverse(U, V, W)
        assert (back.rows, back.cols) == (fwd.cols, fwd.rows) and fwd.rows == fwd.cols
        eye = Matrix.identity(H.field, fwd.rows)
        assert fwd * back == eye and back * fwd == eye


@pytest.mark.parametrize("name", ["kc2_q", "h4_q", "twisted_q", "env_q", "env_f5", "t2e_f5"])
def test_one_unit_object_per_parent(name, request):
    """The unit object is one module per parent, equal on every call, and
    is the module the unit constructor makes; H^cop, another parent, has
    its own."""
    H = request.getfixturevalue(name)
    unit = H.unit_object()
    assert unit == H.unit_object()
    assert unit.parent is H
    made = trivial_module(H) if isinstance(H, QuasiHopfAlgebra) else base_module(H)
    assert unit.mats == made.mats
    assert H.cop.unit_object() == H.cop.unit_object()
    assert H.cop.unit_object() != unit


def test_zeta_l_matches_dense_reference(quasi):
    H, (reg, triv, rand) = quasi
    checked = 0
    for M, N, L in [(reg, rand, reg), (rand, reg, rand), (reg, reg, triv)]:
        f_mat = random_intertwiner(tensor_module(M, N), L, seed=3)
        if f_mat is not None:
            dense = dense_zeta_l(f_mat, M, N, L)
            assert zeta_l(stack_of_maps(f_mat, L.dim), M, N, L) == stack_of_maps(dense, dense.rows)
            checked += 1
    assert checked >= 2


def test_phi_decorated_associativity_maps_match_dense_references(quasi):
    H, (reg, triv, rand) = quasi
    f = H.field
    for V, W, M in [(reg, rand, triv), (rand, reg, rand), (triv, reg, reg)]:
        perm = swap_mw_v(f, M.dim, W.dim, V.dim)
        assert hom_associativity(V, W, M) == (
            dense_phi_decorated(V, W, M, (0, 2, 1)) * perm,
            dense_phi_decorated(V, W, M, (1, 2, 0)) * perm,
            dense_phi_decorated(V, W, M, (2, 1, 0)))


def test_algebroid_constructions_match_dense_references():
    H = enveloping_algebroid(base_ring_dual_numbers(F5))
    reg, base = regular_module(H), base_module(H)
    for M, N in [(reg, base), (base, reg), (base, base), (reg, reg)]:
        mod, rel = tensor_over_base(M, N)
        assert rel == module_tensor_relations(M, N)
        amb = dense_tensor_actions(M, N, H.delta_l_legs.__getitem__)
        assert list(mod.mats) == [rel.projector * a * rel.lift for a in amb]

        hom, basis = left_hom_algebroid(M, N)
        assert basis == right_linear_hom_basis(M, N)
        full = dense_hom_actions(M, N, H.delta_r_legs.__getitem__, H.antipode.apply)
        assert list(hom.mats) == [basis.coordinate_matrix(m * basis.basis_matrix())
                                  for m in full]


@pytest.mark.parametrize("which", ["quasi-Hopf", "algebroid"])
def test_cop_view_is_kept_once_per_module(which, twisted_q):
    if which == "quasi-Hopf":
        H = twisted_q
        V, M = regular_module(H), trivial_module(H)
    else:
        H = enveloping_algebroid(base_ring_dual_numbers(F5))
        V, M = regular_module(H), base_module(H)
    assert V.cop is V.cop
    assert V.cop.parent is V.parent.cop
    assert type(V.cop) is type(V) and V.cop.mats is V.mats
    assert V.cop.action is V.action
    # the right-hand maps read the same views, so their actions are built once
    right_hom(V, M)
    views = (V.cop, M.cop)
    actions = [X.action for X in views]
    right_hom(V, M)
    assert (V.cop, M.cop) == views
    assert all(X.action is a for X, a in zip(views, actions))


# -- factors over two parents --------------------------------------------------------
#
# Two parents built alike are still two parents: every construction that
# builds actions or maps from the structure of one parent refuses factors
# over another, and names itself in the error.

@pytest.mark.parametrize("construction, what", [
    (tensor_module, "tensor"),
    (lambda V, W: associator(V, V, W), "associator"),
    (hom_module_morphisms, "hom"),
    (left_hom, "hom"),
    (eval_left, "evaluation"),
    (tensor_over_base, "tensor over the base"),
], ids=["tensor_module", "associator", "hom_module_morphisms", "left_hom", "eval_left",
        "tensor_over_base"])
def test_factors_over_two_parents_are_refused(construction, what):
    if construction is tensor_over_base:
        parents = [enveloping_algebroid(base_ring_dual_numbers(F5)) for _ in range(2)]
    else:
        parents = [group_algebra(F5, cyclic_group_table(2), "kC2") for _ in range(2)]
    V, W = (regular_module(H) for H in parents)
    with pytest.raises(StructureError, match="^%s factors must share a parent$" % what):
        construction(V, W)
