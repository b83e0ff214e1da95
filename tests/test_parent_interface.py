"""The interface a parent gives the shared tensor product and biclosed layer.

Base relations and hom carriers are subspaces for both parents: over a
quasi-Hopf algebra the zero subspace, whose projector and lift are
``Matrix.identity`` itself, and the full one.  One body, ``tensor_module``,
builds V (x) W for both parents from their ``tensor_legs`` and relations;
``tensor_over_base`` is that body with its own parent check.  Each parent
gives zeta^l the map it precomposes with on M (x) N and eta^l
the map it applies to the carrier of Hom^l(N, L), always as a Matrix: over
a quasi-Hopf algebra the Phi-decoration and eval_left curried, over a Hopf
algebroid the quotient projector onto M (x)_R N and the carrier's
embedding in Hom_k.  A standalone zeta^l or eta^l builds each relation
space and hom carrier once, a standalone zeta^r or eta^r each of its two
relation spaces once, and a parent holds no module of its own, so it is
freed without the cyclic garbage collector.
"""

import gc
import weakref

import pytest

from qha import algebroid
from qha.fields import rationals
from qha.linalg import Matrix, Subspace, basis_vec
from qha.quasihopf import (HModule, StructureError, build_scope, group_algebra,
                           cyclic_group_table, eta_l, eta_r, hom_carriers, hom_module_morphisms,
                           left_hom, regular_module, right_hom, tensor_module, trivial_module,
                           zeta_l, zeta_r)
from qha.algebroid import (base_module, base_ring_dual_numbers, enveloping_algebroid,
                           module_tensor_relations, tensor_over_base)

PARENTS = ["kc2_q", "h4_q", "twisted_q", "env_q", "t2e_f5"]
QUASI_HOPF = ["kc2_q", "kc2_f5", "ks3_q", "h4_q", "twisted_q", "twisted_f5", "twisted_z3_f7",
              "twisted_z3_skew_f7", "twisted_h4_q"]
ALGEBROIDS = ["env_q", "env_f5", "t2e_f5"]


@pytest.mark.parametrize("name", QUASI_HOPF)
def test_quasi_hopf_relations_and_carriers_are_free_subspaces(name, request):
    """The relations of V (x) W are the one zero subspace of its size, with
    Matrix.identity as projector and lift, and every hom carrier is the one
    full subspace of Hom_k(V, W)."""
    H = request.getfixturevalue(name)
    f = H.field
    mods = [regular_module(H), trivial_module(H)]
    for V in mods:
        for W in mods:
            d = V.dim * W.dim
            mod, rel = H.tensor(V, W)
            assert mod == tensor_module(V, W)
            assert rel is H.tensor_relations(V, W) is Subspace.zero(f, d)
            assert (rel.dim, rel.ambient_dim) == (0, d)
            assert rel.projector is Matrix.identity(f, d) is rel.lift
            full = H.hom_carrier(V, W)
            assert full is Subspace.full(f, d) and (full.dim, full.ambient_dim) == (d, d)
            assert left_hom(V, W)[1] is full is right_hom(V, W)[1]
            assert hom_carriers(V, W) == (full, full)


@pytest.mark.parametrize("name", ALGEBROIDS)
def test_one_tensor_body_for_both_parents(name, request):
    """Over an algebroid tensor_module is M (x)_R N on the Delta_l legs:
    the module of tensor_over_base and of H.tensor."""
    H = request.getfixturevalue(name)
    mods = [regular_module(H), base_module(H)]
    for M in mods:
        for N in mods:
            mod, rel = tensor_over_base(M, N)
            assert tensor_module(M, N) == mod == H.tensor(M, N)[0]
            assert rel == module_tensor_relations(M, N) == H.tensor_relations(M, N)
            assert mod.dim == M.dim * N.dim - rel.dim


def _ill_defined(H):
    """A module over env whose 1 (x) x and x (x) 1 act by matrices that do
    not commute, so its tensor square over the base is ill-defined."""
    f = H.field
    up = Matrix.from_rows(f, [[f.zero, f.one], [f.zero, f.zero]])
    return HModule(H, [Matrix.identity(f, 2), up, up.transpose(), Matrix.zeros(f, 2, 2)],
                   name="bad")


BUILDERS = [tensor_module, lambda V, W: tensor_over_base(V, W)[0],
            lambda V, W: V.parent.tensor(V, W)[0]]


def test_refusals_are_reached_through_every_name(env_q, kc2_q, monkeypatch):
    bad = _ill_defined(env_q)
    for build in BUILDERS:
        with pytest.raises(StructureError, match="^tensor action ill-defined: basis "
                                                 "element 1 maps a relation outside"):
            build(bad, bad)
    # the cap, checked once in tensor_module: 4 x 4 over env, 2 x 2 over kC2
    for H, cap, builders in ((env_q, 15, BUILDERS), (kc2_q, 3, BUILDERS[::2])):
        monkeypatch.setenv("QHA_MAX_DIM", str(cap))
        reg = regular_module(H)
        for build in builders:
            with pytest.raises(StructureError, match="^tensor dimension %d exceeds QHA_MAX_DIM$"
                                                     % (cap + 1)):
                build(reg, reg)


def test_no_relation_check_on_the_zero_relations(kc2_q, monkeypatch):
    """With no relations tensor_module makes no membership test: its action
    is the diagonal action itself."""
    def refused(*args):
        raise AssertionError("a membership test on the zero relation space")
    monkeypatch.setattr(Subspace, "coordinate_matrix", refused)
    reg = regular_module(kc2_q)
    mod = tensor_module(reg, trivial_module(kc2_q))
    assert list(mod.mats) == [a.kron(b) for a, b in zip(reg.mats, trivial_module(kc2_q).mats)]


@pytest.mark.parametrize("name", PARENTS)
def test_both_hooks_are_matrices_of_their_shape(name, request):
    H = request.getfixturevalue(name)
    mods = [regular_module(H), H.unit_object()]
    for M in mods:
        for N in mods:
            K = H.zeta_decoration(M, N)
            assert isinstance(K, Matrix)
            assert (K.rows, K.cols) == (H.tensor(M, N)[0].dim, M.dim * N.dim)
            ev = H.hom_evaluation(M, N)
            assert isinstance(ev, Matrix)
            assert (ev.rows, ev.cols) == (N.dim * M.dim, left_hom(M, N)[0].dim)


def test_algebroid_hooks_are_the_quotient_and_the_carrier(env_q):
    reg, base = regular_module(env_q), base_module(env_q)
    assert env_q.zeta_decoration(reg, base) == module_tensor_relations(reg, base).projector
    assert env_q.hom_evaluation(base, reg) == algebroid.right_linear_hom_basis(
        base, reg).basis_matrix()


@pytest.mark.parametrize("name", ["env_f5", "t2e_f5"])
def test_base_relations_are_spanned_by_their_generators(name, request):
    """(t_l(r) m) (x) n - m (x) (s_l(r) n) for every r, m and n spans the
    relation space, made from the intertwiner system."""
    H = request.getfixturevalue(name)
    f = H.field
    for M, N in [(regular_module(H), base_module(H)), (base_module(H), regular_module(H))]:
        gens = [[f.sub(f.mul(p, q), f.mul(s, t))
                 for p, s in zip(a.col(i), basis_vec(f, M.dim, i))
                 for q, t in zip(basis_vec(f, N.dim, j), b.col(j))]
                for a, b in zip(M.acts(H.t_l), N.acts(H.s_l))
                for i in range(M.dim) for j in range(N.dim)]
        assert module_tensor_relations(M, N) == Subspace.from_generators(
            f, M.dim * N.dim, gens)


def _counted(monkeypatch):
    """Count the calls of the relation-space and intertwiner builders that
    the algebroid layer makes."""
    counts = {"_relation_space": 0, "intertwiner_space": 0}
    for name in counts:
        real = getattr(algebroid, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(algebroid, name, counting)
    return counts


def test_standalone_zeta_and_eta_build_each_space_once(env_q, monkeypatch):
    reg = regular_module(env_q)
    tens = env_q.tensor(reg, reg)[0]
    f = hom_module_morphisms(tens, reg).basis_stack()
    g = zeta_l(f, reg, reg, reg)
    counts = _counted(monkeypatch)
    assert zeta_l(f, reg, reg, reg) == g
    assert counts == {"_relation_space": 1, "intertwiner_space": 1}
    counts.update(_relation_space=0, intertwiner_space=0)
    assert eta_l(g, reg, reg, reg) == f
    assert counts == {"_relation_space": 1, "intertwiner_space": 1}
    # inside an open scope, both reuse what the scope has built
    counts.update(_relation_space=0, intertwiner_space=0)
    with build_scope():
        assert eta_l(zeta_l(f, reg, reg, reg), reg, reg, reg) == f
    assert counts == {"_relation_space": 1, "intertwiner_space": 1}


def test_standalone_tensor_over_base_builds_its_relations_once(env_q, monkeypatch):
    """tensor_module reads the relations that tensor_over_base returns, in
    one scope: one relation space, also outside a build."""
    reg = regular_module(env_q)
    counts = _counted(monkeypatch)
    mod, rel = tensor_over_base(reg, reg)
    assert counts["_relation_space"] == 1
    assert mod.dim == reg.dim * reg.dim - rel.dim


def test_standalone_right_maps_build_each_relation_space_once(env_q, monkeypatch):
    """zeta^r and eta^r re-read the maps between M (x) N over H and N (x) M
    over H^cop around zeta^l and eta^l: two relation spaces, each built
    once, as the swap and the left-hand map run in one scope."""
    reg = regular_module(env_q)
    tens = env_q.tensor(reg, reg)[0]
    f = hom_module_morphisms(tens, reg).basis_stack()
    g = zeta_r(f, reg, reg, reg)
    counts = _counted(monkeypatch)
    assert zeta_r(f, reg, reg, reg) == g
    assert counts["_relation_space"] == 2
    counts.update(_relation_space=0)
    assert eta_r(g, reg, reg, reg) == f
    assert counts["_relation_space"] == 2


def _freed_without_gc(make, touch):
    gc.collect()
    gc.disable()
    try:
        H = make()
        touch(H)
        ref = weakref.ref(H)
        del H
        return ref() is None
    finally:
        gc.enable()


def test_an_algebroid_is_freed_without_the_cycle_collector():
    def touch(H):
        H.unit_object()
        H.cop.unit_object()
        H.op.unit_object()
    assert _freed_without_gc(lambda: enveloping_algebroid(base_ring_dual_numbers(rationals())),
                             touch)


def test_a_quasi_hopf_algebra_is_freed_without_the_cycle_collector():
    def touch(H):
        assert H.unit_object() == trivial_module(H)
    assert _freed_without_gc(lambda: group_algebra(rationals(), cyclic_group_table(2), "kC2"),
                             touch)


def test_a_quasi_hopf_algebra_with_its_cop_is_freed_without_the_cycle_collector():
    # H^cop shares the generating set and the structure verdict of H, and
    # holds no reference to H
    def touch(H):
        cop = H.cop
        assert cop.unit_object() == trivial_module(cop)
        assert cop.generators == H.generators == (1,)
        assert cop.cop.structure_passed and H.structure_passed
    assert _freed_without_gc(lambda: group_algebra(rationals(), cyclic_group_table(2), "kC2"),
                             touch)
