"""Build-scoped sharing of the monoidal primitives.

Inside one ``build_cocyclic`` each tensor product, base-relation space,
associativity map, Hom^l module and intertwiner space is built once per
distinct input (``qha.quasihopf.build_scope``), and so is each of the
tensor-power chain's rebracketings, multiplications and unit insertions.
These tests pin that the sharing changes no result, keeps no failure,
leaves no scope open, and compares modules by their parent and their
action matrices.
"""

import gc
import importlib
import importlib.util
import weakref
from pathlib import Path

import pytest

import qha.cyclic
from qha.linalg import Matrix
from qha.quasihopf import (StructureError, build_scope, group_algebra, cyclic_group_table,
                           trivial_module, regular_module, tensor_module, HModule)
from qha.algebroid import base_module, module_tensor_relations, tensor_over_base
from qha.coefficients import Contramodule, ALGEBROID_MU, QUASI_I
from qha.center import CenterElement
from qha.cyclic import (CocyclicError, ModuleAlgebra, build_cocyclic, unit_algebra,
                        cyclic_cohomology, hochschild_cohomology)

from conftest import QQ
from test_cyclic import functions_algebra, dual_numbers_algebra_trivial_over, unit_coefficient

ROOT = Path(__file__).resolve().parent.parent


def env_coefficient(H):
    """The stable ALGEBROID_MU contraaction on the base of the enveloping
    algebroid of the dual numbers."""
    mu = Matrix(H.field, 2, 8, [H.field.from_int(x) for x in
                                (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0)])
    return Contramodule(base_module(H), mu, ALGEBROID_MU)


def assert_same_build(A, M, n_max):
    """build_cocyclic equals its body run with no scope, entry for entry."""
    scoped = build_cocyclic(A, M, n_max)
    plain = qha.cyclic._build_cocyclic(A, M, n_max)
    assert scoped.spaces == plain.spaces
    assert scoped.cofaces == plain.cofaces
    assert scoped.codegens == plain.codegens
    assert scoped.cyclics == plain.cyclics


def scope_open() -> bool:
    """Whether a build scope is open: only inside one does a second tensor
    of the same modules return the kept module."""
    k = trivial_module(group_algebra(QQ, cyclic_group_table(2)))
    return tensor_module(k, k) is tensor_module(k, k)


@pytest.mark.parametrize("name", ["kC2-Q", "twisted-Q", "H4-Q", "env-Q"])
def test_scoped_build_equals_the_unscoped_body(name, kc2_q, twisted_q, h4_q, env_q):
    A, M, n_max = {
        "kC2-Q": (functions_algebra(kc2_q), unit_coefficient(kc2_q), 3),
        "twisted-Q": (dual_numbers_algebra_trivial_over(twisted_q),
                      unit_coefficient(twisted_q, QUASI_I), 4),
        "H4-Q": (dual_numbers_algebra_trivial_over(h4_q), unit_coefficient(h4_q), 3),
        "env-Q": (unit_algebra(env_q), env_coefficient(env_q), 5),
    }[name]
    assert_same_build(A, M, n_max)


def test_scoped_build_equals_the_unscoped_body_where_phi_acts(graded_over_twisted):
    _, A, M = graded_over_twisted
    assert_same_build(A, M, 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_scoped_build_equals_the_unscoped_body_on_the_quasi_q_inputs(seed):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    class Package:
        def __getattr__(self, name):
            return importlib.import_module("qha." + name)

    workload = workloads.WORKLOADS["quasi-Q"]
    A, M = workload.inputs(Package(), seed)
    assert_same_build(A, M, workload.n_max)


def test_no_scope_is_left_open(kc2_q, monkeypatch):
    A, M = functions_algebra(kc2_q), unit_coefficient(kc2_q)
    assert not scope_open()
    build_cocyclic(A, M, 2)
    assert not scope_open()

    bad = ModuleAlgebra(A.carrier, A.mult.scale(QQ.from_int(2)), A.unit)
    with pytest.raises(StructureError, match="algebra object fails"):
        build_cocyclic(bad, M, 2)
    assert not scope_open()

    monkeypatch.setattr(qha.cyclic, "verify_cocyclic_identities",
                        lambda cc: CocyclicError("forced", n=0))
    with pytest.raises(CocyclicError, match="forced"):
        build_cocyclic(A, M, 2)
    assert not scope_open()


def test_a_nested_build_reuses_the_open_scope(kc2_q):
    k = trivial_module(kc2_q)
    with build_scope():
        kept = tensor_module(k, k)
        build_cocyclic(functions_algebra(kc2_q), unit_coefficient(kc2_q), 2)
        assert tensor_module(k, k) is kept
    assert tensor_module(k, k) is not kept


def test_a_failure_is_not_kept(env_q):
    """An ill-defined base tensor raises on every call inside one scope."""
    o, z = QQ.one, QQ.zero
    up = Matrix.from_rows(QQ, [[z, o], [z, z]])
    # 1 (x) x and x (x) 1 act by matrices that do not commute
    bad = HModule(env_q, [Matrix.identity(QQ, 2), up, up.transpose(),
                                  Matrix.zeros(QQ, 2, 2)], name="bad")
    with build_scope():
        for _ in range(2):
            with pytest.raises(StructureError, match="tensor action ill-defined"):
                tensor_over_base(bad, bad)


def test_the_dimension_cap_holds_inside_a_scope(env_q, kc2_q, monkeypatch):
    reg = regular_module(env_q)
    monkeypatch.setenv("QHA_MAX_DIM", "15")
    with build_scope():
        for _ in range(2):
            with pytest.raises(StructureError, match="^tensor dimension 16 exceeds"):
                tensor_over_base(reg, reg)
        monkeypatch.setenv("QHA_MAX_DIM", "3")
        with pytest.raises(StructureError, match="^tensor dimension 4 exceeds"):
            tensor_module(regular_module(kc2_q), regular_module(kc2_q))


def test_equal_modules_share_their_relation_space(env_q):
    R = base_module(env_q)
    twin = HModule(env_q, [Matrix(QQ, 2, 2, m.entries) for m in R.mats], name="twin")
    assert twin is not R and twin.mats == R.mats
    plain = module_tensor_relations(R, R)
    with build_scope():
        kept = module_tensor_relations(R, R)
        assert module_tensor_relations(twin, twin) is kept
        assert module_tensor_relations(twin, R) is kept
    assert (kept.projector, kept.lift) == (plain.projector, plain.lift)
    assert kept == plain


def test_a_module_key_compares_the_parent_by_identity(env_q):
    H1 = group_algebra(QQ, cyclic_group_table(2))
    H2 = group_algebra(QQ, cyclic_group_table(2))
    k1, k2 = trivial_module(H1), trivial_module(H2)
    with build_scope():
        assert tensor_module(k1, k1) is not tensor_module(k2, k2)
        assert tensor_module(k1, k1) is tensor_module(HModule(H1, k1.mats), k1)

    # rebuilt from the same parent and matrices under another name
    twin = HModule(H1, [Matrix(QQ, 1, 1, m.entries) for m in k1.mats], name="twin")
    assert twin is not k1 and twin == k1 and hash(twin) == hash(k1)
    # equal constants over a second parent object
    assert k1 != k2
    reg = regular_module(H1)
    assert reg.cop != reg
    R = base_module(env_q)
    assert HModule(env_q, R.mats) == R
    assert regular_module(env_q) == regular_module(env_q)
    assert {k1: "found"}[twin] == "found"


def test_nothing_outlives_the_scope(kc2_q):
    """The scope's memo is dropped when the block exits, and with it every
    module it kept."""
    reg = regular_module(kc2_q)
    with build_scope():
        kept = weakref.ref(tensor_module(reg, reg))
        assert kept() is not None
    gc.collect()
    assert kept() is None


def test_tau_is_kept_per_module_key(kc2_q):
    E = CenterElement(unit_coefficient(kc2_q))
    reg = regular_module(kc2_q)
    # two tensor products built apart, with equal action matrices
    assert E.tau(tensor_module(reg, reg)) is E.tau(tensor_module(reg, reg))


def test_env_unit_algebra_builds_past_the_naive_power_cap(env_q, monkeypatch):
    """Every stage of A^(x)15 over the enveloping algebroid is 2-dimensional
    inside an ambient of 4, so the default cap admits n_max = 14 though
    2^15 exceeds it."""
    monkeypatch.delenv("QHA_MAX_DIM", raising=False)
    cc = build_cocyclic(unit_algebra(env_q), env_coefficient(env_q), 14)
    assert [cc.dim(n) for n in range(15)] == [2] * 15
    assert cyclic_cohomology(cc, 13).dims == [2, 0] * 7
    assert hochschild_cohomology(cc, 13).dims == [2] + [0] * 13
