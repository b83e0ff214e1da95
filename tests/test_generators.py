"""H-linearity read on a generating set of the parent.

Between genuine modules a map commutes with every action exactly when it
commutes with the actions of the parent's generators, so the intertwiner
checks and Hom_H spaces take their constraints from ``H.generators``.
The tests pin the generators, compare every check with its version over
the whole basis, and show that a carrier which is not a module is still
decided over the whole basis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qha import quasihopf
from qha.fields import prime_field
from qha.linalg import Matrix, intertwiner_space, stack_of_maps
from qha.quasihopf import (HModule, IntertwinerError, QuasiHopfAlgebra, group_algebra,
                           cyclic_group_table, hom_module_morphisms, is_intertwiner,
                           left_hom, require_intertwiner, right_hom, tensor_module,
                           trivial_module, validate_structure)

from conftest import random_module, stack

F7 = prime_field(7)


@pytest.fixture(scope="session")
def kc3_f7():
    return group_algebra(F7, cyclic_group_table(3), "kC3")


PARENTS = ["kc2_q", "ks3_q", "h4_q", "kc3_f7", "twisted_q", "twisted_z3_f7", "twisted_h4_q"]


@pytest.mark.parametrize("name, want", [("kc2_q", (1,)), ("kc3_f7", (1,)), ("ks3_q", (1, 2)),
                                        ("h4_q", (1, 2)), ("twisted_q", (0,)),
                                        ("twisted_z3_f7", (0, 1)), ("twisted_h4_q", (1, 2))])
def test_generators_are_pinned(name, want, request):
    H = request.getfixturevalue(name)
    assert H.generators == want
    assert H.cop.generators == want


def test_scalars_need_no_generator():
    # H = k: the unit spans, so every check between modules is vacuous
    assert group_algebra(F7, [[0]], "k").generators == ()


def test_generators_fall_back_to_the_basis_without_multiplicative_delta():
    H = group_algebra(F7, cyclic_group_table(3), "kC3")
    z, o = F7.zero, F7.one
    comult = list(H.comult)
    comult[1] = tuple(o if k == 1 * 3 + 2 else z for k in range(9))   # Delta(g) = g (x) g^2
    bad = QuasiHopfAlgebra(F7, 3, H.mult, H.unit, comult, H.counit, H.antipode,
                           H.antipode_inv, H.phi, H.phi_inv, H.alpha, H.beta, name="bad")
    assert not validate_structure(bad).result("comult_algebra_map").passed
    assert bad.generators == (0, 1, 2)
    assert bad.cop.generators == (0, 1, 2)
    assert not trivial_module(bad).genuine


def test_structure_checks_run_once_per_parent_and_its_cop(monkeypatch):
    H = group_algebra(F7, cyclic_group_table(3), "kC3")
    assert validate_structure(H).passed

    def refuse(H):
        raise AssertionError("validate_structure ran again")

    # the verdict recorded by the call above serves H and H^cop
    monkeypatch.setattr(quasihopf, "validate_structure", refuse)
    assert H.generators == (1,)
    assert H.cop.generators == (1,)


def _all_basis_space(V, W):
    return intertwiner_space(V.parent.field, [(V.mats[i], W.mats[i])
                                              for i in range(V.parent.dim)], W.dim, V.dim)


def _all_basis_check(f_mat, V, W):
    return all(f_mat * V.mats[i] == W.mats[i] * f_mat for i in range(V.parent.dim))


def _module(H, kind, data):
    """A random leaf module, or a tensor product or hom module of two."""
    def leaf(top):
        return random_module(H, data.draw(st.integers(1, top)), data.draw(st.integers(0, 99)))
    if kind == "leaf":
        return leaf(H.dim + 1)
    V, W = leaf(H.dim), leaf(2)
    if kind == "tensor":
        return tensor_module(V, W)
    return (left_hom if kind == "left_hom" else right_hom)(V, W)[0]


@pytest.mark.parametrize("name", PARENTS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_generators_decide_what_the_whole_basis_decides(
        name, kc2_q, ks3_q, h4_q, kc3_f7, twisted_q, twisted_z3_f7, twisted_h4_q, data):
    H = locals()[name]
    kinds = st.sampled_from(["leaf", "leaf", "tensor", "left_hom", "right_hom"])
    V, W = _module(H, data.draw(kinds), data), _module(H, data.draw(kinds), data)
    assert len(H.generators) < H.dim and V.genuine and W.genuine
    space = hom_module_morphisms(V, W)
    assert space == _all_basis_space(V, W)
    # members of the space, each perhaps moved off it at one entry
    f = H.field
    maps = []
    for _ in range(data.draw(st.integers(1, 3))):
        vec = [f.zero] * (W.dim * V.dim)
        for b in space.basis:
            c = f.from_int(data.draw(st.integers(-2, 2)))
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, b)]
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(vec) - 1))
            vec[k] = f.add(vec[k], f.one)
        maps.append(Matrix(f, W.dim, V.dim, vec))
    for m in maps:
        assert is_intertwiner(stack_of_maps(m, W.dim), V, W) == _all_basis_check(m, V, W)
    assert is_intertwiner(stack(maps), V, W) == all(_all_basis_check(m, V, W) for m in maps)


# -- a carrier that is not a module --------------------------------------------
#
# Over kC3 over GF(7) (generator g = e_1, and 2 a cube root of unity) W is
# the module g |-> diag(1, 2).  V agrees with W on 1 and g, but its e_2
# acts by a matrix that is not diag(1, 2)^2: the identity V -> W commutes
# with the actions of the generators and not with that of e_2.

def _mutant_pair(H):
    d = lambda *xs: Matrix.from_rows(F7, [[F7.from_int(xs[0]), 0], [0, F7.from_int(xs[1])]])
    W = HModule(H, [d(1, 1), d(1, 2), d(1, 4)], name="W")
    bad = Matrix.from_rows(F7, [[1, 1], [0, 4]])
    return HModule(H, [d(1, 1), d(1, 2), bad], name="V"), W


def test_a_non_module_is_decided_over_every_basis_element(kc3_f7):
    V, W = _mutant_pair(kc3_f7)
    eye = Matrix.identity(F7, 2)
    assert W.genuine and not V.genuine
    assert all(eye * V.mats[i] == W.mats[i] * eye for i in kc3_f7.generators)
    assert not is_intertwiner(stack_of_maps(eye, 2), V, W)
    with pytest.raises(IntertwinerError):
        require_intertwiner(stack_of_maps(eye, 2), V, W, "identity")
    space = hom_module_morphisms(V, W)
    assert space == _all_basis_space(V, W)
    assert space.coordinates(eye.entries) is None
    # a tensor product with a non-module factor is not taken for a module
    k = trivial_module(kc3_f7)
    VK = tensor_module(V, k)
    assert not VK.genuine and not VK.cop.genuine
    assert not is_intertwiner(stack_of_maps(eye, 2), VK, W)
    assert hom_module_morphisms(VK, W) == _all_basis_space(VK, W)
