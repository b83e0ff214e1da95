"""H-linearity and the axioms read on a generating set of the parent.

Between genuine modules a map commutes with every action exactly when it
commutes with the actions of the parent's generators, so the intertwiner
checks and Hom_H spaces take their constraints from ``H.generators``.
The tests pin the generators, compare every check with its version over
the whole basis, and show that a carrier which is not a module is still
decided over the whole basis.  The axiom suites decide each axiom on the
generators once its premises have passed: on corrupted structures their
reports equal those computed with every basis index as a generator.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qha import quasihopf
from qha.algebroid import BaseRing, HopfAlgebroid
from qha.fields import prime_field
from qha.linalg import Matrix, intertwiner_space, stack_of_maps
from qha.quasihopf import (Algebra, HModule, IntertwinerError, QuasiHopfAlgebra,
                           check_module, check_quasi_bialgebra, check_quasi_hopf,
                           group_algebra, cyclic_group_table, hom_module_morphisms,
                           is_intertwiner, left_hom, regular_module, require_intertwiner,
                           right_hom, tensor_module, trivial_module, validate_structure)
from qha.reports import CheckReport

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
    comult = H.comult.row_list()
    comult[1] = [o if k == 1 * 3 + 2 else z for k in range(9)]   # Delta(g) = g (x) g^2
    bad = QuasiHopfAlgebra(F7, 3, H.mult, H.unit, Matrix.from_rows(F7, comult), H.counit,
                           H.antipode, H.antipode_inv, H.phi, H.phi_inv, H.alpha, H.beta,
                           name="bad")
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


# -- multiplication matrices from the rows of the structure table ---------------

@pytest.mark.parametrize("name", PARENTS + ["env_q", "env_f5"])
def test_multiplication_matrices_are_those_of_the_identity(name, request):
    H = request.getfixturevalue(name)
    for A in (H, getattr(H, "base", H)):
        eye = Matrix.identity(A.field, A.dim)
        assert A.left_mults == A.mults_of(eye)
        assert A.right_mults == A.mults_of(eye, right=True)


# -- the axiom suites read the generators ---------------------------------------
#
# A one-scalar change of one structure array, seeded, with the reports of
# every suite compared against those computed with ``generating_set``
# patched to every basis index.  Half of the changed entries are nonzero
# ones; the changes of mult and unit at the unit break the unit.

KEYS = ("mult", "unit", "comult", "counit", "antipode", "antipode_inv", "phi", "phi_inv",
        "alpha", "beta", "module")


def _arrays(H):
    """The structure arrays of H, flat, by key: the entries of its
    matrices, and its elements."""
    arrays = {key: getattr(H, key) for key in KEYS[:-1]}
    return {key: a.entries if isinstance(a, Matrix) else a for key, a in arrays.items()}


def _parent(f, n, a):
    return QuasiHopfAlgebra(f, n, Matrix(f, n * n, n, a["mult"]), a["unit"],
                            Matrix(f, n, n * n, a["comult"]), a["counit"],
                            Matrix(f, n, n, a["antipode"]), Matrix(f, n, n, a["antipode_inv"]),
                            Matrix(f, 1, n ** 3, a["phi"]), Matrix(f, 1, n ** 3, a["phi_inv"]),
                            a["alpha"], a["beta"])


def _changed(f, arr, rng, k=None):
    """arr with entry k moved by a nonzero multiple of 1; without k, a
    nonzero entry or any entry with even chances."""
    arr = list(arr)
    if k is None:
        nonzero = [k for k, a in enumerate(arr) if a]
        k = rng.choice(nonzero) if nonzero and rng.random() < 0.5 else rng.randrange(len(arr))
    arr[k] = f.add(arr[k], f.from_int(rng.choice([1, 2, -1])))
    return arr


def _reports(f, n, arrays, key, seed):
    """Every suite on a fresh parent built from arrays, with the regular
    module's actions changed at one entry when key is "module"."""
    H = _parent(f, n, arrays)
    mats = regular_module(H).mats
    if key == "module":
        d = mats[0].rows
        flat = _changed(f, [a for m in mats for a in m.entries], random.Random(seed))
        mats = [Matrix(f, d, d, flat[i * d * d:(i + 1) * d * d]) for i in range(n)]
    return [validate_structure(H).to_dict(), check_quasi_bialgebra(H).to_dict(),
            check_quasi_hopf(H).to_dict(), check_module(HModule(H, mats)).to_dict(),
            check_module(trivial_module(H)).to_dict()]


def _every_index(monkeypatch):
    monkeypatch.setattr(Algebra, "generating_set",
                        property(lambda self: tuple(range(self.dim))))


@pytest.fixture(scope="session")
def scalars_f7():
    return group_algebra(F7, [[0]], "k")


CORRUPTED = ["kc2_q", "ks3_q", "h4_q", "kc3_f7", "twisted_z3_f7", "twisted_q", "scalars_f7"]


@pytest.mark.parametrize("name", CORRUPTED)
def test_reports_on_corrupted_parents_equal_those_over_every_index(name, request, monkeypatch):
    H = request.getfixturevalue(name)
    f, n, good = H.field, H.dim, _arrays(H)
    unit = good["unit"].index(f.one)
    cases = []
    for key in KEYS:
        # each entry of the vectors of length n, four seeded ones elsewhere
        short = key in ("unit", "counit", "alpha", "beta")
        for k in range(n if short else 4):
            arrays, seed = dict(good), "%s %s %d" % (name, key, k)
            if key != "module":
                arrays[key] = _changed(f, good[key], random.Random(seed), k if short else None)
            cases.append((key, seed, arrays))
    # the e_(n-1) coefficient of e_u e_(n-1) moved, u the first index of the unit: no unit
    mult = list(good["mult"])
    mult[(unit * n + n - 1) * n + n - 1] = f.add(mult[(unit * n + n - 1) * n + n - 1], f.one)
    cases.append(("mult", "unit row", dict(good, mult=mult)))
    got = [_reports(f, n, arrays, key, seed) for key, seed, arrays in cases]
    _every_index(monkeypatch)
    for (key, seed, arrays), reports in zip(cases, got):
        assert reports == _reports(f, n, arrays, key, seed), (key, seed)
    # the unit was broken, and some suite failed with its premises passed
    assert any(not r[0]["checks"][1]["pass"] for r in got)
    assert any(r[0]["pass"] and not (r[1]["pass"] and r[2]["pass"] and r[3]["pass"])
               for r in got) or n == 1


def test_the_algebroid_algebra_axioms_equal_those_over_every_index(env_q, monkeypatch):
    H, R = env_q, env_q.base
    f, n, r = H.field, H.dim, R.dim

    def reports(mult, unit, base_mult, base_unit):
        A = HopfAlgebroid(BaseRing(f, r, Matrix(f, r * r, r, base_mult), base_unit), n,
                          Matrix(f, n * n, n, mult), unit,
                          H.s_l, H.t_l, H.s_r, H.t_r, H.delta_l_lift, H.delta_r_lift,
                          H.eps_l, H.eps_r, H.antipode, H.antipode_inv)
        rep = CheckReport()
        A.check_algebra(rep, "mult", unit_witness=False)
        return A.base.validate().to_dict(), rep.to_dict()

    cases = []
    for seed in range(6):
        rng = random.Random("env %d" % seed)
        mult, base_mult = H.mult.entries, R.mult.entries
        cases += [(_changed(f, mult, rng), H.unit, base_mult, R.unit),
                  (mult, _changed(f, H.unit, rng), base_mult, R.unit),
                  (mult, H.unit, _changed(f, base_mult, rng), R.unit),
                  (mult, H.unit, base_mult, _changed(f, R.unit, rng))]
    got = [reports(*case) for case in cases]
    assert any(not b["pass"] for b, _ in got) and any(not a["pass"] for _, a in got)
    _every_index(monkeypatch)
    assert got == [reports(*case) for case in cases]
