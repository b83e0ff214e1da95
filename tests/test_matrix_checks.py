"""The primitives of the matrix-form axiom checks.

``slot_apply`` and ``tensor_times`` are compared with the Kronecker
products they avoid forming, ``CheckReport.compare`` with the witness rule
of the checks, and the Drinfeld-twisted fixture, built on both primitives,
with the content hash it had when it was built from sparse tensors.
"""

import random

import pytest

from qha.linalg import Matrix, ShapeError, kron_sum, slot_apply
from qha.quasihopf import tensor_times
from qha.reports import CheckReport
from qha.structures import content_hash

from conftest import QQ, F5


def _random(field, rows, cols, rng, fill=0.4):
    return Matrix(field, rows, cols, [field.from_int(rng.randrange(-3, 4))
                                      if rng.random() < fill else field.zero
                                      for _ in range(rows * cols)])


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@pytest.mark.parametrize("slot", ["first", "middle", "last"])
def test_slot_apply_matches_kronecker_product(field, slot):
    rng = random.Random("%s-%s" % (field, slot))
    for _ in range(5):
        dims = [rng.randrange(1, 4) for _ in range(3)]
        s = {"first": 0, "middle": 1, "last": 2}[slot]
        before = dims[0] * dims[1] if s == 2 else (dims[0] if s == 1 else 1)
        after = dims[1] * dims[2] if s == 0 else (dims[2] if s == 1 else 1)
        F = _random(field, rng.randrange(1, 5), dims[s], rng)
        X = _random(field, rng.randrange(1, 5), before * dims[s] * after, rng)
        want = Matrix.identity(field, before).kron(F).kron(Matrix.identity(field, after))
        assert slot_apply(F, X, before, after) == X * want.transpose()


def test_slot_apply_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ShapeError):
        slot_apply(Matrix.identity(QQ, 2), Matrix.zeros(QQ, 1, 5), 1, 2)


@pytest.mark.parametrize("fixture", ["h4_q", "twisted_z3_skew_f7", "twisted_h4_q"])
@pytest.mark.parametrize("k", [2, 3])
def test_tensor_times_matches_kron_sum(request, fixture, k):
    H = request.getfixturevalue(fixture)
    f, n = H.field, H.dim
    rng = random.Random("%s-%d" % (fixture, k))
    a, X = _random(f, 1, n ** k, rng, 0.1), _random(f, 3, n ** k, rng, 0.2)
    for right, mults in ((False, H.left_mults), (True, H.right_mults)):
        terms = []
        for key, c in enumerate(a.row(0)):
            idx = [key // n ** (k - 1 - s) % n for s in range(k)]
            terms.append((c, [mults[i] for i in idx]))
        want = X * kron_sum(f, n ** k, n ** k, terms).transpose()
        assert tensor_times(H, k, a, X, right=right) == want


@pytest.mark.parametrize("fixture", ["kc2_q", "kc2_f5", "ks3_q", "h4_q", "twisted_q",
                                     "twisted_f5", "twisted_z3_f7", "twisted_z3_skew_f7",
                                     "twisted_h4_q"])
def test_phi_times_phi_inverse_is_one(request, fixture):
    H = request.getfixturevalue(fixture)
    f, n = H.field, H.dim
    u = Matrix(f, 1, n, H.unit)
    one = u.kron(u).kron(u)
    assert tensor_times(H, 3, H.phi, H.phi_inv) == one
    assert tensor_times(H, 3, H.phi_inv, H.phi) == one


RANGES = (("a", 2), ("b", 3), ("c", 4))


def _ones(*entries):
    """The 2 x 24 matrix with a one at each (row, column) of entries."""
    return Matrix(QQ, 2, 24, [QQ.one if divmod(k, 24) in entries else QQ.zero
                              for k in range(48)])


def test_compare_decodes_the_first_differing_column():
    lhs = _ones()
    for rhs, want in ((_ones((1, 17), (0, 20)), (("a", 1), ("b", 1), ("c", 1))),
                      (_ones((0, 6)), (("a", 0), ("b", 1), ("c", 2))),
                      (_ones((1, 23)), (("a", 1), ("b", 2), ("c", 3)))):
        rep = CheckReport()
        rep.compare("x", RANGES, lhs, rhs)
        assert rep.result("x").counterexample == want
    rep = CheckReport()
    rep.compare("tuple", (("tuple", (2, 3, 4)),), lhs, _ones((1, 17), (1, 20)))
    assert rep.result("tuple").counterexample == (("tuple", (1, 1, 1)),)


def test_compare_without_witness():
    same = _ones((0, 3))
    rep = CheckReport()
    rep.compare("holds", RANGES, same, same)
    rep.compare("extra", RANGES, same, same, holds=False)
    rep.compare("unnamed", None, same, _ones())
    assert [(r.check_id, r.passed, r.counterexample) for r in rep.results] == [
        ("holds", True, None), ("extra", False, None), ("unnamed", False, None)]


def test_compare_rejects_shape_mismatch():
    rep = CheckReport()
    with pytest.raises(ShapeError):
        rep.compare("x", RANGES, Matrix.zeros(QQ, 2, 24), Matrix.zeros(QQ, 3, 24))
    with pytest.raises(ShapeError):
        rep.compare("x", RANGES, Matrix.zeros(QQ, 2, 25), Matrix.zeros(QQ, 2, 25))


def test_twisted_h4_content_hash(twisted_h4_q):
    """Recorded when drinfeld_twist multiplied sparse tensors."""
    assert content_hash(twisted_h4_q) == \
        "0c0666a81823c0937681d159830a783bc10f6b1f6244ad946142794c11b55310"


def test_tensor_times_rejects_an_element_of_the_wrong_degree(h4_q):
    with pytest.raises(ShapeError):
        tensor_times(h4_q, 3, h4_q.phi.kron(Matrix(QQ, 1, 4, h4_q.unit)), Matrix.zeros(QQ, 1, 64))
