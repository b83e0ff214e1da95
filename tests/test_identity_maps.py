"""Identity maps cost nothing, and change nothing.

A matrix decides once, from its rows, whether it is an identity (square,
row i exactly {i: 1}), and keeps the answer.  A product, a slot product or
a stack product with an identity is its other operand, the same object;
the Kronecker product with the 1 x 1 identity is the other factor, and of
two identities an identity.  These tests hold every shortcut against a
dense oracle, on identities made by ``Matrix.identity`` and on computed
ones, check that near-identities take the general kernels, that shapes are
still refused with the same message, and that whole cocyclic builds are
equal with identity detection switched off.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qha.algebroid import base_ring_dual_numbers, enveloping_algebroid
from qha.cyclic import build_cocyclic, unit_algebra
from qha.fields import rationals, prime_field
from qha.linalg import Matrix, ShapeError, slot_apply, stack_lmul, stack_rmul

QQ = rationals()
F5 = prime_field(5)
FIELDS = [QQ, F5]
ROOT = Path(__file__).resolve().parent.parent


# -- a dense oracle --------------------------------------------------------------

def dense_mul(a: Matrix, b: Matrix) -> Matrix:
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = f.zero
            for k in range(a.cols):
                s = f.add(s, f.mul(a.get(i, k), b.get(k, j)))
            out.append(s)
    return Matrix(f, a.rows, b.cols, out)


def dense_kron(a: Matrix, b: Matrix) -> Matrix:
    f = a.field
    return Matrix(f, a.rows * b.rows, a.cols * b.cols,
                  [f.mul(a.get(i, j), b.get(k, l))
                   for i in range(a.rows) for k in range(b.rows)
                   for j in range(a.cols) for l in range(b.cols)])


def dense_eye(f, n: int) -> Matrix:
    return Matrix(f, n, n, [f.one if i == j else f.zero for i in range(n) for j in range(n)])


def dense_slot(F: Matrix, X: Matrix, before: int, after: int) -> Matrix:
    """X (I_before (x) F (x) I_after)^T, entry by entry."""
    f = F.field
    big = dense_kron(dense_kron(dense_eye(f, before), F), dense_eye(f, after))
    return dense_mul(X, Matrix(f, big.cols, big.rows,
                               [big.get(i, j) for j in range(big.cols) for i in range(big.rows)]))


# -- drawn matrices and identities ----------------------------------------------------

def scalars(field):
    if field.characteristic:
        return st.sampled_from([0, 0, 0, 1, 2, 3, 4])
    return st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]).map(Fraction)


def drawn(data, f, rows, cols) -> Matrix:
    return Matrix(f, rows, cols, data.draw(st.lists(scalars(f), min_size=rows * cols,
                                                    max_size=rows * cols)))


def invertible(data, f, n) -> Matrix:
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, rows permuted."""
    units = st.sampled_from([1, 2, 3, 4] if f.characteristic else
                            [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])

    def entry(i, j, upper):
        if i == j:
            return data.draw(units) if upper else f.one
        return data.draw(scalars(f)) if (j > i) == upper else f.zero

    low, up = (Matrix(f, n, n, [entry(i, j, upper) for i in range(n) for j in range(n)])
               for upper in (False, True))
    perm = data.draw(st.permutations(range(n)))
    p = Matrix(f, n, n, [f.one if j == perm[i] else f.zero for i in range(n) for j in range(n)])
    return p * low * up


def identity(data, f, n, kind) -> Matrix:
    """The n x n identity: made by Matrix.identity, read from dense entries,
    or computed as P P^-1 or P^-1 P."""
    if kind == "made":
        return Matrix.identity(f, n)
    if kind == "entries":
        return dense_eye(f, n)
    P = invertible(data, f, n)
    return P * P.inverse() if kind == "P P^-1" else P.inverse() * P


KINDS = ["made", "entries", "P P^-1", "P^-1 P"]
dims = st.integers(0, 4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), m=dims, data=st.data())
def test_products_with_an_identity_are_the_other_factor(field, kind, n, m, data):
    f = field
    eye = identity(data, f, n, kind)
    assert eye == dense_eye(f, n) and eye.is_identity()
    X, Y = drawn(data, f, m, n), drawn(data, f, n, m)
    # an identity X is the other factor's twin, and returns it
    assert X * eye is (eye if X.is_identity() else X) and X == dense_mul(X, dense_eye(f, n))
    assert eye * Y is Y and Y == dense_mul(dense_eye(f, n), Y)
    assert eye * eye is eye
    assert eye.transpose() is eye


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), before=st.integers(1, 3), after=st.integers(1, 3), k=dims,
       data=st.data())
def test_slot_and_stack_products_with_an_identity_are_the_stack(field, kind, n, before, after,
                                                                 k, data):
    f = field
    eye = identity(data, f, n, kind)
    X = drawn(data, f, k, before * n * after)
    assert slot_apply(eye, X, before, after) is X
    assert X == dense_slot(dense_eye(f, n), X, before, after)
    # a stack of maps k^n -> k^before, each multiplied by the identity of k^n
    S = drawn(data, f, k, before * n)
    assert stack_rmul(S, eye) is S
    assert S == dense_slot(dense_eye(f, n), S, before, 1)
    T = drawn(data, f, k, n * after)
    assert stack_lmul(eye, T) is T


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(m=dims, n=dims, rows=dims, cols=dims, data=st.data())
def test_kronecker_factors_that_are_identities(field, kind, m, n, rows, cols, data):
    f = field
    one = identity(data, f, 1, kind)
    X = drawn(data, f, rows, cols)
    # with X an identity too, the product is a new flagged identity
    assert X.is_identity() or (one.kron(X) is X and X.kron(one) is X)
    assert one.kron(X) == X == X.kron(one)
    assert X == dense_kron(dense_eye(f, 1), X) == dense_kron(X, dense_eye(f, 1))
    eye_m, eye_n = Matrix.identity(f, m), dense_eye(f, n)
    both = eye_m.kron(eye_n)
    # flagged when made: the product below reads no row of it
    assert both._eye is True
    assert both == dense_kron(eye_m, eye_n) == Matrix.identity(f, m * n)
    Z = drawn(data, f, rows, m * n)
    assert Z * both is (both if Z.is_identity() else Z)


def _near_identities(f):
    """Matrices one step away from an identity.  The 0 x 0 matrix is the
    identity of k^0: its products equal the oracle's either way."""
    o, z, two = f.one, f.zero, f.from_int(2)
    return {
        "two on the diagonal": Matrix(f, 3, 3, [o, z, z, z, two, z, z, z, o]),
        "an off-diagonal entry": Matrix(f, 3, 3, [o, z, z, z, o, o, z, z, o]),
        "a permutation": Matrix(f, 3, 3, [z, o, z, o, z, z, z, z, o]),
        "a zero row": Matrix(f, 3, 3, [o, z, z, z, z, z, z, z, o]),
        "rows != cols": Matrix(f, 2, 3, [o, z, z, z, o, z]),
        "cols != rows": Matrix(f, 3, 2, [o, z, z, o, z, z]),
        "0 x 0": Matrix.zeros(f, 0, 0),
    }


@pytest.mark.parametrize("name", list(_near_identities(QQ)))
@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), data=st.data())
def test_near_identities_take_the_general_kernels(field, name, k, data):
    f = field
    N = _near_identities(f)[name]
    assert N.is_identity() == (name == "0 x 0")
    X, Y = drawn(data, f, k, N.rows), drawn(data, f, N.cols, k)
    assert X * N == dense_mul(X, N)
    assert N * Y == dense_mul(N, Y)
    Nt = Matrix(f, N.cols, N.rows, [N.get(i, j) for j in range(N.cols) for i in range(N.rows)])
    assert N.transpose() == Nt
    S = drawn(data, f, k, 2 * N.cols)
    assert slot_apply(N, S, 2, 1) == dense_slot(N, S, 2, 1)
    if N.rows:
        R = drawn(data, f, k, 2 * N.rows)
        assert stack_rmul(R, N) == dense_slot(Nt, R, 2, 1)
    for one in (Matrix(f, 1, 1, [f.from_int(2)]), Matrix(f, 1, 1, [f.zero])):
        assert one.kron(N) == dense_kron(one, N) and N.kron(one) == dense_kron(N, one)


def _message(call):
    with pytest.raises(ShapeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mismatched_shapes_raise_the_same_error(field):
    f = field
    eye, twice = Matrix.identity(f, 2), Matrix.identity(f, 2).scale(f.from_int(2))
    X = Matrix.zeros(f, 2, 3)
    for M in (eye, twice):
        assert _message(lambda: X * M) == "cannot multiply 2x3 by 2x2"
        assert _message(lambda: M * X.transpose()) == "cannot multiply 2x2 by 3x2"
        assert _message(lambda: slot_apply(M, X, 1, 2)) == \
            "rows of length 3 do not split as 1 x 2 x 2"
        assert _message(lambda: stack_rmul(Matrix.zeros(f, 1, 5), M)) == \
            "rows of length 5 do not split as 2 x 2 x 1"
        assert _message(lambda: stack_lmul(M, Matrix.zeros(f, 1, 5))) == \
            "rows of length 5 do not split as 1 x 2 x 2"


class _Unreadable(tuple):
    """Rows that fail on any read."""

    def __iter__(self):
        raise AssertionError("the rows were read again")

    def __getitem__(self, i):
        raise AssertionError("the rows were read again")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_is_identity_reads_the_rows_on_its_first_call_only(field):
    f = field
    P = Matrix(f, 2, 2, [f.one, f.one, f.zero, f.one])
    eye, other = P * P.inverse(), P * P
    assert eye._eye is None and other._eye is None
    assert eye.is_identity() and not other.is_identity()
    eye._rows = other._rows = _Unreadable()
    assert eye.is_identity() and not other.is_identity()
    X = Matrix(f, 1, 2, [f.one, f.from_int(3)])
    Xt = X.transpose()
    assert X * eye is X and eye * Xt is Xt
    assert slot_apply(eye, X, 1, 1) is X and stack_rmul(X, eye) is X


# -- whole builds, with identity detection switched off ---------------------------------

def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class _Package:
    def __getattr__(self, name):
        return importlib.import_module("qha." + name)


def _inputs(name):
    """The algebra object, coefficient and n_max of a bench input, built anew."""
    workloads = _workloads()
    if name == "env":
        env = enveloping_algebroid(base_ring_dual_numbers(QQ))
        return unit_algebra(env), workloads.algebroid_coefficient(_Package(), env), 10
    workload = workloads.WORKLOADS[name]
    return (*workload.inputs(_Package(), 0), workload.n_max)


def _undecided_identity(field, n):
    one = field.one
    return Matrix._sparse(field, n, n, [{i: one} for i in range(n)])


@pytest.mark.parametrize("name", ["quasi-Q", "hopf-GF7", "env"])
def test_builds_equal_those_without_identity_detection(name, monkeypatch):
    A, M, n_max = _inputs(name)
    cc = build_cocyclic(A, M, n_max)
    # no matrix is an identity, and none made as one is flagged, so every
    # kernel runs in full; the inputs are built anew under the patches
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "is_identity", lambda self: False)
        patch.setattr(Matrix, "identity", staticmethod(_undecided_identity))
        A, M, n_max = _inputs(name)
        plain = build_cocyclic(A, M, n_max)
    assert Matrix.identity(QQ, 1)._eye is True
    assert cc.spaces == plain.spaces
    assert cc.cofaces == plain.cofaces
    assert cc.codegens == plain.codegens
    assert cc.cyclics == plain.cyclics


def test_group_algebra_asks_for_no_square_identity(monkeypatch):
    """kG's n^2 x n multiplication is built from its rows: no n^2 x n^2
    identity enters the identity cache (576 rows for kS4)."""
    from qha.quasihopf import group_algebra, symmetric_group_table
    asked, identity = [], Matrix.identity
    monkeypatch.setattr(Matrix, "identity",
                        staticmethod(lambda field, n: asked.append(n) or identity(field, n)))
    table = symmetric_group_table(3)
    H = group_algebra(QQ, table, "kS3")
    assert 36 not in asked
    assert [H.mult.row_map(i * 6 + j) for i in range(6) for j in range(6)] == [
        {table[i][j]: 1} for i in range(6) for j in range(6)]
