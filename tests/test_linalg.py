import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qha import linalg
from qha.fields import FieldError, rationals, prime_field
from qha.linalg import (Matrix, Subspace, ShapeError,
                        quotient_section, tensor_index, intertwiner_space,
                        kron_sum, block_matrix, hstack, vstack, stack_lmul, stack_rmul,
                        swap_slots, swap_factors, stack_of_maps)

QQ = rationals()
F2 = prime_field(2)
F5 = prime_field(5)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def vec(field, xs):
    return tuple(field.from_int(x) for x in xs)


# -- independent oracles ------------------------------------------------------

def brute_force_kernel_gfp(field, m):
    """Enumerate all vectors of GF(p)^cols and keep those sent to zero."""
    sols = []
    for combo in itertools.product(field.elements(), repeat=m.cols):
        if all(x == 0 for x in m.apply(combo)):
            sols.append(combo)
    return sols


def test_field_errors():
    with pytest.raises(FieldError):
        prime_field(4)
    with pytest.raises(FieldError):
        prime_field(1)
    assert str(F5) == "GF(5)"
    assert F5.inv(F5.from_int(2)) == 3
    assert QQ.parse("-1/2") * 2 == -1


def test_kernel_rank_one_case():
    m = mat(QQ, [[1, 2], [2, 4]])
    k = m.kernel()
    assert k.dim == 1
    # span{(-2, 1)} in canonical form: leading coefficient normalised to 1
    assert k.basis == ((QQ.one, QQ.parse("1/2")),) or k.coordinates(vec(QQ, [-2, 1])) is not None
    assert k.coordinates(vec(QQ, [-2, 1])) is not None


def test_kernel_identity_case():
    m = Matrix.identity(QQ, 3)
    assert m.kernel().dim == 0


def test_kernel_gf2_against_brute_force():
    m = mat(F2, [[1, 1], [1, 1]])
    k = m.kernel()
    brute = [v for v in brute_force_kernel_gfp(F2, m) if any(x != 0 for x in v)]
    assert brute == [(1, 1)]
    assert k.dim == 1 and k.basis == ((1, 1),)


def test_solve_examples():
    eye = Matrix.identity(QQ, 3)
    v = vec(QQ, [3, -1, 2])
    assert eye.solve(v) == v

    zero = Matrix.zeros(QQ, 2, 2)
    assert zero.solve(vec(QQ, [1, 0])) is None

    d = mat(QQ, [[2, 0], [0, 3]])
    assert d.solve(vec(QQ, [1, 1])) == (QQ.parse("1/2"), QQ.parse("1/3"))


def test_quotient_section_trivial_relations():
    proj, lift = quotient_section(QQ, 3, Subspace.zero(QQ, 3))
    assert proj.is_identity() and lift.is_identity()
    # no relations, however made: both maps are the shared identity itself
    for zero in (Subspace.zero(QQ, 3), Subspace.row_space(Matrix.zeros(QQ, 2, 3))):
        assert quotient_section(QQ, 3, zero) == (Matrix.identity(QQ, 3),) * 2
        assert zero.projector is Matrix.identity(QQ, 3) is zero.lift
    assert Subspace.zero(QQ, 3) is Subspace.zero(QQ, 3) is not Subspace.zero(F5, 3)


@pytest.mark.parametrize("field", [QQ, F5])
def test_a_full_subspace_reads_vectors_as_their_coordinates(field):
    """In a full subspace, made as such or spanned, the coordinates of
    vectors are the vectors and of a stack the stack, the same objects;
    shapes are refused as in any other subspace."""
    rng = random.Random(7)
    n = 4
    X = Matrix(field, n, 3, [field.from_int(rng.randint(-2, 2)) for _ in range(n * 3)])
    S = Matrix(field, 2, n * 3, [field.from_int(rng.randint(-2, 2)) for _ in range(2 * n * 3)])
    spanned = Subspace.row_space(Matrix.identity(field, n).scale(field.from_int(2)))
    assert Subspace.full(field, n) is Subspace.full(field, n) == spanned
    for full in (Subspace.full(field, n), spanned):
        assert full.coordinate_matrix(X) is X
        assert full.stack_coordinates(S, 3) is S
        T = S.reshaped(6, n)
        assert full.stack_coordinates(T) is T and full.first_outside(T) is None
    line = Subspace.from_generators(field, n, [vec(field, [1, 0, 0, 0])])
    for space in (Subspace.full(field, n), spanned, line):
        with pytest.raises(ShapeError, match=r"^vectors of length 3, ambient 4$"):
            space.coordinate_matrix(Matrix.zeros(field, 3, 2))
        with pytest.raises(ShapeError, match=r"^rows of length 10, ambient 4 x 2$"):
            space.stack_coordinates(Matrix.zeros(field, 1, 10), 2)


def test_quotient_section_line_in_plane():
    rel = Subspace.from_generators(QQ, 2, [vec(QQ, [1, -1])])
    proj, lift = quotient_section(QQ, 2, rel)
    assert proj.rows == 1 and lift.cols == 1
    assert (proj * lift).is_identity()
    assert all(x == 0 for x in proj.apply(vec(QQ, [1, -1])))


def test_quotient_section_gf5_random_relations():
    rng = random.Random(7)
    for _ in range(20):
        v = tuple(F5.from_int(rng.randrange(5)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        rel = Subspace.from_generators(F5, 3, [v])
        proj, lift = quotient_section(F5, 3, rel)
        assert proj.rows == 2
        assert (proj * lift).is_identity()
        # kernel of the projector recomputed from scratch equals the relations
        assert proj.kernel() == rel


@pytest.mark.parametrize("field, gens", [
    (QQ, [[1, -1, 0], [2, 0, 3]]),
    (QQ, []),
    (F5, [[0, 2, 4], [1, 1, 1]]),
    (F5, [[3, 0, 1]]),
])
def test_subspace_carries_its_quotient_section(field, gens):
    S = Subspace.from_generators(field, 3, [vec(field, g) for g in gens])
    proj, lift = S.projector, S.lift
    assert (proj, lift) == quotient_section(S.field, S.ambient_dim, S)
    # made on first use and kept: a second access returns the same objects
    assert S.projector is proj and S.lift is lift
    assert (proj * lift).is_identity()
    assert (proj * S.basis_matrix()).is_zero()


def test_tensor_index():
    assert tensor_index(0, 0, 7) == 0
    assert tensor_index(1, 2, 3) == 5
    assert tensor_index(2, 0, 4) == 8
    with pytest.raises(ShapeError):
        tensor_index(0, 3, 3)
    with pytest.raises(ShapeError):
        tensor_index(-1, 0, 3)
    with pytest.raises(ShapeError):
        tensor_index(2, 0, 3, dim_v=2)


def test_intertwiner_space_unconstrained_and_identity():
    full = intertwiner_space(QQ, [], 2, 2)
    assert full.dim == 4
    eye = Matrix.identity(QQ, 2)
    same = intertwiner_space(QQ, [(eye, eye)], 2, 2)
    assert same.dim == 4


def test_intertwiner_space_c2_regular():
    # regular representation of C2: the swap matrix; commutant is 2-dim.
    swap = mat(QQ, [[0, 1], [1, 0]])
    space = intertwiner_space(QQ, [(swap, swap)], 2, 2)
    assert space.dim == 2
    # brute-force oracle: solve the 4x4 system X*swap = swap*X directly
    count = 0
    for entries in itertools.product([0, 1], repeat=4):
        x = mat(QQ, [entries[:2], entries[2:]])
        if x * swap == swap * x:
            count += 1
    assert count == 4  # over {0,1}^4: the 2-dim GF(2)-pattern has 4 points


def test_solve_matrix_and_inverse():
    m = mat(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert (m * inv).is_identity() and (inv * m).is_identity()
    with pytest.raises(ShapeError):
        mat(QQ, [[1, 1], [1, 1]]).inverse()
    with pytest.raises(ShapeError, match="cannot multiply the transpose of 2x2 by 3x1"):
        m.tmul(Matrix.zeros(QQ, 3, 1))


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rank_nullity_rationals(rows, cols, data):
    entries = data.draw(st.lists(small_entries, min_size=rows * cols, max_size=rows * cols))
    m = Matrix(QQ, rows, cols, [QQ.from_int(x) for x in entries])
    assert m.kernel().dim + m.rank() == cols


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_vectors_annihilate(rows, cols, data):
    entries = data.draw(st.lists(st.integers(0, 4), min_size=rows * cols, max_size=rows * cols))
    m = Matrix(F5, rows, cols, entries)
    k = m.kernel()
    for v in k.basis:
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_subspace_canonical_under_permutation(n, data):
    gens = data.draw(st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=1, max_size=4))
    gens = [tuple(QQ.from_int(x) for x in g) for g in gens]
    s1 = Subspace.from_generators(QQ, n, gens)
    s2 = Subspace.from_generators(QQ, n, list(reversed(gens)))
    assert s1.basis == s2.basis


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_quotient_section_contract(n, data):
    gens = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=0, max_size=3))
    rel = Subspace.from_generators(F5, n, gens)
    proj, lift = quotient_section(F5, n, rel)
    assert (proj * lift).is_identity()
    for r in rel.basis:
        assert all(x == 0 for x in proj.apply(r))
    assert proj.kernel() == rel


# -- coordinates read at the pivots, one elimination per solve_matrix -----------

def test_coordinates_need_the_whole_vector():
    # span{(1, 0, 2), (0, 1, 3)} has pivots 0 and 1: (1, 1, 0) agrees with
    # the member (1, 1, 5) at both pivots and is still not a member
    s = Subspace.from_generators(QQ, 3, [vec(QQ, [1, 0, 2]), vec(QQ, [0, 1, 3])])
    assert s.coordinates(vec(QQ, [1, 1, 5])) == vec(QQ, [1, 1])
    assert s.coordinates(vec(QQ, [1, 1, 0])) is None
    assert Subspace.zero(QQ, 2).coordinates(vec(QQ, [0, 0])) == ()
    assert Subspace.zero(QQ, 2).coordinates(vec(QQ, [0, 1])) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_coordinates_agree_with_solve_gf5(n, data):
    gens = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=4))
    s = Subspace.from_generators(F5, n, gens)
    probes = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=3))
    # and a member: a combination of the generators
    cs = data.draw(st.lists(st.integers(0, 4), min_size=len(gens), max_size=len(gens)))
    probes.append([sum(c * g[i] for c, g in zip(cs, gens)) % 5 for i in range(n)])
    for v in probes:
        want = s.basis_matrix().solve(tuple(v)) if s.basis else \
            (() if not any(v) else None)
        assert s.coordinates(tuple(v)) == want
    vecs = Matrix.from_cols(F5, [tuple(v) for v in probes], ambient=n)
    cm = s.coordinate_matrix(vecs)
    cols = [s.coordinates(tuple(v)) for v in probes]
    assert (cm is None) == (None in cols)
    if cm is not None:
        assert [cm.col(j) for j in range(cm.cols)] == cols


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.data())
def test_solve_matrix_is_columnwise_solve(rows, cols, width, data):
    a = Matrix(F5, rows, cols, data.draw(st.lists(
        st.integers(0, 4), min_size=rows * cols, max_size=rows * cols)))
    b = Matrix(F5, rows, width, data.draw(st.lists(
        st.integers(0, 4), min_size=rows * width, max_size=rows * width)))
    x = a.solve_matrix(b)
    per_column = [a.solve(b.col(j)) for j in range(width)]
    if None in per_column:
        assert x is None
    else:
        assert x == Matrix.from_cols(F5, per_column, ambient=cols)


def test_stacks_of_maps():
    # two maps k^3 -> k^2 as one stack: row b is vec(F_b)
    blocks = [mat(QQ, [[1, 2, 0], [0, 1, 3]]), mat(QQ, [[4, 0, 1], [1, 1, 1]])]
    stack = Matrix.from_rows(QQ, [b.entries for b in blocks])
    a = mat(QQ, [[1, 1], [2, -1], [0, 5]])
    c = mat(QQ, [[1, 0], [2, 1], [0, -1]])
    assert stack_lmul(a, stack) == Matrix.from_rows(QQ, [(a * b).entries for b in blocks])
    assert stack_rmul(stack, c) == Matrix.from_rows(QQ, [(b * c).entries for b in blocks])
    s = Subspace.from_generators(QQ, 6, [b.entries for b in blocks])
    assert s.stack_coordinates(s.basis_stack()).is_identity()
    with pytest.raises(ShapeError):
        stack_rmul(stack, Matrix.identity(QQ, 4))
    with pytest.raises(ShapeError):
        swap_slots(stack, 4, 1)
    # one map is the one-row stack of vec(F); maps one below the other are not
    assert stack_of_maps(blocks[1], 2) == stack.row_blocks(1)[1]
    with pytest.raises(ShapeError):
        stack_of_maps(vstack(QQ, 3, blocks), 2)
    # one map is re-read on the swapped domain only at its exact width
    assert swap_factors(blocks[0].reshaped(1, 6), 2, 3) == swap_slots(stack, 2, 3).row_blocks(1)[0]
    with pytest.raises(ShapeError):
        swap_factors(stack, 3, 1)
    assert swap_factors(Matrix.zeros(QQ, 2, 0), 0, 3) == Matrix.zeros(QQ, 2, 0)
    # side by side, every block must have the stated rows
    assert hstack(QQ, 2, blocks) == mat(QQ, [[1, 2, 0, 4, 0, 1], [0, 1, 3, 1, 1, 1]])
    with pytest.raises(ShapeError):
        hstack(QQ, 2, [blocks[0], Matrix.identity(QQ, 1)])


# -- the sparse Kronecker accumulator ------------------------------------------

def entrywise_kron(a, b):
    """a (x) b entry by entry: a[i, j] b[k, l] sits in row tensor_index(i, k)
    and column tensor_index(j, l)."""
    f = a.field
    ent = [[f.zero] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i, j, k, l in itertools.product(range(a.rows), range(a.cols),
                                        range(b.rows), range(b.cols)):
        ent[tensor_index(i, k, b.rows)][tensor_index(j, l, b.cols)] = \
            f.mul(a.get(i, j), b.get(k, l))
    return Matrix(f, a.rows * b.rows, a.cols * b.cols, [x for r in ent for x in r])


def dense_kron_sum(field, rows, cols, terms):
    """The reference: sum of c * (F_1 (x) ... (x) F_k), one dense matrix per term."""
    out = Matrix.zeros(field, rows, cols)
    for c, factors in terms:
        prod = factors[0]
        for g in factors[1:]:
            prod = entrywise_kron(prod, g)
        out = out + prod.scale(c)
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(0, 4), st.booleans(), st.data())
def test_kron_sum_is_the_dense_sum_gf5(shapes, n_terms, cancel, data):
    rows = cols = 1
    for r, c in shapes:
        rows, cols = rows * r, cols * c
    # sparse factors: most entries zero, as in action matrices
    entry = st.sampled_from([0, 0, 0, 1, 2, 3, 4])
    terms = [(data.draw(st.integers(0, 4)),
              [Matrix(F5, r, c, data.draw(st.lists(entry, min_size=r * c, max_size=r * c)))
               for r, c in shapes])
             for _ in range(n_terms)]
    if cancel and terms:
        # a term and its negative: together they add up to zero
        c, factors = terms[0]
        terms.append((F5.neg(c), factors))
    got = kron_sum(F5, rows, cols, terms)
    assert got == dense_kron_sum(F5, rows, cols, terms)
    assert kron_sum(F5, rows, cols, terms[::-1]) == got
    if cancel and n_terms == 1:
        assert got.is_zero()


def test_kron_sum_edge_cases():
    a = mat(QQ, [[1, 0], [0, 2]])
    b = mat(QQ, [[0, 3, 1]])
    assert kron_sum(QQ, 2, 6, []) == Matrix.zeros(QQ, 2, 6)
    assert kron_sum(QQ, 2, 6, [(QQ.zero, [a, b])]) == Matrix.zeros(QQ, 2, 6)
    two = QQ.from_int(2)
    assert kron_sum(QQ, 2, 6, [(two, [a, b]), (QQ.neg(two), [a, b])]).is_zero()
    assert a.kron(b) == entrywise_kron(a, b)
    assert b.transpose().kron(a) == entrywise_kron(b.transpose(), a)
    # an element's action: a one-factor sum
    assert kron_sum(QQ, 2, 2, [(QQ.from_int(3), [a]), (QQ.one, [a])]) == a.scale(two + two)
    with pytest.raises(ShapeError):
        kron_sum(QQ, 2, 6, [(QQ.one, [a, b]), (QQ.one, [a, a])])


# -- the sparse core against dense references -----------------------------------
#
# A dense matrix here is a list of rows of field scalars.  Every reference is
# written entry by entry, with no call into linalg.

Q_SCALARS = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def scalars(field):
    if field.characteristic:
        return st.sampled_from([0, 0, 0, 1, 2, 3, 4])
    # a fresh Fraction(0) for every zero, not the field's shared one
    return st.sampled_from(Q_SCALARS).map(Fraction)


def dense(field, rows, cols):
    return st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def of_dense(field, d, cols):
    return Matrix(field, len(d), cols, [a for r in d for a in r])


def assert_matches(m, d, rows, cols):
    """m holds exactly the dense d, and stores only nonzeros, in range."""
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == tuple(a for r in d for a in r)
    assert m.row_list() == [list(r) for r in d]
    assert all(0 <= j < cols and a != 0 for r in m._rows for j, a in r.items())
    assert not linalg._EMPTY, "the shared empty row was written to"


def dense_mul(f, a, b, inner, cols):
    return [[sum_(f, (f.mul(r[k], b[k][j]) for k in range(inner))) for j in range(cols)]
            for r in a]


def sum_(f, xs):
    s = f.zero
    for x in xs:
        s = f.add(s, x)
    return s


def dense_transpose(d, rows, cols):
    return [[d[i][j] for i in range(rows)] for j in range(cols)]


def old_rref(f, m, nr, nc):
    """The dense Gauss-Jordan elimination this package used before it stored
    only nonzeros: rows as lists, lowest pivot column first."""
    m = [list(r) for r in m]
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        if not f.is_one(m[r][c]):
            m[r] = [f.mul(inv, a) for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                q = m[i][c]
                m[i] = [f.sub(a, f.mul(q, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def old_kernel_basis(f, m, nr, nc):
    red, pivots = old_rref(f, m, nr, nc)
    gens = []
    for c in range(nc):
        if c in pivots:
            continue
        v = [f.zero] * nc
        v[c] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][c])
        gens.append(v)
    red, pivots = old_rref(f, gens, len(gens), nc)
    return tuple(tuple(r) for r in red[:len(pivots)])


def old_solve_matrix(f, a, b, nr, n, w):
    red, pivots = old_rref(f, [ra + rb for ra, rb in zip(a, b)], nr, n + w)
    if pivots and pivots[-1] >= n:
        return None
    out = [[f.zero] * w for _ in range(n)]
    for r, c in enumerate(pivots):
        out[c] = red[r][n:]
    return out


FIELDS = [F5, QQ]
shape = st.integers(0, 4)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(rows=shape, inner=shape, cols=shape, data=st.data())
def test_products_and_sums_match_dense(field, rows, inner, cols, data):
    f = field
    da, db = data.draw(dense(f, rows, inner)), data.draw(dense(f, inner, cols))
    dc = data.draw(dense(f, rows, inner))
    a, b, c = of_dense(f, da, inner), of_dense(f, db, cols), of_dense(f, dc, inner)
    assert_matches(a, da, rows, inner)
    assert_matches(a * b, dense_mul(f, da, db, inner, cols), rows, cols)
    assert_matches(a + c, [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(da, dc)],
                   rows, inner)
    assert_matches(a - c, [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(da, dc)],
                   rows, inner)
    assert_matches(-a, [[f.neg(x) for x in r] for r in da], rows, inner)
    k = data.draw(scalars(f))
    assert_matches(a.scale(k), [[f.mul(k, x) for x in r] for r in da], rows, inner)
    v = data.draw(st.lists(scalars(f), min_size=inner, max_size=inner))
    assert a.apply(tuple(v)) == tuple(sum_(f, (f.mul(x, y) for x, y in zip(r, v))) for r in da)
    assert_matches(a.transpose(), dense_transpose(da, rows, inner), inner, rows)
    dd = data.draw(dense(f, rows, cols))
    assert_matches(a.tmul(of_dense(f, dd, cols)),
                   dense_mul(f, dense_transpose(da, rows, inner), dd, rows, cols), inner, cols)
    assert [a.get(i, j) for i in range(rows) for j in range(inner)] == list(a.entries)
    assert [a.col(j) for j in range(inner)] == [tuple(r[j] for r in da) for j in range(inner)]
    assert a.is_zero() == all(x == 0 for r in da for x in r)
    assert a.is_identity() == (rows == inner and all(
        da[i][j] == (1 if i == j else 0) for i in range(rows) for j in range(inner)))
    # equal matrices hash equally, however they were reached
    assert (a == c) == (da == dc)
    assert a + c == c + a and hash(a + c) == hash(c + a)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(rows=shape, cols=shape, data=st.data())
def test_zeros_are_never_stored(field, rows, cols, data):
    f = field
    d = data.draw(dense(f, rows, cols))
    a = of_dense(f, d, cols)
    zero = Matrix.zeros(f, rows, cols)
    for z in (a - a, a + (-a), a.scale(f.zero), a.scale(f.one) - a):
        assert z == zero and hash(z) == hash(zero) and z.is_zero()
        assert not any(z._rows)
    # fresh zeros and the field's shared zero give the same matrix
    fresh = Matrix(f, rows, cols, [f.from_int(0)] * (rows * cols))
    assert fresh == zero and hash(fresh) == hash(zero)
    shared = Matrix(f, rows, cols, [f.zero if x == 0 else x for r in d for x in r])
    assert shared == a and hash(shared) == hash(a)
    assert Matrix.identity(f, rows) - Matrix.identity(f, rows) == Matrix.zeros(f, rows, rows)


def test_shared_scalars():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.parse(" 0 ") == 0 and QQ.parse("1") == 1
    # integral rationals are ints, the rest Fractions
    assert [type(QQ.parse(s)) for s in ("1", "-3", "4/2", "-1/2")] == [int, int, int, Fraction]
    assert F5.parse("1") == 1 and F5.parse("0") == 0 and F5.parse("6") == 1
    assert [QQ.format(x) for x in (QQ.zero, QQ.one, QQ.parse("-1/2"), QQ.from_int(7))] == \
        ["0", "1", "-1/2", "7"]
    assert [F5.format(x) for x in (0, 1, 4)] == ["0", "1", "4"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), h=st.integers(1, 3), c=st.integers(1, 3), data=st.data())
def test_stacks_and_index_permutations_match_dense(field, k, h, c, data):
    f = field
    d = data.draw(dense(f, k * h, c))
    s = of_dense(f, d, c)
    # the row blocks of h rows side by side
    side = [[d[j * h + r][x] for j in range(k) for x in range(c)] for r in range(h)]
    assert_matches(hstack(f, h, s.row_blocks(h)), side, h, k * c)
    flat = [a for r in d for a in r]
    assert_matches(s.reshaped(k, h * c), [flat[i * h * c:(i + 1) * h * c] for i in range(k)],
                   k, h * c)
    # a permutation of the nonzeros: the rows in reverse order
    assert_matches(s.reindexed(k * h, c, lambda i, j: (k * h - 1 - i, j)), d[::-1], k * h, c)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(r1=shape, r2=shape, c1=shape, c2=shape, data=st.data())
def test_block_matrix_matches_dense(field, r1, r2, c1, c2, data):
    f = field
    da, db = data.draw(dense(f, r1, c1)), data.draw(dense(f, r2, c2))
    got = block_matrix(f, r1 + r2, c1 + c2, [(0, 0, of_dense(f, da, c1)),
                                             (r1, c1, of_dense(f, db, c2))])
    want = [r + [f.zero] * c2 for r in da] + [[f.zero] * c1 + r for r in db]
    assert_matches(got, want, r1 + r2, c1 + c2)
    with pytest.raises(ShapeError):
        block_matrix(f, r1, c1 + c2, [(0, c1 + 1, of_dense(f, db, c2))])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(rows=shape, cols=shape, width=st.integers(0, 3), data=st.data())
def test_elimination_matches_the_old_dense_elimination(field, rows, cols, width, data):
    f = field
    d = data.draw(dense(f, rows, cols))
    if rows >= 3 and data.draw(st.booleans()):
        # a dependent row, and with four rows an all-zero one
        d[2] = [f.add(x, y) for x, y in zip(d[0], d[1])]
        d[3:] = [[f.zero] * cols for _ in d[3:]]
    m = of_dense(f, d, cols)
    red, pivots = m.rref()
    want, want_pivots = old_rref(f, d, rows, cols)
    assert pivots == want_pivots
    assert_matches(red, want, rows, cols)
    assert m.rank() == len(want_pivots)
    assert m.kernel().basis == old_kernel_basis(f, d, rows, cols)
    assert Subspace.from_generators(f, cols, d).basis == \
        tuple(tuple(r) for r in want[:len(want_pivots)])
    db = data.draw(dense(f, rows, width))
    x = m.solve_matrix(of_dense(f, db, width))
    want_x = old_solve_matrix(f, d, db, rows, cols, width)
    if want_x is None:
        assert x is None
    else:
        assert_matches(x, want_x, cols, width)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 14), data=st.data())
def test_back_substitution_on_sparse_matrices(field, rows, cols, data):
    """Sparse rows with many pivots, so that pivot columns are cleared from
    several earlier rows at once; the RREF matches the dense elimination,
    which clears every other row at each pivot."""
    f = field
    nonzero = scalars(f).filter(lambda a: a != 0)
    d = [[f.zero] * cols for _ in range(rows)]
    for i in range(rows):
        for j in data.draw(st.lists(st.integers(0, cols - 1), max_size=3)):
            d[i][j] = f.add(d[i][j], data.draw(nonzero))
    red, pivots = of_dense(f, d, cols).rref()
    want, want_pivots = old_rref(f, d, rows, cols)
    assert pivots == want_pivots
    assert_matches(red, want, rows, cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
def test_subspace_maps_match_dense(field, n, cols, data):
    f = field
    gens = data.draw(dense(f, data.draw(st.integers(0, 4)), n * cols))
    s = Subspace.from_generators(f, n * cols, gens)
    basis = [list(v) for v in s.basis]
    assert_matches(s.basis_matrix(), dense_transpose(basis, s.dim, n * cols), n * cols, s.dim)
    assert_matches(s.basis_stack(), basis, s.dim, n * cols)
    assert s.pivots() == [next(j for j, a in enumerate(v) if a != 0) for v in basis]
    # a member (a combination of the basis) and an arbitrary vector
    cs = data.draw(st.lists(scalars(f), min_size=s.dim, max_size=s.dim))
    member = [sum_(f, (f.mul(c, v[j]) for c, v in zip(cs, basis))) for j in range(n * cols)]
    probe = data.draw(st.lists(scalars(f), min_size=n * cols, max_size=n * cols))
    vecs = Matrix.from_cols(f, [member], ambient=n * cols)
    assert_matches(s.coordinate_matrix(vecs), [[c] for c in cs], s.dim, 1)
    in_s = old_rref(f, basis + [probe], s.dim + 1, n * cols)[1] == s.pivots()
    assert (s.coordinates(tuple(probe)) is not None) == in_s
    assert s.stack_coordinates(s.basis_stack()) == Matrix.identity(f, s.dim)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3), data=st.data())
def test_intertwiner_space_matches_dense_system(field, rows, cols, data):
    f = field
    pairs = [(data.draw(dense(f, cols, cols)), data.draw(dense(f, rows, rows)))
             for _ in range(data.draw(st.integers(1, 2)))]
    got = intertwiner_space(f, [(of_dense(f, a, cols), of_dense(f, b, rows))
                                for a, b in pairs], rows, cols)
    # the row of the system for entry (i, j) of X A - B X, on row-major vec(X)
    system = []
    for a, b in pairs:
        for i in range(rows):
            for j in range(cols):
                row = [f.zero] * (rows * cols)
                for k in range(cols):
                    row[i * cols + k] = f.add(row[i * cols + k], a[k][j])
                for k in range(rows):
                    row[k * cols + j] = f.sub(row[k * cols + j], b[i][k])
                system.append(row)
    assert got.basis == old_kernel_basis(f, system, len(system), rows * cols)


@pytest.mark.parametrize("field", [rationals(), prime_field(5), prime_field(2)])
def test_parse_returns_the_shared_zero_and_one(field):
    for text in ("0", " 0 ", "0\n"):
        assert field.parse(text) is field.zero
    for text in ("1", " 1"):
        assert field.parse(text) is field.one
    assert field.parse("2") == field.from_int(2)


def reindexed_transpose(m):
    """The transpose as an index permutation of the nonzeros."""
    return m.reindexed(m.cols, m.rows, lambda i, j: (j, i))


@pytest.mark.parametrize("field", [QQ, F5, prime_field(7)], ids=str)
@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 9), cols=st.integers(0, 9), data=st.data())
def test_transpose_matches_the_reindexed_transpose(field, rows, cols, data):
    """Sparse matrices, 0 x n and n x 0 among them, with all-zero rows and
    columns: the direct transpose equals the reindexed one, transposing
    twice is the identity, every empty row is the shared one, and no row
    dict of either matrix is changed."""
    f = field
    nonzero = scalars(f).filter(lambda a: a != 0)
    d = [[f.zero] * cols for _ in range(rows)]
    for i in data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        for j in data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=3)):
            if rows and cols:
                d[i][j] = data.draw(nonzero)
    m = of_dense(f, d, cols)
    m_rows, m_copies = m._rows, [dict(r) for r in m._rows]
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t == reindexed_transpose(m)
    assert_matches(t, dense_transpose(d, rows, cols), cols, rows)
    assert all(r is linalg._EMPTY for r in t._rows if not r)
    t_copies = [dict(r) for r in t._rows]
    back = t.transpose()
    assert back == m
    assert all(r is linalg._EMPTY for r in back._rows if not r)
    assert m._rows is m_rows and [dict(r) for r in m._rows] == m_copies
    assert [dict(r) for r in t._rows] == t_copies


def draw_sparse(data, f, rows, cols):
    """A rows x cols matrix with a few nonzeros in some rows, so that most
    rows (and all of a 0-sized shape) are empty."""
    nonzero = scalars(f).filter(lambda a: a != 0)
    d = [[f.zero] * cols for _ in range(rows)]
    for i in data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        for j in data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=3)):
            if rows and cols:
                d[i][j] = data.draw(nonzero)
    return of_dense(f, d, cols)


def reindexed_forms(m, k, w):
    """Each index kernel with its own arguments, and its form as one index
    map per nonzero through reindexed: m is (k*h) x (k*w) for some h."""
    r, c = m.rows, m.cols
    forms = [(m.reshaped(r * k, c // k), m.reindexed(
                r * k, c // k, lambda i, j: divmod(i * c + j, c // k))),
             # columns (p, i, j) in range(k) x range(w) x range(1) read as (p, j, i),
             # and (p, i, j) in range(1) x range(k) x range(w) as (p, j, i)
             (swap_slots(m, w, 1), m),
             (swap_slots(m, k, w), m.reindexed(r, c, lambda i, j: (i, j % w * k + j // w)))]
    if r:
        h = r // k
        forms.append((m.reshaped(h, c * k), m.reindexed(h, c * k, lambda i, j: divmod(i * c + j, c * k))))
    # g columns, neither a row split nor a row merge: the general reshape
    for g in [g for g in range(2, r * c) if r * c % g == 0 and c % g and g % c][:1]:
        forms.append((m.reshaped(r * c // g, g), m.reindexed(
            r * c // g, g, lambda i, j: divmod(i * c + j, g))))
    return forms


@pytest.mark.parametrize("field", [QQ, F5, prime_field(7)], ids=str)
@settings(max_examples=80, deadline=None)
@given(h=st.integers(0, 4), k=st.integers(1, 3), w=st.integers(1, 3), data=st.data())
def test_index_kernels_match_their_reindexed_forms(field, h, k, w, data):
    """reshaped (row split, row merge and the general case) and swap_slots
    on sparse matrices, 0-sized ones among them: each equals its reindexed
    form with the same row order, every empty row is the shared one, every
    other row a new dict, and no row dict of the source changes."""
    m = draw_sparse(data, field, k * h, k * w)
    m_rows, m_copies = m._rows, [dict(r) for r in m._rows]
    for got, want in reindexed_forms(m, k, w):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert [list(r.items()) for r in got._rows] == [list(r.items()) for r in want._rows]
        assert got.entries == want.entries
        assert all(r is linalg._EMPTY for r in got._rows if not r)
        assert not any(r is s for r in got._rows if r for s in m_rows)
    assert not linalg._EMPTY, "the shared empty row was written to"
    assert m._rows is m_rows and [dict(r) for r in m._rows] == m_copies


# -- stacks of maps against per-map dense products and reshapes ------------------
#
# A stack holds maps F_b: k^x -> k^y as the rows vec(F_b); each reference
# below builds every map as a dense y x x matrix and works map by map.

def stack_of(f, maps, rows, cols):
    return Matrix(f, len(maps), rows * cols, [a for m in maps for r in m for a in r])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 3), y=st.integers(1, 3), x=st.integers(1, 3), z=st.integers(1, 3),
       data=st.data())
def test_stack_products_match_per_map_dense_products(field, k, y, x, z, data):
    """stack_rmul(S, C) is the stack of the F_b C, and stack_lmul(B, S) that
    of the B F_b, for zero maps, empty stacks and scalars of every kind."""
    f = field
    maps = [data.draw(dense(f, y, x)) for _ in range(k)]
    c, b = data.draw(dense(f, x, z)), data.draw(dense(f, z, y))
    S = stack_of(f, maps, y, x)
    right = [[a for r in dense_mul(f, m, c, x, z) for a in r] for m in maps]
    left = [[a for r in dense_mul(f, b, m, y, x) for a in r] for m in maps]
    assert_matches(stack_rmul(S, of_dense(f, c, z)), right, k, y * z)
    assert_matches(stack_lmul(of_dense(f, b, y), S), left, k, z * x)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 3), p=st.integers(1, 3), d1=st.integers(1, 3), d2=st.integers(1, 3),
       data=st.data())
def test_curry_uncurry_and_swap_are_inverse_column_permutations(field, k, p, d1, d2, data):
    """On a stack of maps k^(d1 d2) -> k^p, swap_slots(., d1, d2) curries each
    map F into G with G[a d2 + b, i] = F[a, i d2 + b] (the dense reshape),
    swap_slots(., d2, d1) uncurries it back, and on one map of domain
    V1 (x) V2 the same call re-reads it on V2 (x) V1."""
    f = field
    S = draw_sparse(data, f, k, p * d1 * d2)
    T = swap_slots(S, d1, d2)
    assert swap_slots(T, d2, d1) == S
    for s_row, t_row in zip(S.row_list(), T.row_list()):
        F = [s_row[a * d1 * d2:(a + 1) * d1 * d2] for a in range(p)]
        curried = [[F[a][i * d2 + b] for i in range(d1)] for a in range(p) for b in range(d2)]
        assert t_row == [v for r in curried for v in r]
    m = draw_sparse(data, f, p, d1 * d2)
    swapped = [[r[j % d1 * d2 + j // d1] for j in range(d1 * d2)] for r in m.row_list()]
    assert_matches(swap_factors(m, d1, d2), swapped, p, d1 * d2)
    assert swap_factors(swap_factors(m, d1, d2), d2, d1) == m


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), after=st.integers(1, 3), k=st.integers(1, 3), data=st.data())
def test_basis_rows_and_stack_coordinates_round_trip(field, n, after, k, data):
    """Maps k^after -> k^n with every column in a subspace s come back as
    their coordinate maps, and the basis rows as the identity; one map
    moved off s at a random entry makes the whole stack None, and
    first_outside names that map."""
    f = field
    s = Subspace.from_generators(f, n, data.draw(dense(f, data.draw(st.integers(0, 4)), n)))
    assert s.stack_coordinates(s.basis_stack()) == Matrix.identity(f, s.dim)
    basis = [list(v) for v in s.basis]
    coords = [data.draw(dense(f, s.dim, after)) for _ in range(k)]
    maps = [[[sum_(f, (f.mul(c[r][t], basis[r][y]) for r in range(s.dim)))
              for t in range(after)] for y in range(n)] for c in coords]
    assert s.stack_coordinates(stack_of(f, maps, n, after), after) == \
        stack_of(f, coords, s.dim, after)
    assert s.first_outside(stack_of(f, [[[a] for a in r] for m in maps for r in zip(*m)],
                                    n, 1)) is None
    free = [y for y in range(n) if y not in s.pivots()]
    if free:
        b, y = data.draw(st.integers(0, k - 1)), data.draw(st.sampled_from(free))
        t = data.draw(st.integers(0, after - 1))
        maps[b][y][t] = f.add(maps[b][y][t], f.one)
        assert s.stack_coordinates(stack_of(f, maps, n, after), after) is None
        columns = [[[a] for a in col] for m in maps for col in zip(*m)]
        assert s.first_outside(stack_of(f, columns, n, 1)) == b * after + t


def test_column_maps_are_the_transpose_rows_made_once():
    """col_maps() is the rows of the transpose, kept on the matrix: the same
    tuple on every call, for a matrix made from dense entries or sparse rows."""
    m = mat(QQ, [[0, 2, 0], [1, 0, 0], [0, 3, -1], [0, 0, 0]])
    for a in (m, m.transpose(), m * Matrix.identity(QQ, 3), Matrix.zeros(F5, 2, 3)):
        cols = a.col_maps()
        assert cols == a.transpose()._rows
        assert a.col_maps() is cols
