"""Sparse exact linear algebra: matrices, canonical subspaces, quotients.

A matrix stores each row as a dict {column: value} of its nonzero entries
and never stores a zero (all its zero rows are one shared empty dict), so
every kernel (products, sums, Kronecker sums, index permutations, stacks,
comparison, elimination) visits the nonzeros only.  Dense row-major entries go in through the constructor and come out
through ``entries``, ``row``, ``col`` and ``get``.

A matrix decides once, from its rows, whether it is an identity (square,
row i exactly {i: 1}; ``Matrix.identity``, made once per field and size,
is one from the start), and keeps the answer.  An identity is never
applied: a product, slot product or stack product with one is the other
operand itself, a Kronecker product with the 1 x 1 identity is the other
factor, and an identity is its own transpose.  Shapes are checked first,
with the same errors.

Everything here is deterministic and exact.  Subspaces are always stored
with a reduced-row-echelon basis (pivot search by lowest column index), so
equal subspaces have identical stored bases and all downstream reports are
bit-reproducible.  Matrices are immutable once built; their row dicts are
never changed after construction, so matrices may share them.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress
from math import prod

from .fields import Field, nonzero_map


class ShapeError(ValueError):
    """Dimension mismatch between matrices/vectors."""


def tensor_index(i: int, j: int, dim_w: int, dim_v: int | None = None) -> int:
    """Index of e_i (x) e_j in V (x) W, left factor major, 0-based.

    ``dim_v`` is optional; when given, ``i`` is range-checked against it.
    """
    if not 0 <= j < dim_w:
        raise ShapeError("second index %d out of range [0, %d)" % (j, dim_w))
    if i < 0 or (dim_v is not None and i >= dim_v):
        raise ShapeError("first index %d out of range" % i)
    return i * dim_w + j


# every all-zero row of every matrix is this one dict, so a mostly empty
# matrix costs one reference per zero row; row dicts are never changed
# once they are in a matrix
_EMPTY = {}


def _filled(rows):
    """The indices of the nonempty rows, skipping the empty ones in C."""
    return compress(range(len(rows)), rows)


def _row_list(rows: int, given: dict) -> list:
    """rows row dicts: those of given ({row: dict}) where nonempty, the
    shared empty row elsewhere."""
    out = [_EMPTY] * rows
    for i, r in given.items():
        if r:
            out[i] = r
    return out


class Matrix:
    """Immutable sparse matrix over an exact field: one {column: nonzero}
    dict per row."""

    __slots__ = ("field", "rows", "cols", "_rows", "_cols", "_eye")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        """The matrix with the given dense row-major entries; zeros are
        dropped, and integral Fractions are stored as ints."""
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ShapeError("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self._rows = tuple(nonzero_map(entries[i * cols:(i + 1) * cols]) or _EMPTY
                           for i in range(rows))
        self._cols = self._eye = None

    @classmethod
    def _sparse(cls, field: Field, rows: int, cols: int, row_maps) -> "Matrix":
        """The matrix with the given {column: value} rows, taken as they are:
        one map per row, columns in range and no zero values."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._rows = tuple(row_maps)
        m._cols = m._eye = None
        return m

    # -- construction --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._sparse(field, rows, cols, [_EMPTY] * rows)

    @staticmethod
    @cache
    def identity(field: Field, n: int) -> "Matrix":
        """The n x n identity, made once per field and size: a matrix and
        its row dicts never change, so every caller may share it."""
        one = field.one
        m = Matrix._sparse(field, n, n, [{i: one} for i in range(n)])
        m._eye = True
        return m

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
        return Matrix._sparse(field, len(rows), ncols,
                              [nonzero_map(r) or _EMPTY for r in rows])

    @staticmethod
    def from_cols(field: Field, cols, ambient: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        nrows = len(cols[0]) if cols else (ambient or 0)
        out = [{} for _ in range(nrows)]
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ShapeError("ragged columns")
            for i, a in nonzero_map(c).items():
                out[i][j] = a
        return Matrix._sparse(field, nrows, len(cols), [r or _EMPTY for r in out])

    # -- access ---------------------------------------------------------

    def get(self, i: int, j: int):
        return self._rows[i].get(j, self.field.zero)

    def row(self, i: int):
        r, zero = self._rows[i], self.field.zero
        return tuple(r.get(j, zero) for j in range(self.cols)) if r else (zero,) * self.cols

    def col(self, j: int):
        zero = self.field.zero
        return tuple(r.get(j, zero) for r in self._rows)

    def col_maps(self):
        """Every column as a {row: nonzero value} dict: the rows of the
        transpose, made on the first call and kept, as a matrix never
        changes."""
        if self._cols is None:
            self._cols = self.transpose()._rows
        return self._cols

    def row_map(self, i: int) -> dict:
        """Row i as its {column: nonzero value} dict, which is shared."""
        return self._rows[i]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self):
        """The dense row-major entries, built on each access."""
        return tuple(a for i in range(self.rows) for a in self.row(i))

    def _nonzeros(self):
        """The nonzero entries as (row, column, value), row-major."""
        rows = self._rows
        return [(i, j, a) for i in _filled(rows) for j, a in rows[i].items()]

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._nonzeros())))

    def pattern(self):
        """The shape and the nonzero columns of every row: equal for equal
        matrices, and hashable without reading a scalar."""
        return self.rows, self.cols, tuple(map(frozenset, self._rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.field.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.field.sub)

    def _merge(self, other: "Matrix", op) -> "Matrix":
        """The entrywise op(self, other) for op = add or sub (op(0, 0) = 0)."""
        self._same_shape(other)
        zero = self.field.zero
        out = list(self._rows)
        for i in _filled(other._rows):
            d = dict(out[i])
            for j, b in other._rows[i].items():
                v = op(d.get(j, zero), b)
                if v:
                    d[j] = v
                else:
                    del d[j]
            out[i] = d or _EMPTY
        return Matrix._sparse(self.field, self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._sparse(self.field, self.rows, self.cols,
                              [{j: neg(a) for j, a in r.items()} if r else _EMPTY
                               for r in self._rows])

    def scale(self, c) -> "Matrix":
        if not c:
            return Matrix.zeros(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix._sparse(self.field, self.rows, self.cols,
                              [{j: mul(c, a) for j, a in r.items()} if r else _EMPTY
                               for r in self._rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # a product with an identity is its other factor
        eye = self._eye
        if eye or eye is None and self.is_identity():
            return other
        eye = other._eye
        if eye or eye is None and other.is_identity():
            return self
        f = self.field
        add, mul = f.add, f.mul
        srows, orows = self._rows, other._rows
        out = [_EMPTY] * self.rows
        for i in _filled(srows):
            ra = srows[i]
            if len(ra) == 1:
                # one nonzero: a scaled row of other, with nothing to cancel
                (k, a), = ra.items()
                out[i] = orows[k] if a == 1 or not orows[k] else \
                    {j: mul(a, b) for j, b in orows[k].items()}
                continue
            acc = {}
            for k, a in ra.items():
                for j, b in orows[k].items():
                    acc[j] = add(acc[j], mul(a, b)) if j in acc else mul(a, b)
            out[i] = (acc if all(acc.values()) else
                      {j: v for j, v in acc.items() if v}) or _EMPTY
        return Matrix._sparse(f, self.rows, other.cols, out)

    def tmul(self, other: "Matrix") -> "Matrix":
        """self^T other with no transpose formed: each row r that other
        holds adds the products of row r of self with row r of other, so
        only the rows of self that other picks are read."""
        if self.rows != other.rows:
            raise ShapeError("cannot multiply the transpose of %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        add, mul = f.add, f.mul
        srows, orows, out = self._rows, other._rows, {}
        for r in _filled(orows):
            rb = orows[r]
            for p, a in srows[r].items():
                acc = out.get(p)
                if acc is None:
                    acc = out[p] = {}
                for j, b in rb.items():
                    w = mul(a, b)
                    acc[j] = add(acc[j], w) if j in acc else w
        return Matrix._sparse(f, self.cols, other.cols, _row_list(self.cols, {
            p: r if all(r.values()) else {j: v for j, v in r.items() if v}
            for p, r in out.items()}))

    def apply(self, vec):
        """Matrix times column vector (a tuple), returning a tuple."""
        if len(vec) != self.cols:
            raise ShapeError("vector length %d != cols %d" % (len(vec), self.cols))
        f = self.field
        add, mul = f.add, f.mul
        out = []
        for r in self._rows:
            s = f.zero
            for j, a in r.items():
                v = vec[j]
                if v:
                    s = add(s, mul(a, v))
            out.append(s)
        return tuple(out)

    def reindexed(self, rows: int, cols: int, index) -> "Matrix":
        """The rows x cols matrix holding entry (i, j) of self at index(i, j),
        for a one-to-one index map into range: a permutation of the nonzeros."""
        src, out = self._rows, {}
        for i in _filled(src):
            for j, a in src[i].items():
                p, q = index(i, j)
                r = out.get(p)
                if r is None:
                    out[p] = {q: a}
                else:
                    r[q] = a
        return Matrix._sparse(self.field, rows, cols, _row_list(rows, out))

    def reshaped(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries read as a rows x cols matrix: each
        nonzero moved by one divmod of its row-major index, in order."""
        if rows * cols != self.rows * self.cols:
            raise ShapeError("cannot reshape %dx%d to %dx%d"
                             % (self.rows, self.cols, rows, cols))
        src, c, out = self._rows, self.cols, {}
        for i in _filled(src):
            for j, a in src[i].items():
                p, q = divmod(i * c + j, cols)
                r = out.get(p)
                if r is None:
                    out[p] = {q: a}
                else:
                    r[q] = a
        return Matrix._sparse(self.field, rows, cols, _row_list(rows, out))

    def transpose(self) -> "Matrix":
        """Each nonzero moved from its row dict into a new dict for its
        column; a column with no nonzero is the shared empty row.  An
        identity is its own transpose."""
        if self.is_identity():
            return self
        src, out = self._rows, [None] * self.cols
        for i in _filled(src):
            for j, a in src[i].items():
                r = out[j]
                if r is None:
                    out[j] = {i: a}
                else:
                    r[i] = a
        return Matrix._sparse(self.field, self.cols, self.rows, [r or _EMPTY for r in out])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, consistent with ``tensor_index`` ordering; with
        the 1 x 1 identity it is the other factor, of two identities an
        identity."""
        if self.is_identity():
            if other.is_identity():
                return Matrix.identity(self.field, self.rows * other.rows)
            if self.rows == 1:
                return other
        elif other.rows == 1 and other.is_identity():
            return self
        return kron_sum(self.field, self.rows * other.rows, self.cols * other.cols,
                        [(self.field.one, [self, other])])

    def first_difference(self, other: "Matrix"):
        """The first column at which self and other differ, or None; no
        difference matrix is formed."""
        self._same_shape(other)
        if self._rows == other._rows:
            return None
        return min(j for a, b in zip(self._rows, other._rows) if a != b
                   for j in a.keys() | b.keys() if a.get(j) != b.get(j))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_identity(self) -> bool:
        """Square with row i exactly {i: 1}: read from the rows on the first
        call and kept, as a matrix never changes."""
        if self._eye is None:
            self._eye = self.rows == self.cols and all(
                len(r) == 1 and r.get(i) == 1 for i, r in enumerate(self._rows))
        return self._eye

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))

    # -- elimination -----------------------------------------------------

    def _echelon(self) -> dict:
        """A row echelon basis of the row space: {pivot column: row}, each
        row 1 at its pivot and zero left of it.

        Every row is reduced by the existing pivot rows in increasing column
        order until its lowest column is new, so the pivots are the lowest-
        column-first pivots of the reduced row echelon form."""
        f = self.field
        sub, mul = f.sub, f.mul
        piv = {}
        for r in filter(None, self._rows):
            v = dict(r)
            heap = list(v)
            heapify(heap)
            while heap:
                c = heappop(heap)
                a = v.get(c)
                if a is None:
                    continue
                p = piv.get(c)
                if p is None:
                    if a != 1:
                        s = f.inv(a)
                        v = {j: mul(s, b) for j, b in v.items()}
                    piv[c] = v
                    break
                for j in _subtract_multiple(v, a, p, sub, mul):
                    heappush(heap, j)
        return piv

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, pivot column list).

        Back-substitution clears each pivot column above its pivot, last
        pivot first, so the row subtracted is already clear at every pivot
        to its right.  Clearing pivot p therefore adds only non-pivot
        columns to a row, so the rows that hold each pivot column are
        indexed once, before any clearing, and only they are cleared."""
        f = self.field
        piv = self._echelon()
        pivots = sorted(piv)
        holders = {p: [] for p in pivots}
        for q in pivots:
            for c in piv[q]:
                if c != q and c in holders:
                    holders[c].append(q)
        for p in reversed(pivots):
            row = piv[p]
            for q in holders[p]:
                v = piv[q]
                _subtract_multiple(v, v[p], row, f.sub, f.mul)
        rows = [piv[c] for c in pivots] + [_EMPTY] * (self.rows - len(pivots))
        return Matrix._sparse(f, self.rows, self.cols, rows), pivots

    def rank(self) -> int:
        return len(self._echelon())

    def kernel(self) -> "Subspace":
        """Canonical basis of the null space {v : self @ v = 0}."""
        red, pivots = self.rref()
        gens = _null_rows(self.field, self.cols, pivots, red._rows)
        return Subspace.row_space(Matrix._sparse(self.field, len(gens), self.cols, gens.values()))

    def solve(self, rhs):
        """A particular solution of self @ x = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if len(rhs) != self.rows:
            raise ShapeError("rhs length %d != rows %d" % (len(rhs), self.rows))
        x = self.solve_matrix(Matrix(self.field, self.rows, 1, rhs))
        return None if x is None else x.col(0)

    def solve_matrix(self, rhs: "Matrix"):
        """X with self @ X = rhs, or None if any column is inconsistent.

        One elimination of [self | rhs]; free variables are set to zero, so
        every column equals what ``solve`` gives for it."""
        if rhs.rows != self.rows:
            raise ShapeError("rhs has %d rows, want %d" % (rhs.rows, self.rows))
        n, w = self.cols, rhs.cols
        aug = block_matrix(self.field, self.rows, n + w, [(0, 0, self), (0, n, rhs)])
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [_EMPTY] * n
        for c, r in zip(pivots, red._rows):
            out[c] = {j - n: a for j, a in r.items() if j >= n} or _EMPTY
        return Matrix._sparse(self.field, n, w, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        inv = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if inv is None or (self * inv) != Matrix.identity(self.field, self.rows):
            raise ShapeError("matrix is singular")
        return inv

    def row_blocks(self, h: int, strided: bool = False):
        """The row blocks of h rows, as a list of matrices; strided, block k
        of b holds rows k, k + b, k + 2b, ... instead."""
        if h <= 0 or self.rows % h:
            raise ShapeError("%d rows do not split into blocks of %d" % (self.rows, h))
        if strided:
            b = self.rows // h
            return [Matrix._sparse(self.field, h, self.cols, self._rows[k::b]) for k in range(b)]
        return [Matrix._sparse(self.field, h, self.cols, self._rows[k:k + h])
                for k in range(0, self.rows, h)]

    def __repr__(self):
        return "Matrix(%dx%d over %s)" % (self.rows, self.cols, self.field)

    def pretty(self) -> str:
        fmt = self.field.format
        return "\n".join(" ".join(fmt(a) for a in self.row(i)) for i in range(self.rows))


def _subtract_multiple(v: dict, a, p: dict, sub, mul):
    """v -= a * p in place on {column: value} rows, dropping the zeros;
    returns the columns it added to v."""
    fresh = []
    for j, b in p.items():
        if j in v:
            w = sub(v[j], mul(a, b))
            if w:
                v[j] = w
            else:
                del v[j]
        else:
            v[j] = sub(0, mul(a, b))
            fresh.append(j)
    return fresh


def _null_rows(field: Field, ncols: int, pivots, rows) -> dict:
    """The null-space rows of a reduced matrix with these pivot columns and
    rows: {c: e_c minus column c of the rows} for every free column c."""
    pivset = set(pivots)
    out = {c: {c: field.one} for c in range(ncols) if c not in pivset}
    for pc, r in zip(pivots, rows):
        for c, a in r.items():
            if c != pc:
                out[c][pc] = field.neg(a)
    return out


def block_matrix(field: Field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix holding each (i, j, B) of blocks with the top
    left entry of B at (i, j); the blocks do not overlap, and the rest is
    zero."""
    out = {}
    for i0, j0, b in blocks:
        if i0 < 0 or j0 < 0 or i0 + b.rows > rows or j0 + b.cols > cols:
            raise ShapeError("a %dx%d block at (%d, %d) leaves a %dx%d matrix"
                             % (b.rows, b.cols, i0, j0, rows, cols))
        for i in _filled(b._rows):
            r = out.get(i0 + i)
            if r is None:
                r = out[i0 + i] = {}
            r.update(((j0 + j, a) for j, a in b._rows[i].items()) if j0 else b._rows[i])
    return Matrix._sparse(field, rows, cols, _row_list(rows, out))


def kron_sum(field: Field, rows: int, cols: int, terms) -> Matrix:
    """The rows x cols matrix sum c * (F_1 (x) ... (x) F_k) over the terms
    (c, [F_1, ..., F_k]), in ``Matrix.kron`` order; with no terms, zero.

    Only the nonzero entries of each factor are visited, and every product
    goes straight into the output rows: no Kronecker product, scaled copy
    or partial sum is built as a matrix."""
    add, mul, one = field.add, field.mul, field.one
    out = {}
    # id -> (factor, its nonzero entries (i, j, a)); holding the factor
    # keeps its id from being reused by another matrix during the call
    nonzeros = {}
    for c, factors in terms:
        shape = (prod(F.rows for F in factors), prod(F.cols for F in factors))
        if shape != (rows, cols):
            raise ShapeError("a %dx%d term in a %dx%d sum" % (*shape, rows, cols))
        if not c:
            continue
        part = [(0, 0, c)]
        for F in factors:
            fr, fc = F.rows, F.cols
            if id(F) not in nonzeros:
                nonzeros[id(F)] = (F, F._nonzeros())
            # a product with the shared one is its other factor
            part = [(i * fr + p, j * fc + q, a if v is one else (v if a is one else mul(v, a)))
                    for i, j, v in part for p, q, a in nonzeros[id(F)][1]]
        for i, j, v in part:
            r = out.get(i)
            if r is None:
                out[i] = {j: v}
            else:
                r[j] = add(r[j], v) if j in r else v
    return Matrix._sparse(field, rows, cols, _row_list(rows, {
        i: r if all(r.values()) else {j: v for j, v in r.items() if v}
        for i, r in out.items()}))


def vstack(field: Field, cols: int, mats) -> Matrix:
    """The matrices of mats, each cols wide, one below the other."""
    rows = []
    for m in mats:
        if m.cols != cols:
            raise ShapeError("a block of %d columns in a stack of %d" % (m.cols, cols))
        rows.extend(m._rows)
    return Matrix._sparse(field, len(rows), cols, rows)


def hstack(field: Field, rows: int, mats) -> Matrix:
    """The matrices of the list mats, each with rows rows, side by side."""
    if any(m.rows != rows for m in mats):
        raise ShapeError("a block of other than %d rows side by side" % rows)
    offsets = [0, *accumulate(m.cols for m in mats)]
    return block_matrix(field, rows, offsets[-1], [(0, o, m) for o, m in zip(offsets, mats)])


def slot_apply(F: Matrix, X: Matrix, before: int, after: int) -> Matrix:
    """X (I_before (x) F (x) I_after)^T: F applied to one tensor slot of
    every row of X, columns (b, i, a) in range(before) x range(F.cols) x
    range(after), without forming the Kronecker product.  F may change the
    width of the slot: raise or lower the tensor degree, or merge slots.
    With F an identity it is X."""
    if F.is_identity():
        _check_slots(X, before, F.cols, after)
        return X
    return _slot_product(F.col_maps(), F.rows, X, before, after)


def _check_slots(X: Matrix, before: int, d: int, after: int):
    if X.cols != before * d * after:
        raise ShapeError("rows of length %d do not split as %d x %d x %d"
                         % (X.cols, before, d, after))


def _slot_product(images, e: int, X: Matrix, before: int, after: int) -> Matrix:
    """slot_apply with F given by its columns: images[i] is the {p: value}
    image of slot index i, in a slot of width e."""
    d = len(images)
    _check_slots(X, before, d, after)
    if before == after == 1:
        # the product with the matrix whose rows are the images, which shares
        # the image row of a one-nonzero row instead of rebuilding it; the
        # membership product of stack_coordinates and maps into a
        # one-dimensional module come here (measured in BENCH_26.json)
        return X * Matrix._sparse(X.field, d, e, images)
    f = X.field
    add, mul, one = f.add, f.mul, f.one
    da, ea = d * after, e * after
    out = []
    for r in X._rows:
        acc = {}
        for j, c in r.items():
            b, i = divmod(j, da)
            i, t = divmod(i, after)
            base = b * ea + t
            for p, v in images[i].items():
                k = base + p * after
                w = c if v is one else mul(c, v)
                acc[k] = add(acc[k], w) if k in acc else w
        out.append((acc if all(acc.values()) else {k: v for k, v in acc.items() if v})
                   or _EMPTY)
    return Matrix._sparse(f, X.rows, before * ea, out)


# -- stacks of maps ------------------------------------------------------------
#
# A stack holds k maps F_b: X -> Y as the k x (dim Y * dim X) matrix whose
# row b is vec(F_b), read row-major (index y * dim X + x); one map is a
# stack of one row.  vec(F C) and vec(B F) are slot products on each row,
# and currying, uncurrying and the swap of two tensor factors permute the
# columns (Van Loan, J. Comput. Appl. Math. 123, 2000), so each step visits
# the nonzeros of the stack only.

def stack_rmul(S: Matrix, C: Matrix) -> Matrix:
    """The stack of the F_b C, each row multiplied by C on its second slot;
    C's rows are read as they are, with no transpose.  With C an identity
    it is S."""
    before = S.cols // (C.rows or 1)
    if C.is_identity():
        _check_slots(S, before, C.rows, 1)
        return S
    return _slot_product(C._rows, C.cols, S, before, 1)


def stack_lmul(B: Matrix, S: Matrix) -> Matrix:
    """The stack of the B F_b, B applied to the first slot of each row."""
    return slot_apply(B, S, 1, S.cols // (B.cols or 1))


def swap_slots(S: Matrix, d1: int, d2: int) -> Matrix:
    """The rows of S with their columns (p, i, j) in range(S.cols // (d1*d2))
    x range(d1) x range(d2) moved to (p, j, i).  On one map of domain
    V1 (x) V2 this re-reads it on V2 (x) V1; on a stack of maps L <- M (x) N
    with (d1, d2) = (dim M, dim N) it curries each into M -> Hom(N, L), and
    (d1, d2) = (dim N, dim M) uncurries."""
    w = d1 * d2
    if S.cols % w if w else S.cols:
        raise ShapeError("rows of length %d do not split into slots %d x %d" % (S.cols, d1, d2))
    # each column that holds a nonzero, moved once: (i, j) = divmod(c % w, d2)
    perm = {c: c - c % w + c % d2 * d1 + c % w // d2 for c in set().union(*S._rows)}
    return Matrix._sparse(S.field, S.rows, S.cols,
                          [{perm[c]: a for c, a in r.items()} if r else _EMPTY for r in S._rows])


def swap_factors(m: Matrix, d1: int, d2: int) -> Matrix:
    """One map on a domain V1 (x) V2 (dims d1, d2), re-read on V2 (x) V1."""
    if m.cols != d1 * d2:
        raise ShapeError("map has %d columns, want %d" % (m.cols, d1 * d2))
    return swap_slots(m, d1, d2)


def stack_of_maps(F: Matrix, rows: int) -> Matrix:
    """One map F: X -> Y with dim Y = rows, as the one-row stack vec(F)."""
    if F.rows != rows:
        raise ShapeError("map has %d rows, want %d" % (F.rows, rows))
    return F.reshaped(1, F.rows * F.cols)


class Subspace:
    """A subspace of k^n stored by its canonical reduced-echelon basis.

    The basis vectors are the nonzero rows of the RREF of any generating
    set, so two computations of the same subspace store identical bases.
    A subspace also carries its canonical quotient (``projector`` and
    ``lift``), made on first use.
    """

    __slots__ = ("field", "ambient_dim", "_rows", "_pivots", "_basis_matrix", "_quotient")

    def __init__(self, rows: Matrix, pivots):
        """The subspace spanned by the rows of ``rows``, a matrix in reduced
        row echelon form with no zero row and pivot columns ``pivots``."""
        self.field = rows.field
        self.ambient_dim = rows.cols
        self._rows = rows
        self._pivots = tuple(pivots)
        self._basis_matrix = None
        self._quotient = None

    @staticmethod
    def row_space(m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        red, pivots = m.rref()
        return Subspace(Matrix._sparse(m.field, len(pivots), m.cols, red._rows[:len(pivots)]),
                        pivots)

    @staticmethod
    def from_generators(field: Field, ambient_dim: int, gens) -> "Subspace":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != ambient_dim:
                raise ShapeError("generator length %d != ambient %d" % (len(g), ambient_dim))
        return Subspace.row_space(Matrix(field, len(gens), ambient_dim,
                                         [a for g in gens for a in g]))

    @staticmethod
    @cache
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    @cache
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(field, ambient_dim), range(ambient_dim))

    @property
    def dim(self) -> int:
        return self._rows.rows

    @property
    def basis(self):
        """The basis vectors as dense tuples, built on each access."""
        return tuple(self._rows.row(i) for i in range(self.dim))

    def basis_matrix(self) -> Matrix:
        """Matrix whose columns are the basis vectors (ambient_dim x dim)."""
        if self._basis_matrix is None:
            self._basis_matrix = self._rows.transpose()
        return self._basis_matrix

    def basis_stack(self) -> Matrix:
        """The basis vectors as the rows of one matrix: a stack whose maps
        are the basis vectors read row-major, in any shape."""
        return self._rows

    def pivots(self):
        return list(self._pivots)

    def _section(self):
        if self._quotient is None:
            self._quotient = quotient_section(self.field, self.ambient_dim, self)
        return self._quotient

    @property
    def projector(self) -> Matrix:
        """The canonical projector of k^ambient_dim onto its quotient by
        this subspace, whose kernel is this subspace (``quotient_section``)."""
        return self._section()[0]

    @property
    def lift(self) -> Matrix:
        """The canonical section of ``projector``: projector . lift = identity."""
        return self._section()[1]

    def coordinate_matrix(self, vecs: Matrix):
        """Coordinates of every column of vecs in the stored basis, as the
        columns of a dim x vecs.cols matrix, or None if some column is not
        a member; in the full space, vecs itself.

        In the reduced-echelon basis the coordinates of a member are its
        entries at the pivots; membership is confirmed by rebuilding every
        column from them, with no elimination."""
        if vecs.rows != self.ambient_dim:
            raise ShapeError("vectors of length %d, ambient %d"
                             % (vecs.rows, self.ambient_dim))
        if self.dim == self.ambient_dim:
            return vecs
        coords = Matrix._sparse(self.field, self.dim, vecs.cols,
                                [vecs._rows[p] for p in self._pivots])
        if self.basis_matrix() * coords != vecs:
            return None
        return coords

    def _stack_split(self, stack: Matrix, after: int):
        """The entries of each row of stack at the pivots (of the first slot,
        when rows split as ambient_dim x after), and the stack they rebuild:
        in the full space, the stack itself twice."""
        n = self.ambient_dim
        if stack.cols != n * after:
            raise ShapeError("rows of length %d, ambient %d x %d" % (stack.cols, n, after))
        if self.dim == n:
            return stack, stack
        at = {p * after + t: r * after + t for r, p in enumerate(self._pivots) for t in range(after)}
        coords = Matrix._sparse(self.field, stack.rows, self.dim * after, [
            {at[j]: a for j, a in r.items() if j in at} or _EMPTY for r in stack._rows])
        return coords, _slot_product(self._rows._rows, n, coords, 1, after)

    def stack_coordinates(self, stack: Matrix, after: int = 1):
        """The stack of the coordinate maps (dim x after: the entries at the
        pivots) of a stack of maps k^after -> k^ambient_dim, or None if one
        leaves the subspace, which one product rebuilding the stack decides."""
        coords, rebuilt = self._stack_split(stack, after)
        return coords if rebuilt == stack else None

    def first_outside(self, stack: Matrix):
        """The first row of stack at which the membership product differs."""
        rebuilt = self._stack_split(stack, 1)[1]._rows
        return next((b for b, r in enumerate(stack._rows) if r != rebuilt[b]), None)

    def coordinates(self, vec):
        """Coordinates of vec in the stored basis, or None if not a member."""
        coords = self.coordinate_matrix(Matrix(self.field, self.ambient_dim, 1, vec))
        return None if coords is None else coords.col(0)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def quotient_section(field: Field, ambient_dim: int, relations: Subspace):
    """Projector and section for the quotient k^ambient / relations.

    Returns (projector, lift) with projector . lift = identity on the
    quotient, projector(relations) = 0 and kernel(projector) = relations.
    The quotient coordinates are the ambient coordinates away from the
    relation pivots, which makes the pair canonical; with no relations both
    are ``Matrix.identity`` itself.
    """
    if relations.ambient_dim != ambient_dim:
        raise ShapeError("relations live in k^%d, not k^%d"
                         % (relations.ambient_dim, ambient_dim))
    if not relations.dim:
        return (Matrix.identity(field, ambient_dim),) * 2
    # one projector row per free coordinate; subtracting x[pc] * basis[r]
    # zeroes every pivot coordinate
    free = _null_rows(field, ambient_dim, relations.pivots(), relations._rows._rows)
    projector = Matrix._sparse(field, len(free), ambient_dim, free.values())
    lift = Matrix._sparse(field, len(free), ambient_dim, [{c: field.one} for c in free])
    return projector, lift.transpose()


def intertwiner_system(field: Field, constraints, rows: int, cols: int) -> Matrix:
    """The blocks I (x) A_t^T - B_t (x) I, one below the other, for the pairs
    (A_t, B_t) of ``constraints``, A_t cols x cols and B_t rows x rows:
    block t sends the row-major vec(X) of a rows x cols matrix X to
    vec(X A_t - B_t X).  With no constraints it has no rows."""
    blocks = []
    eye_r = Matrix.identity(field, rows)
    eye_c = Matrix.identity(field, cols)
    n = rows * cols
    for a, b in constraints:
        if a.rows != cols or a.cols != cols:
            raise ShapeError("A constraint must be %dx%d" % (cols, cols))
        if b.rows != rows or b.cols != rows:
            raise ShapeError("B constraint must be %dx%d" % (rows, rows))
        blocks.append(kron_sum(field, n, n, [(field.one, [eye_r, a.transpose()]),
                                             (field.neg(field.one), [b, eye_c])]))
    return vstack(field, n, blocks)


def intertwiner_space(field: Field, constraints, rows: int, cols: int) -> Subspace:
    """All matrices X (rows x cols) with X @ A_t = B_t @ X for every pair:
    the kernel of ``intertwiner_system``, the canonical subspace of
    row-major vectorised matrices; with no constraints the full space."""
    system = intertwiner_system(field, constraints, rows, cols)
    return system.kernel() if system.rows else Subspace.full(field, rows * cols)


# -- small vector helpers used across the package -------------------------

def basis_vec(field: Field, n: int, i: int):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vec_scale(field: Field, c, v):
    return tuple(field.mul(c, a) for a in v)
