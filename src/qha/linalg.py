"""Dense exact linear algebra: matrices, canonical subspaces, quotients.

Everything here is deterministic and exact.  Subspaces are always stored
with a reduced-row-echelon basis (pivot search by lowest column index), so
equal subspaces have identical stored bases and all downstream reports are
bit-reproducible.  Matrices are immutable once built.
"""

from __future__ import annotations

from math import prod

from .fields import Field


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


class Matrix:
    """Immutable dense matrix over an exact field, row-major entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ShapeError("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- construction --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, [field.zero] * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
        return Matrix(field, len(rows), ncols, [a for r in rows for a in r])

    @staticmethod
    def from_cols(field: Field, cols, ambient: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        nrows = len(cols[0]) if cols else (ambient or 0)
        for c in cols:
            if len(c) != nrows:
                raise ShapeError("ragged columns")
        return Matrix(field, nrows, len(cols),
                      [cols[j][i] for i in range(nrows) for j in range(len(cols))])

    # -- access ---------------------------------------------------------

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.field.sub
        return Matrix(self.field, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        n, m, l = self.rows, self.cols, other.cols
        out = [zero] * (n * l)
        se, oe = self.entries, other.entries
        for i in range(n):
            base = i * m
            for k in range(m):
                a = se[base + k]
                if a == 0:
                    continue
                ob = k * l
                rb = i * l
                for j in range(l):
                    b = oe[ob + j]
                    if b != 0:
                        out[rb + j] = add(out[rb + j], mul(a, b))
        return Matrix(f, n, l, out)

    def apply(self, vec):
        """Matrix times column vector (a tuple), returning a tuple."""
        if len(vec) != self.cols:
            raise ShapeError("vector length %d != cols %d" % (len(vec), self.cols))
        f = self.field
        out = []
        for i in range(self.rows):
            s = f.zero
            base = i * self.cols
            for j, v in enumerate(vec):
                if v != 0:
                    e = self.entries[base + j]
                    if e != 0:
                        s = f.add(s, f.mul(e, v))
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self.entries[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, consistent with ``tensor_index`` ordering."""
        return kron_sum(self.field, self.rows * other.rows, self.cols * other.cols,
                        [(self.field.one, [self, other])])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.field, self.rows)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, pivot column list)."""
        f = self.field
        m = self.row_list()
        nr, nc = self.rows, self.cols
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
        return Matrix.from_rows(f, m) if nr else self, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Canonical basis of the null space {v : self @ v = 0}."""
        red, pivots = self.rref()
        f = self.field
        free = [c for c in range(self.cols) if c not in pivots]
        gens = []
        for c in free:
            v = [f.zero] * self.cols
            v[c] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red.get(r, c))
            gens.append(tuple(v))
        return Subspace.from_generators(f, self.cols, gens)

    def solve(self, rhs):
        """A particular solution of self @ x = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if len(rhs) != self.rows:
            raise ShapeError("rhs length %d != rows %d" % (len(rhs), self.rows))
        x = self.solve_matrix(Matrix(self.field, self.rows, 1, rhs))
        return None if x is None else x.entries

    def solve_matrix(self, rhs: "Matrix"):
        """X with self @ X = rhs, or None if any column is inconsistent.

        One elimination of [self | rhs]; free variables are set to zero, so
        every column equals what ``solve`` gives for it."""
        if rhs.rows != self.rows:
            raise ShapeError("rhs has %d rows, want %d" % (rhs.rows, self.rows))
        f = self.field
        n, w = self.cols, rhs.cols
        aug = Matrix(f, self.rows, n + w,
                     [a for i in range(self.rows) for a in (*self.row(i), *rhs.row(i))])
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [f.zero] * (n * w)
        for r, c in enumerate(pivots):
            out[c * w:(c + 1) * w] = red.row(r)[n:]
        return Matrix(f, n, w, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        inv = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if inv is None or (self * inv) != Matrix.identity(self.field, self.rows):
            raise ShapeError("matrix is singular")
        return inv

    # -- stacks of maps ----------------------------------------------------
    #
    # A vertical stack holds k maps of equal shape as the row blocks of one
    # matrix.  Right multiplication acts on every map at once (vec(F C) =
    # (I (x) C^T) vec(F) for each); one map is a stack of one.

    def side_by_side(self, h: int) -> "Matrix":
        """The row blocks of h rows placed side by side: (k*h) x c -> h x (k*c)."""
        if h <= 0 or self.rows % h:
            raise ShapeError("%d rows do not split into blocks of %d" % (self.rows, h))
        k, c, e = self.rows // h, self.cols, self.entries
        return Matrix(self.field, h, k * c,
                      [a for r in range(h) for j in range(k)
                       for a in e[(j * h + r) * c:(j * h + r + 1) * c]])

    def stacked(self, c: int) -> "Matrix":
        """The column blocks of c columns stacked vertically: h x (k*c) -> (k*h) x c."""
        if c <= 0 or self.cols % c:
            raise ShapeError("%d columns do not split into blocks of %d" % (self.cols, c))
        k, h, w, e = self.cols // c, self.rows, self.cols, self.entries
        return Matrix(self.field, k * h, c,
                      [a for j in range(k) for r in range(h)
                       for a in e[r * w + j * c:r * w + (j + 1) * c]])

    def __repr__(self):
        return "Matrix(%dx%d over %s)" % (self.rows, self.cols, self.field)

    def pretty(self) -> str:
        fmt = self.field.format
        return "\n".join(" ".join(fmt(a) for a in self.row(i)) for i in range(self.rows))


def kron_sum(field: Field, rows: int, cols: int, terms) -> Matrix:
    """The rows x cols matrix sum c * (F_1 (x) ... (x) F_k) over the terms
    (c, [F_1, ..., F_k]), in ``Matrix.kron`` order; with no terms, zero.

    Only the nonzero entries of each factor are visited, and every product
    goes straight into one output list: no Kronecker product, scaled copy
    or partial sum is built as a matrix."""
    add, mul, zero = field.add, field.mul, field.zero
    out = [zero] * (rows * cols)
    # id -> (factor, its nonzero entries (i, j, a)); holding the factor
    # keeps its id from being reused by another matrix during the call
    nonzeros = {}
    for c, factors in terms:
        shape = (prod(F.rows for F in factors), prod(F.cols for F in factors))
        if shape != (rows, cols):
            raise ShapeError("a %dx%d term in a %dx%d sum" % (*shape, rows, cols))
        if c == 0:
            continue
        part = [(0, 0, c)]
        for F in factors:
            fr, fc = F.rows, F.cols
            if id(F) not in nonzeros:
                nonzeros[id(F)] = (F, [(k // fc, k % fc, a)
                                       for k, a in enumerate(F.entries) if a != 0])
            part = [(i * fr + p, j * fc + q, mul(v, a))
                    for i, j, v in part for p, q, a in nonzeros[id(F)][1]]
        for i, j, v in part:
            k = i * cols + j
            cur = out[k]
            out[k] = v if cur is zero else add(cur, v)
    return Matrix(field, rows, cols, out)


def lmul_blocks(a: Matrix, stack: Matrix) -> Matrix:
    """a @ X for every row block X of a vertical stack (blocks of a.cols
    rows), as the stack of the products; for one block this is a @ stack."""
    if stack.rows == a.cols:
        return a * stack
    return (a * stack.side_by_side(a.cols)).stacked(stack.cols)


class Subspace:
    """A subspace of k^n stored by its canonical reduced-echelon basis.

    The basis vectors are the nonzero rows of the RREF of any generating
    set, so two computations of the same subspace store identical bases.
    A basis handed to the constructor must already be in that form.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_pivots", "_basis_matrix")

    def __init__(self, field: Field, ambient_dim: int, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(v) for v in basis)
        for v in self.basis:
            if len(v) != ambient_dim:
                raise ShapeError("basis vector length %d != ambient %d"
                                 % (len(v), ambient_dim))
        self._pivots = None
        self._basis_matrix = None

    @staticmethod
    def from_generators(field: Field, ambient_dim: int, gens) -> "Subspace":
        gens = [tuple(g) for g in gens]
        if not gens:
            return Subspace(field, ambient_dim, [])
        red, pivots = Matrix.from_rows(field, gens).rref()
        basis = [red.row(i) for i in range(len(pivots))]
        return Subspace(field, ambient_dim, basis)

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, [])

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return Subspace(field, ambient_dim, [eye.row(i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        """Matrix whose columns are the basis vectors (ambient_dim x dim)."""
        if self._basis_matrix is None:
            self._basis_matrix = Matrix.from_cols(self.field, self.basis,
                                                  ambient=self.ambient_dim)
        return self._basis_matrix

    def basis_stack(self, cols: int) -> Matrix:
        """The basis vectors read as row-major maps with ``cols`` columns,
        as one vertical stack (one row block per basis vector)."""
        return Matrix(self.field, self.dim * (self.ambient_dim // cols), cols,
                      [a for v in self.basis for a in v])

    def pivots(self):
        if self._pivots is None:
            out = []
            for v in self.basis:
                for c, a in enumerate(v):
                    if a != 0:
                        out.append(c)
                        break
            self._pivots = out
        return list(self._pivots)

    def coordinate_matrix(self, vecs: Matrix):
        """Coordinates of every column of vecs in the stored basis, as the
        columns of a dim x vecs.cols matrix, or None if some column is not
        a member.

        In the reduced-echelon basis the coordinates of a member are its
        entries at the pivots; membership is confirmed by rebuilding every
        column from them, with no elimination."""
        if vecs.rows != self.ambient_dim:
            raise ShapeError("vectors of length %d, ambient %d"
                             % (vecs.rows, self.ambient_dim))
        k, e = vecs.cols, vecs.entries
        coords = Matrix(self.field, self.dim, k,
                        [a for p in self.pivots() for a in e[p * k:(p + 1) * k]])
        if self.basis_matrix() * coords != vecs:
            return None
        return coords

    def stack_coordinates(self, stack: Matrix):
        """coordinate_matrix of the maps of a vertical stack, each read
        row-major as one vector (the inverse of ``basis_stack``)."""
        n = self.ambient_dim
        vecs = Matrix(self.field, len(stack.entries) // n, n, stack.entries)
        return self.coordinate_matrix(vecs.transpose())

    def coordinates(self, vec):
        """Coordinates of vec in the stored basis, or None if not a member."""
        coords = self.coordinate_matrix(Matrix(self.field, self.ambient_dim, 1, vec))
        return None if coords is None else coords.entries

    def contains(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    return m.kernel()


def solve(m: Matrix, rhs):
    return m.solve(rhs)


def quotient_section(field: Field, ambient_dim: int, relations: Subspace):
    """Projector and section for the quotient k^ambient / relations.

    Returns (projector, lift) with projector . lift = identity on the
    quotient, projector(relations) = 0 and kernel(projector) = relations.
    The quotient coordinates are the ambient coordinates away from the
    relation pivots, which makes the pair canonical.
    """
    if relations.ambient_dim != ambient_dim:
        raise ShapeError("relations live in k^%d, not k^%d"
                         % (relations.ambient_dim, ambient_dim))
    pivots = relations.pivots()
    free = [c for c in range(ambient_dim) if c not in pivots]
    zero, one = field.zero, field.one
    # projector row for free coordinate c: e_c minus the relation corrections.
    proj_rows = []
    for c in free:
        row = [zero] * ambient_dim
        row[c] = one
        for r, pc in enumerate(pivots):
            # subtracting x[pc] * basis[r] zeroes every pivot coordinate
            row[pc] = field.neg(relations.basis[r][c])
        proj_rows.append(row)
    projector = Matrix.from_rows(field, proj_rows) if proj_rows else Matrix(field, 0, ambient_dim, [])
    lift_cols = []
    for c in free:
        v = [zero] * ambient_dim
        v[c] = one
        lift_cols.append(v)
    lift = Matrix.from_cols(field, lift_cols, ambient=ambient_dim)
    return projector, lift


def intertwiner_space(field: Field, constraints, rows: int, cols: int) -> Subspace:
    """All matrices X (rows x cols) with X @ A_t = B_t @ X for every pair.

    ``constraints`` is an iterable of (A_t, B_t) with A_t cols x cols and
    B_t rows x rows.  The result is the canonical subspace of row-major
    vectorised matrices; with no constraints it is the full space.
    """
    blocks = []
    eye_r = Matrix.identity(field, rows)
    eye_c = Matrix.identity(field, cols)
    n = rows * cols
    for a, b in constraints:
        if a.rows != cols or a.cols != cols:
            raise ShapeError("A constraint must be %dx%d" % (cols, cols))
        if b.rows != rows or b.cols != rows:
            raise ShapeError("B constraint must be %dx%d" % (rows, rows))
        # vec(XA - BX) = (I (x) A^T - B (x) I) vec(X), row-major vec.
        blocks.append(kron_sum(field, n, n, [(field.one, [eye_r, a.transpose()]),
                                             (field.neg(field.one), [b, eye_c])]))
    if not blocks:
        return Subspace.full(field, rows * cols)
    stacked = Matrix.from_rows(field, [r for blk in blocks for r in blk.row_list()])
    return stacked.kernel()


# -- small vector helpers used across the package -------------------------

def basis_vec(field: Field, n: int, i: int):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vec_scale(field: Field, c, v):
    return tuple(field.mul(c, a) for a in v)
