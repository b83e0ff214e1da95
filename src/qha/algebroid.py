"""Hopf algebroids over a noncommutative base ring, by structure constants.

The coproducts of a bialgebroid land in tensor products over the base, so
they are stored as chosen k-linear lifts into H (x) H together with the
relation subspaces that define the quotients.  Every identity "modulo
relations" is checked by projecting with a canonical quotient section, and
the checks verify that stored lifts are compatible with the relations
(Takeuchi membership, bimodule properties) rather than assuming it.

The left base ring R is the stored one; the right base is its opposite
ring ``BaseRing.op``.  Right-hand constructions are not written out: the
right-hand biclosed maps are the left-hand ones over the co-opposite
algebroid ``H.cop`` (over R^op), and the right bialgebroid axioms are the
left ones over the opposite algebroid ``H.op``.
"""

from __future__ import annotations

from functools import cached_property

from .fields import Field
from .linalg import (Matrix, Subspace, block_matrix, quotient_section,
                     intertwiner_space, kron_sum, lmul_blocks, basis_vec)
from .reports import CheckReport
from .quasihopf import (HModule, QuasiHopfAlgebra, StructureError, IntertwinerError,
                        max_tensor_dim, require_intertwiner, _over_cop, _swap_factors,
                        _curry, _uncurry)


def _opposite(mult, n: int):
    """Structure constants of the opposite multiplication a.b = ba."""
    return [mult[(j * n + i) * n + k] for i in range(n) for j in range(n) for k in range(n)]


def _flip_legs(lift: Matrix) -> Matrix:
    """A coproduct lift with the two legs of every column exchanged."""
    n = lift.cols
    return _swap_factors(lift.transpose(), n, n).transpose()


class BaseRing:
    """An associative unital algebra over the scalar field (the base R)."""

    def __init__(self, field: Field, dim: int, mult, unit, name: str = "R"):
        if dim <= 0:
            raise StructureError("base ring must have positive dimension")
        self.field = field
        self.dim = dim
        self.mult = tuple(mult)
        self.unit = tuple(unit)
        self.name = name
        if len(self.mult) != dim ** 3 or len(self.unit) != dim:
            raise StructureError("base ring tensors have wrong shape")

    def mult_vec(self, a, b):
        f = self.field
        n = self.dim
        out = [f.zero] * n
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                c = f.mul(ca, cb)
                base = (i * n + j) * n
                for k in range(n):
                    m = self.mult[base + k]
                    if m != 0:
                        out[k] = f.add(out[k], f.mul(c, m))
        return tuple(out)

    def basis(self, i: int):
        return basis_vec(self.field, self.dim, i)

    @cached_property
    def op(self) -> "BaseRing":
        """R^op: the same carrier with the opposite multiplication."""
        return BaseRing(self.field, self.dim, _opposite(self.mult, self.dim), self.unit,
                        name=self.name + "^op")

    def validate(self) -> CheckReport:
        rep = CheckReport()
        n = self.dim
        ok, wit = True, None
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mult_vec(self.mult_vec(self.basis(i), self.basis(j)),
                                        self.basis(k))
                    rhs = self.mult_vec(self.basis(i),
                                        self.mult_vec(self.basis(j), self.basis(k)))
                    if lhs != rhs:
                        ok, wit = False, (("i", i), ("j", j), ("k", k))
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add("base_associative", ok, wit)
        ok = all(self.mult_vec(self.unit, self.basis(i)) == self.basis(i)
                 and self.mult_vec(self.basis(i), self.unit) == self.basis(i)
                 for i in range(n))
        rep.add("base_unital", ok)
        return rep

    def __repr__(self):
        return "BaseRing(%s, dim %d over %s)" % (self.name, self.dim, self.field)


class HopfAlgebroid:
    """Structure data (H, s_l, t_l, s_r, t_r, Delta_l, Delta_r, eps_l, eps_r, S).

    Source/target maps are stored as dim(H) x dim(R) matrices, the coproduct
    lifts as dim(H)^2 x dim(H) matrices (column i lifts Delta(e_i)), and the
    counits as dim(R) x dim(H) matrices.
    """

    def __init__(self, base: BaseRing, dim: int, mult, unit,
                 s_l: Matrix, t_l: Matrix, s_r: Matrix, t_r: Matrix,
                 delta_l_lift: Matrix, delta_r_lift: Matrix,
                 eps_l: Matrix, eps_r: Matrix,
                 antipode: Matrix, antipode_inv: Matrix, name: str = ""):
        self.base = base
        self.field = base.field
        self.dim = dim
        self.mult = tuple(mult)
        self.unit = tuple(unit)
        self.s_l, self.t_l, self.s_r, self.t_r = s_l, t_l, s_r, t_r
        self.delta_l_lift = delta_l_lift
        self.delta_r_lift = delta_r_lift
        self.eps_l, self.eps_r = eps_l, eps_r
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self.name = name or "H"
        n, r = dim, base.dim
        if len(self.mult) != n ** 3 or len(self.unit) != n:
            raise StructureError("algebra tensors have wrong shape")
        for m, shape in ((s_l, (n, r)), (t_l, (n, r)), (s_r, (n, r)), (t_r, (n, r)),
                         (delta_l_lift, (n * n, n)), (delta_r_lift, (n * n, n)),
                         (eps_l, (r, n)), (eps_r, (r, n)),
                         (antipode, (n, n)), (antipode_inv, (n, n))):
            if (m.rows, m.cols) != shape:
                raise StructureError("structure matrix has shape %dx%d, want %dx%d"
                                     % (m.rows, m.cols, *shape))

    # -- algebra plumbing ---------------------------------------------------

    @cached_property
    def _mult_sparse(self):
        n = self.dim
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                base = (i * n + j) * n
                row.append(tuple((k, self.mult[base + k]) for k in range(n)
                                 if self.mult[base + k] != 0))
            table.append(tuple(row))
        return tuple(table)

    def mult_vec(self, a, b):
        f = self.field
        out = [f.zero] * self.dim
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            row = self._mult_sparse[i]
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                c = f.mul(ca, cb)
                for k, ck in row[j]:
                    out[k] = f.add(out[k], f.mul(c, ck))
        return tuple(out)

    def prod(self, *vecs):
        out = vecs[0]
        for v in vecs[1:]:
            out = self.mult_vec(out, v)
        return out

    def basis(self, i: int):
        return basis_vec(self.field, self.dim, i)

    def apply_s(self, vec):
        return self.antipode.apply(vec)

    def apply_s_inv(self, vec):
        return self.antipode_inv.apply(vec)

    def delta_l_terms(self, i: int):
        return self._delta_terms(self.delta_l_lift, i)

    def delta_r_terms(self, i: int):
        return self._delta_terms(self.delta_r_lift, i)

    def _delta_terms(self, lift: Matrix, i: int):
        n = self.dim
        col = lift.col(i)
        return tuple((col[p * n + q], p, q) for p in range(n) for q in range(n)
                     if col[p * n + q] != 0)

    def left_mult_matrix(self, vec) -> Matrix:
        cols = [self.mult_vec(vec, self.basis(j)) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols, ambient=self.dim)

    def right_mult_matrix(self, vec) -> Matrix:
        cols = [self.mult_vec(self.basis(j), vec) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols, ambient=self.dim)

    # -- relation subspaces --------------------------------------------------

    @cached_property
    def rel_l(self) -> Subspace:
        """Relations of H (x)_{R_l} H: t_l(r) x (x) y - x (x) s_l(r) y."""
        return self._pair_relations(
            lambda b: self.left_mult_matrix(self.t_l.col(b)),
            lambda b: self.left_mult_matrix(self.s_l.col(b)))

    @cached_property
    def rel_r(self) -> Subspace:
        """Relations of H (x)_{R_r} H: x s_r(a) (x) y - x (x) y t_r(a)."""
        return self._pair_relations(
            lambda b: self.right_mult_matrix(self.s_r.col(b)),
            lambda b: self.right_mult_matrix(self.t_r.col(b)))

    def _pair_relations(self, first_op, second_op) -> Subspace:
        return _relation_space(self.field, [(first_op(b), second_op(b))
                                            for b in range(self.base.dim)], self.dim, self.dim)

    # -- reversed structures --------------------------------------------------

    @cached_property
    def cop(self) -> "HopfAlgebroid":
        """The co-opposite H^cop over R^op: s_l <-> t_l, s_r <-> t_r, both
        coproduct lifts with their legs exchanged, the same counits, and the
        antipode S^-1 (with inverse S).  Its modules are those of H, and
        M (x) N over H^cop is N (x)_R M over H with the factors swapped; its
        left-hand biclosed maps are the right-hand maps of H."""
        return HopfAlgebroid(
            self.base.op, self.dim, self.mult, self.unit,
            self.t_l, self.s_l, self.t_r, self.s_r,
            _flip_legs(self.delta_l_lift), _flip_legs(self.delta_r_lift),
            self.eps_l, self.eps_r, self.antipode_inv, self.antipode,
            name=self.name + "^cop")

    @cached_property
    def op(self) -> "HopfAlgebroid":
        """The opposite H^op over R^op, with left and right exchanged:
        s_l = t_r, t_l = s_r, s_r = t_l, t_r = s_l, Delta_l <-> Delta_r,
        eps_l <-> eps_r, and the antipode S^-1 (with inverse S), as for the
        opposite of a Hopf algebra.  Its left bialgebroid is the right
        bialgebroid of H."""
        return HopfAlgebroid(
            self.base.op, self.dim, _opposite(self.mult, self.dim), self.unit,
            self.t_r, self.s_r, self.t_l, self.s_l,
            self.delta_r_lift, self.delta_l_lift,
            self.eps_r, self.eps_l, self.antipode_inv, self.antipode,
            name=self.name + "^op")

    # -- monoidal primitives (shared with QuasiHopfAlgebra) -----------------------

    def tensor(self, V, W):
        """V (x)_{R_l} W and its base relations."""
        return tensor_over_base(V, W)

    def tensor_relations(self, *factors):
        """Base relations of the last stage of ((F1 (x) F2) (x) ...) (x) Fn."""
        left = factors[0]
        for V in factors[1:-1]:
            left = tensor_over_base(left, V)[0]
        return module_tensor_relations(left, factors[-1])

    def associativity(self, U, V, W) -> Matrix:
        """(U (x) V) (x) W -> U (x) (V (x) W) on the quotient carriers: the
        strict requotient through the ambient U (x) V (x) W."""
        UV, uv = tensor_over_base(U, V)
        VW, vw = tensor_over_base(V, W)
        f = self.field
        return (module_tensor_relations(U, VW).projector
                * Matrix.identity(f, U.dim).kron(vw.projector)
                * uv.lift.kron(Matrix.identity(f, W.dim))
                * module_tensor_relations(UV, W).lift)

    def unit_object(self):
        return base_module(self)

    def left_unitor(self, V) -> Matrix:
        """R (x)_R V -> V, r (x) v |-> s_l(r) v, on the quotient carrier."""
        r = self.base.dim
        cols = [V.act(self.s_l.col(j)).col(v) for j in range(r) for v in range(V.dim)]
        amb = Matrix.from_cols(self.field, cols, ambient=V.dim)
        return amb * module_tensor_relations(base_module(self), V).lift

    def right_unitor(self, V) -> Matrix:
        """V (x)_R R -> V, v (x) r |-> t_l(r) v, on the quotient carrier."""
        r = self.base.dim
        cols = [V.act(self.t_l.col(j)).col(v) for v in range(V.dim) for j in range(r)]
        amb = Matrix.from_cols(self.field, cols, ambient=V.dim)
        return amb * module_tensor_relations(V, base_module(self)).lift

    # the biclosed adjunctions, so that the weak center is written once

    def zeta_l(self, f_mat, M, N, L) -> Matrix:
        return zeta_l_algebroid(f_mat, M, N, L)

    def zeta_r(self, f_mat, N, M, L) -> Matrix:
        return zeta_r_algebroid(f_mat, N, M, L)

    def eta_r(self, g_mat, N, M, L) -> Matrix:
        return eta_r_algebroid(g_mat, N, M, L)

    def structural_key(self):
        return ("algebroid", self.dim, self.base.dim, self.mult, self.unit,
                self.s_l, self.t_l, self.s_r, self.t_r, self.delta_l_lift,
                self.delta_r_lift, self.eps_l, self.eps_r, self.antipode)

    def __repr__(self):
        return "HopfAlgebroid(%s, dim %d over base dim %d)" % (
            self.name, self.dim, self.base.dim)


class AlgebroidModule(HModule):
    """A left module over the underlying algebra of a Hopf algebroid."""


def regular_algebroid_module(H: HopfAlgebroid) -> AlgebroidModule:
    mats = [H.left_mult_matrix(H.basis(i)) for i in range(H.dim)]
    return AlgebroidModule(H, mats, name="regular")


def base_module(H: HopfAlgebroid) -> AlgebroidModule:
    """The monoidal unit: the base R with action h . r = eps_l(h s_l(r))."""
    f = H.field
    r = H.base.dim
    mats = []
    for i in range(H.dim):
        cols = [H.eps_l.apply(H.mult_vec(H.basis(i), H.s_l.col(j)))
                for j in range(r)]
        mats.append(Matrix.from_cols(f, cols, ambient=r))
    return AlgebroidModule(H, mats, name="R")


class RelationSpace:
    """The base-tensor relations of M (x)_{R_l} N with a canonical section."""

    def __init__(self, field, ambient_dim: int, relations: Subspace):
        self.field = field
        self.ambient_dim = ambient_dim
        self.relations = relations
        self.projector, self.lift = quotient_section(field, ambient_dim, relations)

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.relations.dim

    def __repr__(self):
        return "RelationSpace(ambient %d, relations %d)" % (
            self.ambient_dim, self.relations.dim)


def _relation_space(f: Field, pairs, d1: int, d2: int) -> Subspace:
    """The span of (A x) (x) y - x (x) (B y) over the pairs (A, B) of d1 x d1
    and d2 x d2 matrices and all basis vectors x, y: the rows of the
    transposes of A (x) I - I (x) B, stacked."""
    d = d1 * d2
    eye1, eye2 = Matrix.identity(f, d1), Matrix.identity(f, d2)
    blocks = [(k * d, 0, kron_sum(f, d, d, [(f.one, [a.transpose(), eye2]),
                                            (f.neg(f.one), [eye1, b.transpose()])]))
              for k, (a, b) in enumerate(pairs)]
    return Subspace.row_space(block_matrix(f, len(blocks) * d, d, blocks))


def module_tensor_relations(M: AlgebroidModule, N: AlgebroidModule) -> RelationSpace:
    H = M.parent
    pairs = [(M.act(H.t_l.col(b)), N.act(H.s_l.col(b))) for b in range(H.base.dim)]
    return RelationSpace(H.field, M.dim * N.dim, _relation_space(H.field, pairs, M.dim, N.dim))


def tensor_over_base(M: AlgebroidModule, N: AlgebroidModule):
    """M (x)_{R_l} N with the Delta_l-induced action.

    Returns (module, RelationSpace).  Raises StructureError with a witness
    when the ambient diagonal action fails to preserve the relations (the
    action would then be ill-defined on the quotient).
    """
    if M.parent is not N.parent:
        raise StructureError("tensor factors must share a parent algebroid")
    H = M.parent
    f = H.field
    if M.dim * N.dim > max_tensor_dim():
        raise StructureError("tensor dimension %d exceeds QHA_MAX_DIM" % (M.dim * N.dim))
    rel = module_tensor_relations(M, N)
    d = M.dim * N.dim
    amb = [kron_sum(f, d, d, [(c, [M.mats[p], N.mats[q]]) for c, p, q in H.delta_l_terms(i)])
           for i in range(H.dim)]
    relations = rel.relations.basis_matrix()
    for i in range(H.dim):
        if rel.relations.coordinate_matrix(amb[i] * relations) is None:
            raise StructureError(
                "tensor action ill-defined: basis element %d maps a relation "
                "outside the relation space" % i)
    mats = [rel.projector * a * rel.lift for a in amb]
    mod = AlgebroidModule(H, mats, name="(%s)x_R(%s)" % (M.name, N.name))
    return mod, rel


# -- internal homs over the base ------------------------------------------------

def right_linear_hom_basis(M: AlgebroidModule, N: AlgebroidModule) -> Subspace:
    """Hom(M, N)_{R_l}: maps commuting with every t_l(r)-action."""
    H = M.parent
    pairs = [(M.act(H.t_l.col(b)), N.act(H.t_l.col(b))) for b in range(H.base.dim)]
    return intertwiner_space(H.field, pairs, N.dim, M.dim)


def left_linear_hom_basis(M: AlgebroidModule, N: AlgebroidModule) -> Subspace:
    """Hom_{R_l}(M, N): maps commuting with every s_l(r)-action."""
    H = M.parent
    pairs = [(M.act(H.s_l.col(b)), N.act(H.s_l.col(b))) for b in range(H.base.dim)]
    return intertwiner_space(H.field, pairs, N.dim, M.dim)


def left_hom_algebroid(V: AlgebroidModule, M: AlgebroidModule):
    """Hom^l(V, M) = Hom(V, M)_{R_l} with h.phi = h^1 phi(S(h^2) -), Delta_r legs.

    Returns (module, basis) where basis is the canonical carrier subspace of
    Hom_k(V, M), in whose coordinates the full-carrier action is expressed."""
    if V.parent is not M.parent:
        raise StructureError("hom factors must share a parent algebroid")
    H = V.parent
    f = H.field
    basis = right_linear_hom_basis(V, M)
    bmat = basis.basis_matrix()
    d = M.dim * V.dim
    pre = [V.act(H.apply_s(H.basis(q))).transpose() for q in range(H.dim)]
    mats = []
    for i in range(H.dim):
        full = kron_sum(f, d, d, [(c, [M.mats[p], pre[q]]) for c, p, q in H.delta_r_terms(i)])
        sub = basis.coordinate_matrix(full * bmat)
        if sub is None:
            raise StructureError("hom action does not preserve the base-linear carrier")
        mats.append(sub)
    return AlgebroidModule(H, mats, name="Hom^l(%s,%s)" % (V.name, M.name)), basis


# -- the right-hand maps are the left-hand maps over H^cop ---------------------
#
# An H-module is an H^cop-module on the same matrices, and V (x) W over H^cop
# is W (x)_R V over H with the factors swapped.  The two quotient carriers
# have their own canonical sections, so a map on one tensor domain is re-read
# on the other through the ambient space.

def right_hom_algebroid(V: AlgebroidModule, M: AlgebroidModule):
    """Hom^r(V, M) = Hom_{R_l}(V, M) with h.phi = h^2 phi(S^-1(h^1) -), Delta_r legs.

    This is Hom^l(V, M) over H^cop, on the same action matrices and carrier."""
    mod, basis = left_hom_algebroid(*_over_cop(V, M))
    return _hom_r_module(mod, V, M), basis


def _hom_r_module(cop_mod: AlgebroidModule, V: AlgebroidModule, M: AlgebroidModule):
    return AlgebroidModule(V.parent, cop_mod.mats, name="Hom^r(%s,%s)" % (V.name, M.name))


def _swap_domain(f_mat: Matrix, src: RelationSpace, dst: RelationSpace,
                 d1: int, d2: int) -> Matrix:
    """f on the quotient of V1 (x) V2 (dims d1, d2), re-read on V2 (x) V1."""
    return _swap_factors(f_mat * src.projector, d1, d2) * dst.lift


# -- adjunctions (strict evaluations over the base) -------------------------------

def ev_l_algebroid(V: AlgebroidModule, M: AlgebroidModule):
    """ev^l: Hom^l(V,M) (x)_{R_l} V -> M, phi (x) v |-> phi(v).

    Returns (matrix on the quotient carrier, hom module, hom basis, tensor data).
    """
    hom_mod, hom_basis = left_hom_algebroid(V, M)
    tens, rel = tensor_over_base(hom_mod, V)
    # column c*dV + v: the hom basis map c evaluated at e_v
    amb = _uncurry(hom_basis.basis_matrix(), V.dim)
    ev = amb * rel.lift
    if ev * rel.projector != amb:
        raise StructureError("ev^l is not constant on tensor relation classes")
    return ev, hom_mod, hom_basis, (tens, rel)


def ev_r_algebroid(V: AlgebroidModule, M: AlgebroidModule):
    """ev^r: V (x)_{R_l} Hom^r(V,M) -> M, v (x) phi |-> phi(v): ev^l over H^cop
    read on the swapped tensor domain.

    The tensor V (x)_R Hom^r(V, M) is the H^cop tensor Hom (x) V with its
    factors swapped: the relations are the swapped ones, put back in
    canonical form, and the actions are the H^cop actions carried across
    the swap of quotient carriers."""
    ev, cop_mod, hom_basis, (cop_tens, cop_rel) = ev_l_algebroid(*_over_cop(V, M))
    hom_mod = _hom_r_module(cop_mod, V, M)
    f = M.parent.field
    d1, d2 = hom_mod.dim, V.dim
    swapped = _swap_factors(cop_rel.relations.basis_stack(d1 * d2), d1, d2)
    rel = RelationSpace(f, d1 * d2, Subspace.row_space(swapped))
    # cop quotient -> H quotient: projector . (swap of the ambient) . lift
    to_h = rel.projector * _swap_factors(cop_rel.lift.transpose(), d1, d2).transpose()
    mats = [to_h * _swap_domain(m, cop_rel, rel, d1, d2) for m in cop_tens.mats]
    tens = AlgebroidModule(V.parent, mats, name="(%s)x_R(%s)" % (V.name, hom_mod.name))
    return _swap_domain(ev, cop_rel, rel, d1, d2), hom_mod, hom_basis, (tens, rel)


def zeta_l_algebroid(f_mat: Matrix, M: AlgebroidModule, N: AlgebroidModule,
                     L: AlgebroidModule) -> Matrix:
    """zeta^l: Hom_H(M (x)_R N, L) -> Hom_H(M, Hom^l(N, L)), f |-> (m |-> f(m (x) -)).

    Input and output are verified H-module morphisms; coordinates on the
    target side are taken in the canonical hom-carrier basis.  f_mat may be
    a vertical stack of maps; the result is the stack of their images."""
    tens, rel = tensor_over_base(M, N)
    require_intertwiner(f_mat, tens, L, "zeta_l input")
    hom_mod, hom_basis = left_hom_algebroid(N, L)
    # the columns of every curried map are full-carrier vectors of Hom_k(N, L)
    full = _curry(f_mat * rel.projector, N.dim).side_by_side(L.dim * N.dim)
    coords = hom_basis.coordinate_matrix(full)
    if coords is None:
        raise IntertwinerError("zeta_l image is not base-linear")
    out = coords.stacked(M.dim)
    require_intertwiner(out, M, hom_mod, "zeta_l output")
    return out


def eta_l_algebroid(g_mat: Matrix, M: AlgebroidModule, N: AlgebroidModule,
                    L: AlgebroidModule) -> Matrix:
    """eta^l(g) = ev^l o (g (x) id): back to Hom_H(M (x)_R N, L), for one map
    or for every map of a vertical stack."""
    hom_mod, hom_basis = left_hom_algebroid(N, L)
    require_intertwiner(g_mat, M, hom_mod, "eta_l input")
    tens, rel = tensor_over_base(M, N)
    amb = _uncurry(lmul_blocks(hom_basis.basis_matrix(), g_mat), N.dim)
    out = amb * rel.lift
    if out * rel.projector != amb:
        raise StructureError("eta_l image not constant on relation classes")
    require_intertwiner(out, tens, L, "eta_l output")
    return out


def zeta_r_algebroid(f_mat: Matrix, N: AlgebroidModule, M: AlgebroidModule,
                     L: AlgebroidModule) -> Matrix:
    """zeta^r: Hom_H(N (x)_R M, L) -> Hom_H(M, Hom^r(N, L)), f |-> (m |-> f(- (x) m)),
    which is zeta^l over H^cop applied to f read on M (x) N."""
    Nc, Mc, Lc = _over_cop(N, M, L)
    f_cop = _swap_domain(f_mat, module_tensor_relations(N, M),
                         module_tensor_relations(Mc, Nc), N.dim, M.dim)
    return zeta_l_algebroid(f_cop, Mc, Nc, Lc)


def eta_r_algebroid(g_mat: Matrix, N: AlgebroidModule, M: AlgebroidModule,
                    L: AlgebroidModule) -> Matrix:
    """eta^r(g) = ev^r o (id (x) g): back to Hom_H(N (x)_R M, L), which is
    eta^l over H^cop read on the swapped tensor domain."""
    Nc, Mc, Lc = _over_cop(N, M, L)
    return _swap_domain(eta_l_algebroid(g_mat, Mc, Nc, Lc),
                        module_tensor_relations(Mc, Nc), module_tensor_relations(N, M),
                        M.dim, N.dim)


def eval_adjunctions_algebroid(M: AlgebroidModule, N: AlgebroidModule,
                               L: AlgebroidModule) -> dict:
    """The biclosed-structure maps for the triple (M, N, L) at matrix level.

    Returns the two evaluation matrices together with closures for the four
    adjunction maps; the evaluations are verified H-module morphisms."""
    ev_l, hl_mod, _, (tens_l, _) = ev_l_algebroid(N, L)
    ev_r, hr_mod, _, (tens_r, _) = ev_r_algebroid(N, L)
    require_intertwiner(ev_l, tens_l, L, "ev^l")
    require_intertwiner(ev_r, tens_r, L, "ev^r")
    return {
        "ev_l": ev_l,
        "ev_r": ev_r,
        "zeta_l": lambda fm: zeta_l_algebroid(fm, M, N, L),
        "eta_l": lambda gm: eta_l_algebroid(gm, M, N, L),
        "zeta_r": lambda fm: zeta_r_algebroid(fm, N, M, L),
        "eta_r": lambda gm: eta_r_algebroid(gm, N, M, L),
    }


# -- axiom checks -------------------------------------------------------------

def _tensor2_vec(f, n, terms):
    out = [f.zero] * (n * n)
    for c, p, q in terms:
        out[p * n + q] = f.add(out[p * n + q], c)
    return tuple(out)


def _mult_into_leg(H, terms, vec, leg, side):
    """Multiply one leg of a 2-tensor by a fixed element of H."""
    f = H.field
    out = []
    for c, p, q in terms:
        if leg == 0:
            prod = H.mult_vec(vec, H.basis(p)) if side == "l" else \
                H.mult_vec(H.basis(p), vec)
            for k, v in enumerate(prod):
                if v != 0:
                    out.append((f.mul(c, v), k, q))
        else:
            prod = H.mult_vec(vec, H.basis(q)) if side == "l" else \
                H.mult_vec(H.basis(q), vec)
            for k, v in enumerate(prod):
                if v != 0:
                    out.append((f.mul(c, v), p, k))
    return out


def check_algebroid_structure(H: HopfAlgebroid) -> CheckReport:
    """Ring-map invariants: algebra axioms, source/target (anti)homomorphisms
    with commuting images, and the antipode pair."""
    f = H.field
    n, r = H.dim, H.base.dim
    rep = CheckReport()
    rep.extend(H.base.validate())

    ok, wit = True, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = H.mult_vec(H.mult_vec(H.basis(i), H.basis(j)), H.basis(k))
                rhs = H.mult_vec(H.basis(i), H.mult_vec(H.basis(j), H.basis(k)))
                if lhs != rhs:
                    ok, wit = False, (("i", i), ("j", j), ("k", k))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("mult_associative", ok, wit)
    rep.add("mult_unital", all(
        H.mult_vec(H.unit, H.basis(i)) == H.basis(i)
        and H.mult_vec(H.basis(i), H.unit) == H.basis(i) for i in range(n)))

    def is_hom(mat, opposite):
        for a in range(r):
            for b in range(r):
                rab = H.base.mult_vec(H.base.basis(a), H.base.basis(b))
                lhs = mat.apply(rab)
                if opposite:
                    rhs = H.mult_vec(mat.col(b), mat.col(a))
                else:
                    rhs = H.mult_vec(mat.col(a), mat.col(b))
                if lhs != rhs:
                    return False
        return mat.apply(H.base.unit) == H.unit

    rep.add("s_l_homomorphism", is_hom(H.s_l, opposite=False))
    rep.add("t_l_antihomomorphism", is_hom(H.t_l, opposite=True))
    # s_r is an algebra map from R^op, t_r from (R^op)^op = R
    rep.add("s_r_homomorphism_op", is_hom(H.s_r, opposite=True))
    rep.add("t_r_homomorphism", is_hom(H.t_r, opposite=False))

    rep.add("left_images_commute", all(
        H.mult_vec(H.s_l.col(a), H.t_l.col(b)) == H.mult_vec(H.t_l.col(b), H.s_l.col(a))
        for a in range(r) for b in range(r)))
    rep.add("right_images_commute", all(
        H.mult_vec(H.s_r.col(a), H.t_r.col(b)) == H.mult_vec(H.t_r.col(b), H.s_r.col(a))
        for a in range(r) for b in range(r)))

    eye = Matrix.identity(f, n)
    rep.add("antipode_inverse_pair",
            H.antipode * H.antipode_inv == eye and H.antipode_inv * H.antipode == eye)
    ok, wit = True, None
    for i in range(n):
        for j in range(n):
            lhs = H.apply_s(H.mult_vec(H.basis(i), H.basis(j)))
            rhs = H.mult_vec(H.apply_s(H.basis(j)), H.apply_s(H.basis(i)))
            if lhs != rhs:
                ok, wit = False, (("i", i), ("j", j))
                break
        if not ok:
            break
    rep.add("antipode_antihom", ok and H.apply_s(H.unit) == H.unit, wit)
    return rep


def check_left_bialgebroid(H: HopfAlgebroid) -> CheckReport:
    """The left bialgebroid axioms, all identities taken modulo the
    (x)_{R_l} relation subspace(s)."""
    f = H.field
    n, r = H.dim, H.base.dim
    rep = CheckReport()
    rel = H.rel_l

    ok, wit = True, None
    for b in range(r):
        for i in range(n):
            sl = H.s_l.col(b)
            lhs = _tensor2_vec(f, n, _expand_delta(H, H.delta_l_lift,
                                                   H.mult_vec(sl, H.basis(i))))
            rhs = _tensor2_vec(f, n, _mult_into_leg(H, H.delta_l_terms(i), sl, 0, "l"))
            if not rel.contains(tuple(f.sub(x, y) for x, y in zip(lhs, rhs))):
                ok, wit = False, (("r", b), ("b", i), ("side", 0))
                break
            tl = H.t_l.col(b)
            lhs = _tensor2_vec(f, n, _expand_delta(H, H.delta_l_lift,
                                                   H.mult_vec(tl, H.basis(i))))
            rhs = _tensor2_vec(f, n, _mult_into_leg(H, H.delta_l_terms(i), tl, 1, "l"))
            if not rel.contains(tuple(f.sub(x, y) for x, y in zip(lhs, rhs))):
                ok, wit = False, (("r", b), ("b", i), ("side", 1))
                break
        if not ok:
            break
    rep.add("delta_l_bimodule", ok, wit)

    rel3 = _triple_relations(H, ("l", "l"))
    ok, wit = True, None
    for i in range(n):
        lhs = _delta3(H, H.delta_l_lift, H.delta_l_lift, i, expand_first=True)
        rhs = _delta3(H, H.delta_l_lift, H.delta_l_lift, i, expand_first=False)
        diff = tuple(f.sub(x, y) for x, y in zip(lhs, rhs))
        if not rel3.contains(diff):
            ok, wit = False, (("b", i),)
            break
    rep.add("delta_l_coassoc", ok, wit)

    ok, wit = True, None
    for i in range(n):
        acc1 = tuple([f.zero] * n)
        acc2 = tuple([f.zero] * n)
        for c, p, q in H.delta_l_terms(i):
            term1 = H.mult_vec(H.s_l.apply(H.eps_l.apply(H.basis(p))), H.basis(q))
            acc1 = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc1, term1))
            term2 = H.mult_vec(H.t_l.apply(H.eps_l.apply(H.basis(q))), H.basis(p))
            acc2 = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc2, term2))
        if acc1 != H.basis(i) or acc2 != H.basis(i):
            ok, wit = False, (("b", i),)
            break
    rep.add("delta_l_counital", ok, wit)

    ok, wit = True, None
    for a in range(r):
        for b in range(r):
            for i in range(n):
                val = H.mult_vec(H.mult_vec(H.s_l.col(a), H.t_l.col(b)), H.basis(i))
                lhs = H.eps_l.apply(val)
                rhs = H.base.mult_vec(H.base.mult_vec(H.base.basis(a),
                                                      H.eps_l.apply(H.basis(i))),
                                      H.base.basis(b))
                if lhs != rhs:
                    ok, wit = False, (("r", a), ("rp", b), ("b", i))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("eps_l_bimodule", ok, wit)

    ok, wit = True, None
    for i in range(n):
        for b in range(r):
            tlr = H.t_l.col(b)
            slr = H.s_l.col(b)
            one = _tensor2_vec(f, n, _mult_into_leg(H, H.delta_l_terms(i), tlr, 0, "r"))
            two = _tensor2_vec(f, n, _mult_into_leg(H, H.delta_l_terms(i), slr, 1, "r"))
            if not rel.contains(tuple(f.sub(x, y) for x, y in zip(one, two))):
                ok, wit = False, (("b", i), ("r", b))
                break
        if not ok:
            break
    rep.add("takeuchi_left", ok, wit)

    ok, wit = True, None
    for i in range(n):
        for j in range(n):
            prod = H.mult_vec(H.basis(i), H.basis(j))
            lhs = _tensor2_vec(f, n, _expand_delta(H, H.delta_l_lift, prod))
            rhs = _pair_product(H, H.delta_l_terms(i), H.delta_l_terms(j))
            if not rel.contains(tuple(f.sub(x, y) for x, y in zip(lhs, rhs))):
                ok, wit = False, (("b", i), ("bp", j))
                break
        if not ok:
            break
    uvec = [f.zero] * (n * n)
    for p, cp in enumerate(H.unit):
        if cp != 0:
            for q, cq in enumerate(H.unit):
                if cq != 0:
                    uvec[p * n + q] = f.mul(cp, cq)
    lhsu = _tensor2_vec(f, n, _expand_delta(H, H.delta_l_lift, H.unit))
    unit_ok = rel.contains(tuple(f.sub(x, y) for x, y in zip(lhsu, uvec)))
    rep.add("delta_l_multiplicative", ok and unit_ok, wit)

    ok, wit = True, None
    for i in range(n):
        for j in range(n):
            prod = H.mult_vec(H.basis(i), H.basis(j))
            lhs = H.eps_l.apply(prod)
            mid = H.eps_l.apply(H.mult_vec(
                H.basis(i), H.s_l.apply(H.eps_l.apply(H.basis(j)))))
            rgt = H.eps_l.apply(H.mult_vec(
                H.basis(i), H.t_l.apply(H.eps_l.apply(H.basis(j)))))
            if lhs != mid or lhs != rgt:
                ok, wit = False, (("b", i), ("bp", j))
                break
        if not ok:
            break
    rep.add("eps_l_character", ok, wit)
    return rep


def _expand_delta(H: HopfAlgebroid, lift: Matrix, vec):
    """Delta of an arbitrary element through the stored lift, as sparse terms."""
    f = H.field
    n = H.dim
    out = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        for cd, p, q in H._delta_terms(lift, i):
            out.append((f.mul(c, cd), p, q))
    return out


def _pair_product(H: HopfAlgebroid, terms1, terms2):
    """Componentwise product of two lifted 2-tensors, as a dense vector."""
    f = H.field
    n = H.dim
    out = [f.zero] * (n * n)
    for c1, p1, q1 in terms1:
        for c2, p2, q2 in terms2:
            c = f.mul(c1, c2)
            left = H.mult_vec(H.basis(p1), H.basis(p2))
            right = H.mult_vec(H.basis(q1), H.basis(q2))
            for k, lv in enumerate(left):
                if lv == 0:
                    continue
                for l, rv in enumerate(right):
                    if rv != 0:
                        out[k * n + l] = f.add(out[k * n + l],
                                               f.mul(c, f.mul(lv, rv)))
    return tuple(out)


def _triple_relations(H: HopfAlgebroid, kinds) -> Subspace:
    """Relation subspace of H^(x)3 for the pair of tensor signs in ``kinds``:
    "l" for (x)_{R_l} (t_l x (x) y - x (x) s_l y), "r" for (x)_{R_r}; the
    first sign sits between slots 1|2, the second between 2|3."""
    f = H.field
    eye = Matrix.identity(f, H.dim)
    first, second = [(H.rel_l if kind == "l" else H.rel_r).basis_matrix().transpose()
                     for kind in kinds]
    a, b = first.kron(eye), eye.kron(second)
    return Subspace.row_space(block_matrix(f, a.rows + b.rows, H.dim ** 3,
                                           [(0, 0, a), (a.rows, 0, b)]))


def _delta3(H: HopfAlgebroid, lift_outer: Matrix, lift_inner: Matrix, i: int,
            expand_first: bool):
    """(Delta (x) id) Delta or (id (x) Delta) Delta through stored lifts."""
    f = H.field
    n = H.dim
    out = [f.zero] * (n ** 3)
    for c, p, q in H._delta_terms(lift_outer, i):
        if expand_first:
            for c2, a, b in H._delta_terms(lift_inner, p):
                out[(a * n + b) * n + q] = f.add(out[(a * n + b) * n + q],
                                                 f.mul(c, c2))
        else:
            for c2, a, b in H._delta_terms(lift_inner, q):
                out[(p * n + a) * n + b] = f.add(out[(p * n + a) * n + b],
                                                 f.mul(c, c2))
    return tuple(out)


def check_right_bialgebroid(H: HopfAlgebroid) -> CheckReport:
    """The right bialgebroid axioms for (Delta_r, eps_r): the left suite run on
    H^op, whose left bialgebroid is the right one of H.

    The ids are the left ones with l/left read as r/right, in the same order.
    Counterexamples name the indices of the loops over H^op, where the
    product of (b, bp) = (i, j) is e_j e_i in H; so where such products are
    quantified (eps_r_character, delta_r_multiplicative) the first failure
    found can be the transposed pair of a loop over H."""
    rep = CheckReport()
    for res in check_left_bialgebroid(H.op).results:
        rep.add(res.check_id.replace("_l_", "_r_").replace("_left", "_right"),
                res.passed, res.counterexample)
    return rep


def check_hopf_algebroid(H: HopfAlgebroid) -> CheckReport:
    """The antipode axioms linking the two bialgebroid structures, plus the
    derived identities used by the internal-hom constructions."""
    f = H.field
    n, r = H.dim, H.base.dim
    rep = CheckReport()

    rep.add("counit_source_target_1", H.s_l * H.eps_l * H.t_r == H.t_r)
    rep.add("counit_source_target_2", H.s_r * H.eps_r * H.t_l == H.t_l)
    rep.add("counit_source_target_3", H.t_l * H.eps_l * H.s_r == H.s_r)
    rep.add("counit_source_target_4", H.t_r * H.eps_r * H.s_l == H.s_l)

    rel_lr = _triple_relations(H, ("l", "r"))
    ok, wit = True, None
    for i in range(n):
        lhs = _delta3(H, H.delta_r_lift, H.delta_l_lift, i, expand_first=True)
        rhs = _delta3(H, H.delta_l_lift, H.delta_r_lift, i, expand_first=False)
        if not rel_lr.contains(tuple(f.sub(x, y) for x, y in zip(lhs, rhs))):
            ok, wit = False, (("b", i),)
            break
    rep.add("mixed_coassoc_1", ok, wit)

    rel_rl = _triple_relations(H, ("r", "l"))
    ok, wit = True, None
    for i in range(n):
        lhs = _delta3(H, H.delta_l_lift, H.delta_r_lift, i, expand_first=True)
        rhs = _delta3(H, H.delta_r_lift, H.delta_l_lift, i, expand_first=False)
        if not rel_rl.contains(tuple(f.sub(x, y) for x, y in zip(lhs, rhs))):
            ok, wit = False, (("b", i),)
            break
    rep.add("mixed_coassoc_2", ok, wit)

    ok, wit = True, None
    for a in range(r):
        for i in range(n):
            for b in range(r):
                lhs = H.apply_s(H.prod(H.t_l.col(a), H.basis(i), H.t_r.col(b)))
                rhs = H.prod(H.s_r.col(b), H.apply_s(H.basis(i)), H.s_l.col(a))
                if lhs != rhs:
                    ok, wit = False, (("r", a), ("h", i), ("rp", b))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("antipode_twisted_linear", ok, wit)

    ok, wit = True, None
    for i in range(n):
        acc = tuple([f.zero] * n)
        for c, p, q in H.delta_l_terms(i):
            term = H.mult_vec(H.apply_s(H.basis(p)), H.basis(q))
            acc = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc, term))
        if acc != H.s_r.apply(H.eps_r.apply(H.basis(i))):
            ok, wit = False, (("b", i),)
            break
    rep.add("antipode_convolution_left", ok, wit)

    ok, wit = True, None
    for i in range(n):
        acc = tuple([f.zero] * n)
        for c, p, q in H.delta_r_terms(i):
            term = H.mult_vec(H.basis(p), H.apply_s(H.basis(q)))
            acc = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc, term))
        if acc != H.s_l.apply(H.eps_l.apply(H.basis(i))):
            ok, wit = False, (("b", i),)
            break
    rep.add("antipode_convolution_right", ok, wit)

    ok, wit = True, None
    for i in range(n):
        acc = tuple([f.zero] * n)
        for c, p, q in H.delta_l_terms(i):
            term = H.mult_vec(H.apply_s_inv(H.basis(q)), H.basis(p))
            acc = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc, term))
        if acc != H.t_r.apply(H.eps_r.apply(H.basis(i))):
            ok, wit = False, (("b", i),)
            break
    rep.add("derived_sinv_convolution", ok, wit)

    ok, wit = True, None
    for i in range(n):
        acc = tuple([f.zero] * n)
        for c, p, q in H.delta_r_terms(i):
            term = H.mult_vec(H.basis(q), H.apply_s_inv(H.basis(p)))
            acc = tuple(f.add(x, f.mul(c, t)) for x, t in zip(acc, term))
        if acc != H.t_l.apply(H.eps_l.apply(H.basis(i))):
            ok, wit = False, (("b", i),)
            break
    rep.add("derived_tl_convolution", ok, wit)

    kow_a = H.t_r * H.eps_r * H.t_l == Matrix.from_cols(
        f, [H.apply_s_inv(H.t_l.col(b)) for b in range(r)], ambient=n)
    kow_b = H.s_r * H.eps_r * H.s_l == Matrix.from_cols(
        f, [H.apply_s(H.s_l.col(b)) for b in range(r)], ambient=n)
    rep.add("kow_identity", kow_a and kow_b)

    ok, wit = True, None
    for a in range(r):
        for i in range(n):
            for b in range(r):
                lhs = H.prod(H.t_r.col(b), H.apply_s_inv(H.basis(i)), H.t_l.col(a))
                rhs = H.apply_s_inv(H.prod(H.s_l.col(a), H.basis(i), H.s_r.col(b)))
                if lhs != rhs:
                    ok, wit = False, (("r", a), ("h", i), ("rp", b))
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("sinv_twisted_linear", ok, wit)
    return rep


# -- builders -----------------------------------------------------------------

def base_ring_dual_numbers(field: Field) -> BaseRing:
    """k[x]/(x^2), basis (1, x)."""
    z, o = field.zero, field.one
    mult = [z] * 8
    mult[(0 * 2 + 0) * 2 + 0] = o     # 1*1 = 1
    mult[(0 * 2 + 1) * 2 + 1] = o     # 1*x = x
    mult[(1 * 2 + 0) * 2 + 1] = o     # x*1 = x
    return BaseRing(field, 2, mult, (o, z), name="k[x]/(x^2)")


def base_ring_scalars(field: Field) -> BaseRing:
    return BaseRing(field, 1, [field.one], (field.one,), name="k")


def enveloping_algebroid(A: BaseRing, name: str = "") -> HopfAlgebroid:
    """The Hopf algebroid A (x) A^op with s_l(a) = a (x) 1, t_l(b) = 1 (x) b,
    split coproducts, counits a (x) b |-> ab resp. ba, and S(a (x) b) = b (x) a."""
    f = A.field
    r = A.dim
    n = r * r
    z = f.zero

    def idx(i, j):
        return i * r + j

    mult = [z] * n ** 3
    for i1 in range(r):
        for j1 in range(r):
            for i2 in range(r):
                for j2 in range(r):
                    left = A.mult_vec(A.basis(i1), A.basis(i2))
                    right = A.mult_vec(A.basis(j2), A.basis(j1))
                    row = (idx(i1, j1) * n + idx(i2, j2)) * n
                    for k, lv in enumerate(left):
                        if lv == 0:
                            continue
                        for l, rv in enumerate(right):
                            if rv != 0:
                                mult[row + idx(k, l)] = f.add(mult[row + idx(k, l)],
                                                              f.mul(lv, rv))
    unit = [z] * n
    for i, ci in enumerate(A.unit):
        if ci != 0:
            for j, cj in enumerate(A.unit):
                if cj != 0:
                    unit[idx(i, j)] = f.mul(ci, cj)

    # source/target maps, built columnwise
    def col_sl(b):
        v = [z] * n
        for j, cj in enumerate(A.unit):
            if cj != 0:
                v[idx(b, j)] = cj
        return v

    def col_tl(b):
        v = [z] * n
        for i, ci in enumerate(A.unit):
            if ci != 0:
                v[idx(i, b)] = ci
        return v

    s_l = Matrix.from_cols(f, [col_sl(b) for b in range(r)], ambient=n)
    t_l = Matrix.from_cols(f, [col_tl(b) for b in range(r)], ambient=n)
    s_r, t_r = t_l, s_l

    lift_cols = []
    for i in range(r):
        for j in range(r):
            v = [z] * (n * n)
            for s, cs in enumerate(A.unit):
                if cs == 0:
                    continue
                for t, ct in enumerate(A.unit):
                    if ct != 0:
                        v[idx(i, s) * n + idx(t, j)] = f.mul(cs, ct)
            lift_cols.append(v)
    lift = Matrix.from_cols(f, lift_cols, ambient=n * n)

    eps_l = Matrix.from_cols(f, [A.mult_vec(A.basis(i), A.basis(j))
                                 for i in range(r) for j in range(r)], ambient=r)
    eps_r = Matrix.from_cols(f, [A.mult_vec(A.basis(j), A.basis(i))
                                 for i in range(r) for j in range(r)], ambient=r)

    s_cols = [basis_vec(f, n, idx(j, i)) for i in range(r) for j in range(r)]
    antipode = Matrix.from_cols(f, s_cols, ambient=n)

    return HopfAlgebroid(A, n, mult, unit, s_l, t_l, s_r, t_r, lift, lift,
                         eps_l, eps_r, antipode, antipode,
                         name=name or "%s^e" % A.name)


def algebroid_from_hopf(Hq: QuasiHopfAlgebra, name: str = "") -> HopfAlgebroid:
    """View a Hopf algebra (trivial Phi, alpha, beta) as a Hopf algebroid over k."""
    if not Hq.is_hopf():
        raise StructureError("algebroid_from_hopf needs a Hopf input "
                             "(trivial Phi, alpha = beta = 1)")
    f = Hq.field
    n = Hq.dim
    base = base_ring_scalars(f)
    unit_col = Matrix.from_cols(f, [Hq.unit], ambient=n)
    lift = Matrix.from_cols(f, [Hq.comult[i] for i in range(n)], ambient=n * n)
    eps = Matrix.from_rows(f, [Hq.counit])
    return HopfAlgebroid(base, n, Hq.mult, Hq.unit,
                         unit_col, unit_col, unit_col, unit_col,
                         lift, lift, eps, eps,
                         Hq.antipode, Hq.antipode_inv,
                         name=name or Hq.name)
