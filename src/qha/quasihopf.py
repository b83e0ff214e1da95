"""Quasi-Hopf algebras presented by structure constants.

A quasi-Hopf algebra is stored over an exact field as its structure maps,
each one sparse matrix whose dense row-major entries are the flat array of
its structure file: the multiplication m (n^2 x n), the comultiplication
Delta (n x n^2), the antipode pair (S, S inverse), and the associator Phi
with its inverse (1 x n^3 each); the unit, counit and the two antipode
decorations alpha, beta are elements, tuples of n scalars.  Hopf algebras
are the special case Phi = 1 (x) 1 (x) 1, alpha = beta = 1.

V (x) W, its associativity constraint and the biclosed layer of both
parents are written here once: ``tensor_module``, ``associativity`` and
its inverse, Hom^l, zeta^l and eta^l, their mirrors over the co-opposite
parent, and the hom associativity maps of the hexagon.  A parent gives
them data and no algorithm: Phi and Phi^-1 (1 (x) 1 (x) 1 over a Hopf
algebroid), the coproduct legs of the tensor and hom actions (Delta here,
Delta_l and Delta_r over an algebroid), the base relations and the
carrier of Hom^l (here the zero subspace and all of Hom_k, which cost
nothing), the map that zeta^l precomposes with on M (x) N (the action of
P (x) Q beta S(R) here, the projector onto M (x)_R N over an algebroid),
the map that eta^l applies to the carrier of Hom^l (eval_left curried
here, the carrier's embedding over an algebroid) and ``cop``.  The
unitors are the one algorithm a parent still gives.

Every Phi-decoration is Phi or Phi^-1 with two legs contracted by the
stored alpha-hat or beta-hat (the rigid evaluation and coevaluation), an
element of H (x) H that acts through the basis action matrices.

Every axiom check is one matrix identity, two sides whose columns are its
instances, and reports per-axiom pass/fail with the lexicographically first
failing basis tuple, so runs are reproducible bit for bit.  Once its
premises have passed, an axiom is first compared at a generating set,
whose instances decide the rest (``compare_on_generators``).
"""

from __future__ import annotations

import os
from math import prod
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property, reduce, wraps

from .fields import Field
from .linalg import (Matrix, Subspace, ShapeError, intertwiner_space, kron_sum,
                     slot_apply, stack_lmul, stack_rmul, swap_factors, swap_slots, vstack,
                     hstack, basis_vec, vec_scale)
from .reports import CheckReport


class StructureError(ValueError):
    """Structure constants are malformed (shape or invariant violation)."""


class IntertwinerError(ValueError):
    """A map required to be H-linear is not."""


def max_tensor_dim() -> int:
    """Ambient-dimension cap for tensor constructions (env QHA_MAX_DIM, default
    4096); a value that is not an integer is a StructureError."""
    raw = os.environ.get("QHA_MAX_DIM", "4096")
    try:
        return int(raw)
    except ValueError:
        raise StructureError("QHA_MAX_DIM must be an integer, got %r" % raw) from None


def lift_legs(lift: Matrix):
    """The Sweedler terms (coef, p, q) of every column of a coproduct matrix."""
    n = lift.cols
    return [tuple((c, *divmod(k, n)) for k, c in col.items()) for col in lift.col_maps()]


def element_legs(row: Matrix, n: int, k: int) -> dict:
    """The nonzero terms {(i_1, ..., i_k): coef} of a one-row element of H^(x)k."""
    return {tuple(key // n ** (k - 1 - s) % n for s in range(k)): c
            for key, c in row.row_map(0).items()}


def require_shapes(*expected):
    """Raise a StructureError at the first (name, value, shape) whose value
    has another shape: a Matrix of shape (rows, cols), or a sequence of
    shape length (an element, such as the unit)."""
    for name, value, shape in expected:
        got = (value.rows, value.cols) if isinstance(value, Matrix) else len(value)
        if got != shape:
            raise StructureError("%s has shape %s, want %s" % (name, got, shape))


class Algebra:
    """The arithmetic of an associative algebra given by structure constants,
    shared by quasi-Hopf algebras, Hopf algebroids and their base rings.

    Subclasses set field, dim, mult and unit: mult is the dim^2 x dim
    matrix m^T whose row i*n + j is e_i e_j, so that its row-major entries
    are the flat array of the structure file, and unit is a tuple.  The
    same constants are held once more as the dim x dim^2 multiplication
    matrix m (``mult_matrix``) and as the multiplication matrices of the
    basis (``left_mults``, ``right_mults``).  Elements are dense vectors;
    those of H^(x)k are one-row matrices.
    """

    # whether the parent has passed the structure checks under which tensor
    # products and hom spaces of modules are modules: the premise of
    # ``generators``, claimed only by a quasi-Hopf parent
    structure_passed = False

    @cached_property
    def _decided(self) -> dict:
        """What is decided once for this algebra and its co-opposite, on the
        same multiplication and unit: one dict that both hold, so that
        neither refers to the other."""
        return {}

    @cached_property
    def mult_matrix(self) -> Matrix:
        """m: column i*n + j is e_i e_j."""
        return self.mult.transpose()

    def products(self, X: Matrix, right: bool = False) -> Matrix:
        """m (X (x) I), or m (I (x) X) when right: the products of the
        columns of X with the basis, made from the rows of m^T that X picks
        with no pass over all of m and no transpose."""
        eye = Matrix.identity(self.field, self.dim)
        return self.mult.tmul(eye.kron(X) if right else X.kron(eye))

    def mults_of(self, X: Matrix, right: bool = False):
        """The left (right) multiplication matrices of the columns of X: the
        column blocks of m (X (x) I), or the strided ones of m (I (x) X)."""
        n, k = self.dim, X.cols
        if right:
            return self.products(X, right=True).reindexed(
                k * n, n, lambda r, c: (c % k * n + r, c // k)).row_blocks(n)
        return self.products(X).reindexed(
            k * n, n, lambda r, c: (c // n * n + r, c % n)).row_blocks(n)

    @cached_property
    def left_mults(self):
        """L_(e_i) = m (e_i (x) I) for every basis element: column j is
        e_i e_j, so L_(e_i) is block i of n rows of m^T, transposed."""
        return [b.transpose() for b in self.mult.row_blocks(self.dim)]

    @cached_property
    def right_mults(self):
        """R_(e_j) = m (I (x) e_j) for every basis element: column i is
        e_i e_j, so R_(e_j) is strided block j of m^T, transposed."""
        return [b.transpose() for b in self.mult.row_blocks(self.dim, strided=True)]

    # the antipode of a parent (not of a base ring)

    @cached_property
    def antipode_mults(self):
        """L_(S(e_h)) and R_(S^-1(e_h)) for every basis element."""
        return self.mults_of(self.antipode), self.mults_of(self.antipode_inv, right=True)

    @property
    def generating_set(self) -> tuple:
        """The basis indices G picked greedily in index order, read from the
        structure constants alone: an index joins when its element lies
        outside the span so far, the closure of k1 under left multiplication
        by the picked elements.  When 1 is a unit each picked e_g = e_g 1
        lies in it, so that closure is all of H, and a subspace of H that
        holds 1 and G and is closed under products is all of H.  H^cop,
        on the same multiplication and unit, shares the set of H."""
        decided = self._decided
        if "generating_set" not in decided:
            decided["generating_set"] = self._pick_generators()
        return decided["generating_set"]

    def _pick_generators(self) -> tuple:
        f, n = self.field, self.dim
        picked, span = [], Subspace.from_generators(f, n, [self.unit])
        for i in range(n):
            if span.dim == n:
                break
            if span.coordinates(self.basis(i)) is not None:
                continue
            picked.append(i)
            while True:
                cols = span.basis_matrix()
                grown = Subspace.row_space(vstack(f, n, [cols.transpose()] + [
                    (self.left_mults[g] * cols).transpose() for g in picked]))
                if grown.dim == span.dim:
                    break
                span = grown
        return tuple(picked)

    @property
    def generators(self) -> tuple:
        """``generating_set`` once ``structure_passed`` holds, whose checks
        include the unit and associativity; every index before."""
        return self.generating_set if self.structure_passed else tuple(range(self.dim))

    def basis(self, i: int):
        return basis_vec(self.field, self.dim, i)

    def prod(self, *vecs):
        """The product of dense elements, bracketed from the left: m (a (x) b)."""
        f, out = self.field, tuple(vecs[0])
        for v in vecs[1:]:
            out = self.mult_matrix.apply(tuple(f.mul(a, b) if a and b else f.zero
                                               for a in out for b in v))
        return out

    def check_algebra(self, rep: CheckReport, prefix: str, unit_witness: bool):
        """Add prefix_associative, with witness (i, j, k), and prefix_unital,
        with witness (i,) when unit_witness, to rep.  For the k that E picks
        and r = m (I (x) E), column (i, j, k) of r (m (x) I) is (e_i e_j) e_k
        and of m (I (x) r) is e_i (e_j e_k), each side one slot_apply with no
        Kronecker product formed; E = I gives m (m (x) I) and m (I (x) m).

        Once 1 is a unit, the k in G suffice (Light's test): the c with
        (ab)c = a(bc) for all a, b form a subspace that holds 1 and is
        closed under products, since (ab)(cd) = ((ab)c)d = (a(bc))d =
        a((bc)d) = a(b(cd)), so it is all of H once it holds G."""
        f, n, m = self.field, self.dim, self.mult_matrix
        unit, eye = Matrix.from_cols(f, [self.unit]), Matrix.identity(f, n)
        unital = (vstack(f, n, self.mults_of(unit) + self.mults_of(unit, right=True)),
                  vstack(f, n, [eye, eye]))

        def sides(E):
            right = self.products(E, right=True)
            return (slot_apply(self.mult, right, 1, E.cols),
                    slot_apply(right.transpose(), m, n, 1))

        compare_on_generators(rep, self, prefix + "_associative", (("i", n), ("j", n), ("k", n)),
                              sides, unital[0] == unital[1])
        rep.compare(prefix + "_unital", (("i", n),) if unit_witness else None, *unital)


class QuasiHopfAlgebra(Algebra):
    """Structure-constant presentation of (H, m, u, Delta, eps, S, S^-1, Phi, alpha, beta).

    Each structure tensor is one sparse matrix, in the order of its flat
    array in a structure file: mult is n^2 x n with row i*n + j the product
    e_i e_j, comult is n x n^2 with row i the element Delta(e_i) of H (x) H
    in tensor_index order, and phi and phi_inv are 1 x n^3.  The unit,
    counit, alpha and beta are tuples of n scalars.
    """

    def __init__(self, field: Field, dim: int, mult: Matrix, unit, comult: Matrix, counit,
                 antipode: Matrix, antipode_inv: Matrix, phi: Matrix, phi_inv: Matrix,
                 alpha, beta, name: str = ""):
        n = dim
        self.field = field
        self.dim = n
        self.mult = mult
        self.unit = tuple(unit)
        self.comult = comult
        self.counit = tuple(counit)
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self.phi = phi
        self.phi_inv = phi_inv
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.name = name or "H"
        require_shapes(("mult", mult, (n * n, n)), ("unit", self.unit, n),
                       ("comult", comult, (n, n * n)), ("counit", self.counit, n),
                       ("antipode", antipode, (n, n)), ("antipode_inv", antipode_inv, (n, n)),
                       ("phi", phi, (1, n ** 3)), ("phi_inv", phi_inv, (1, n ** 3)),
                       ("alpha", self.alpha, n), ("beta", self.beta, n))

    # -- derived tables (lazy, immutable once computed) --------------------

    @cached_property
    def comult_matrix(self) -> Matrix:
        """Delta: column i is Delta(e_i) in H (x) H."""
        return self.comult.transpose()

    @cached_property
    def delta_legs(self):
        """The Sweedler terms (coef, leg1, leg2) of Delta(e_i), for every i."""
        return lift_legs(self.comult_matrix)

    @cached_property
    def alpha_hat(self) -> Matrix:
        """m (R_alpha S (x) I): e_p (x) e_q |-> S(e_p) alpha e_q."""
        r_alpha = self.mults_of(Matrix.from_cols(self.field, [self.alpha]), right=True)[0]
        return self.mult_matrix * (r_alpha * self.antipode).kron(
            Matrix.identity(self.field, self.dim))

    @cached_property
    def beta_hat(self) -> Matrix:
        """m (R_beta (x) S): e_p (x) e_q |-> e_p beta S(e_q)."""
        r_beta = self.mults_of(Matrix.from_cols(self.field, [self.beta]), right=True)[0]
        return self.mult_matrix * r_beta.kron(self.antipode)

    @property
    def structure_passed(self) -> bool:
        """Whether validate_structure passes: Delta and eps are algebra maps
        and S an anti-homomorphism, so that tensor products and hom spaces
        of modules are modules.  Decided at most once for a parent and its
        H^cop together: each call of validate_structure records its verdict
        here.  The two verdicts agree: the Delta, Phi, Phi^-1 and S of H^cop
        are those of H with their legs reversed, or S and S^-1 exchanged,
        which keeps every check."""
        decided = self._decided
        if "structure_passed" not in decided:
            validate_structure(self)
        return decided["structure_passed"]

    @structure_passed.setter
    def structure_passed(self, passed: bool):
        self._decided["structure_passed"] = passed

    def eps(self, vec):
        return Matrix(self.field, 1, self.dim, self.counit).apply(vec)[0]

    def is_hopf(self) -> bool:
        """True when Phi = 1(x)1(x)1 and alpha = beta = 1."""
        return (self.phi == _unit_row(self, 3)
                and self.alpha == self.unit and self.beta == self.unit)

    @cached_property
    def cop(self) -> "QuasiHopfAlgebra":
        """The co-opposite H^cop: Delta^cop(h) = h_2 (x) h_1, Phi_cop = Phi^-1
        with its legs in order 3, 2, 1, antipode S^-1, and decorations
        S^-1(alpha), S^-1(beta).  Its modules are those of H; its left-hand
        biclosed maps are the right-hand maps of H."""
        n = self.dim

        def legs_321(r, c):
            # column (x*n + y)*n + z of a one-row element of H^(x)3 takes (z, y, x)
            return r, (c % n * n + c // n % n) * n + c // (n * n)

        cop = QuasiHopfAlgebra(
            self.field, n, self.mult, self.unit, swap_slots(self.comult, n, n), self.counit,
            self.antipode_inv, self.antipode,
            self.phi_inv.reindexed(1, n ** 3, legs_321), self.phi.reindexed(1, n ** 3, legs_321),
            self.antipode_inv.apply(self.alpha), self.antipode_inv.apply(self.beta),
            name=self.name + "^cop")
        # its structure checks pass exactly when those of H do
        cop._decided = self._decided
        return cop

    # -- monoidal primitives (shared with HopfAlgebroid) ------------------------

    def tensor_relations(self, *factors):
        """Base relations of ((F1 (x) F2) (x) ...) (x) Fn: the zero subspace."""
        return Subspace.zero(self.field, prod([F.dim for F in factors]))

    def tensor_legs(self, i: int):
        return self.delta_legs[i]

    def unit_object(self):
        """The monoidal unit k."""
        return trivial_module(self)

    def left_unitor(self, V) -> Matrix:
        """k (x) V -> V: the identity on carriers."""
        return Matrix.identity(self.field, V.dim)

    def right_unitor(self, V) -> Matrix:
        """V (x) k -> V: the identity on carriers."""
        return Matrix.identity(self.field, V.dim)

    # the four data of the biclosed layer (left_hom, zeta_l, eta_l and their
    # mirrors), which is written once below: the Delta legs, all of Hom_k
    # as carrier, the Phi-decoration of zeta^l and the evaluation eval_left

    def hom_legs(self, i: int):
        return self.delta_legs[i]

    def hom_carrier(self, V, M):
        return Subspace.full(self.field, M.dim * V.dim)

    def zeta_decoration(self, M, N) -> Matrix:
        """The action on M (x) N of (id (x) beta-hat)(Phi^-1) = P (x) Q beta S(R)."""
        d, n = M.dim * N.dim, self.dim
        terms = element_legs(slot_apply(self.beta_hat, self.phi_inv, n, 1), n, 2)
        return kron_sum(self.field, d, d,
                        [(c, [M.mats[p], N.mats[w]]) for (p, w), c in terms.items()])

    def hom_evaluation(self, V, M) -> Matrix:
        """eval_left curried, Hom_k(V, M) -> Hom_k(V, M):
        phi |-> (v |-> X phi(S(Y) alpha Z v))."""
        d = M.dim * V.dim
        return swap_factors(eval_left(V, M), d, V.dim).reshaped(d, d)

    def __repr__(self):
        return "QuasiHopfAlgebra(%s, dim %d over %s)" % (self.name, self.dim, self.field)


# -- tensor-power elements ----------------------------------------------------
#
# An element of H^(x)k (Phi, Delta(h), the sides of the pentagon) is a
# one-row matrix over the basis tuples in ``tensor_index`` order, and the
# elements of one check are the rows of one matrix.  A map on one tensor
# slot acts on every row at once (``slot_apply``).

def tensor_times(H, k: int, a: Matrix, X: Matrix, right: bool = False) -> Matrix:
    """The products a x in H^(x)k (x a when right) of the one-row element a
    with every row x of X: for each term c e_(i_1) (x) ... (x) e_(i_k) of a,
    c times X with the cached left (right) multiplication matrix of e_(i_s)
    applied to slot s."""
    n = H.dim
    if a.rows != 1 or a.cols != n ** k:
        raise ShapeError("a %dx%d matrix is no element of H^(x)%d" % (a.rows, a.cols, k))
    mults = H.right_mults if right else H.left_mults
    terms = []
    for key, c in a.row_map(0).items():
        Y = X
        for s in range(k - 1, -1, -1):
            key, i = divmod(key, n)
            Y = slot_apply(mults[i], Y, n ** s, n ** (k - 1 - s))
        terms.append((c, [Y]))
    return kron_sum(H.field, X.rows, X.cols, terms)


def _unit_row(H, k: int) -> Matrix:
    """1 (x) ... (x) 1 in H^(x)k, as one row."""
    unit = Matrix(H.field, 1, H.dim, H.unit)
    return reduce(Matrix.kron, [unit] * k, Matrix.identity(H.field, 1))


def _pair_products(H, k: int, X: Matrix) -> Matrix:
    """Row i*r + j is x_i x_j in H^(x)k, for the r rows x_i of X."""
    return vstack(H.field, X.cols, [tensor_times(H, k, x, X) for x in X.row_blocks(1)])


# -- modules -----------------------------------------------------------------

class HModule:
    """A finite-dimensional left module over a quasi-Hopf algebra or a Hopf
    algebroid: one action matrix per basis element, held once more as rho_V
    (``action``) for the actions of families.  Two modules are equal when
    they have the same parent (by identity) and equal action matrices; the
    name is not compared.

    ``made_from`` names the modules that a tensor product or hom module
    was built from, and a cop view shares it with its module: over a
    parent that has passed its structure checks, such a module is a
    module when they are (see ``genuine``)."""

    def __init__(self, parent, mats, name: str = "", made_from=None):
        self.parent = parent
        self.made_from = made_from
        self.mats = tuple(mats)
        if len(self.mats) != parent.dim:
            raise StructureError("need %d action matrices" % parent.dim)
        self.dim = self.mats[0].rows if self.mats else 0
        for m in self.mats:
            if m.rows != self.dim or m.cols != self.dim:
                raise StructureError("action matrices must be square of equal size")
        self.name = name

    @cached_property
    def action(self) -> Matrix:
        """rho_V, dim H x dim V^2: row i is the action matrix of e_i, read row-major."""
        d = self.dim
        return vstack(self.parent.field, d * d, [m.reshaped(1, d * d) for m in self.mats])

    @cached_property
    def cop(self) -> "HModule":
        """This module over the co-opposite parent H^cop, on the same action
        matrices and rho_V: the view the right-hand biclosed maps read it in."""
        view = HModule(self.parent.cop, self.mats, name=self.name, made_from=self.made_from)
        view.action = self.action
        return view

    @cached_property
    def genuine(self) -> bool:
        """Whether the action is known to be unital and multiplicative, the
        premise of reading H-linearity on the parent's generators.  False
        without a check when the parent has as many generators as basis
        elements, since nothing is saved then.  Otherwise decided by
        check_module, or for a module made from others (``made_from``) by
        theirs, since such a parent has passed its structure checks."""
        H = self.parent
        if len(H.generators) == H.dim:
            return False
        if self.made_from is not None:
            return all(X.genuine for X in self.made_from)
        return check_module(self).passed

    def acts(self, X: Matrix):
        """The action matrices of the columns of X, from the one product X^T rho_V."""
        d = self.dim
        return [a.reshaped(d, d) for a in (X.transpose() * self.action).row_blocks(1)]

    def act(self, vec) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        return self.acts(Matrix(self.parent.field, self.parent.dim, 1, vec))[0]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HModule):
            return NotImplemented
        return self.parent is other.parent and self.mats == other.mats

    @cached_property
    def _hash(self) -> int:
        # dims and sparsity patterns only: no Fraction is hashed
        return hash((id(self.parent), self.dim, tuple(m.pattern() for m in self.mats)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "HModule(%s, dim %d)" % (self.name or "?", self.dim)


def check_module(V: HModule) -> CheckReport:
    """Verify the unital action axioms rho(u) = id, rho(ab) = rho(a) rho(b).

    Column (i, j) of each side is a d x d matrix read row-major: rho(e_i e_j)
    from rho m, and rho(e_i) rho(e_j) from the block (i, j) of the products
    of the stacked actions with the picked actions side by side.  Once
    rho(1) = id and the parent's ``structure_passed`` hold, the j in G
    suffice, since rho(a(bc)) = rho((ab)c) = rho(a) rho(b) rho(c)."""
    H, d = V.parent, V.dim
    n, stack, rep = H.dim, vstack(H.field, d, V.mats), CheckReport()
    unit = V.act(H.unit).is_identity()

    def sides(E):
        k = E.cols
        return V.action.transpose() * H.products(E, right=True), (
            stack * hstack(H.field, d, V.acts(E))).reindexed(
                d * d, n * k, lambda r, c: (r % d * d + c % d, r // d * k + c // d))

    compare_on_generators(rep.add("module_unit", unit), H, "module_multiplicative",
                          (("i", n), ("j", n)), sides, unit and H.structure_passed)
    return rep


def trivial_module(H: QuasiHopfAlgebra) -> HModule:
    """The monoidal unit k, acting through the counit."""
    f = H.field
    return HModule(H, [Matrix(f, 1, 1, [H.counit[i]]) for i in range(H.dim)], name="k")


def regular_module(H) -> HModule:
    """H acting on itself by left multiplication, over a quasi-Hopf algebra
    or a Hopf algebroid."""
    return HModule(H, H.left_mults, name="regular")


def _require_one_parent(what: str, V: HModule, *others: HModule):
    """Raise unless the factors of the construction named what share the
    parent of V: its actions are built from that one parent's structure."""
    if any(X.parent is not V.parent for X in others):
        raise StructureError("%s factors must share a parent" % what)


# -- build-scoped sharing -----------------------------------------------------
#
# One cocyclic build asks for the same tensor products, base relations,
# associativity maps, hom modules and tensor-power chain maps many times.
# Inside a build scope (``build_scope``) each primitive marked ``shared``
# runs once per distinct argument tuple and hands its kept result to every
# later call; outside a scope it runs on every call.  A failing call raises
# and keeps nothing.  Arguments are keys: modules compare by parent and
# action matrices, parents and tensor-power chains by identity, integers
# by value.
# Each primitive is a deterministic function of what its arguments compare
# by, so sharing changes no result.

_build_memo: ContextVar = ContextVar("qha_build_memo", default=None)


@contextmanager
def build_scope():
    """Share the primitives marked ``shared`` until the block exits, by
    return or by raise; inside an open scope this reuses that scope.  A
    ``qha`` command is one scope (``cli.main``), and so is a cocyclic build
    or a biclosed map run on its own."""
    if _build_memo.get() is not None:
        yield
        return
    token = _build_memo.set({})
    try:
        yield
    finally:
        _build_memo.reset(token)


def shared(fn):
    """fn, run once per distinct argument tuple inside a build scope.  Its
    arguments are modules (equal ones counting as one), parents and
    tensor-power chains (by identity) or integers."""
    @wraps(fn)
    def once_per_scope(*args):
        memo = _build_memo.get()
        if memo is None:
            return fn(*args)
        key = (fn, *args)
        out = memo.get(key)
        if out is None:
            out = memo[key] = fn(*args)
        return out
    return once_per_scope


@shared
def tensor_module(V: HModule, W: HModule) -> HModule:
    """V (x) W, a.(v (x) w) = a^1 v (x) a^2 w for the parent's ``tensor_legs``,
    on the quotient by its ``tensor_relations`` if the action preserves them;
    an ambient over QHA_MAX_DIM is refused before anything is built."""
    _require_one_parent("tensor", V, W)
    H = V.parent
    d = V.dim * W.dim
    if d > max_tensor_dim():
        raise StructureError("tensor dimension %d exceeds QHA_MAX_DIM" % d)
    rel = H.tensor_relations(V, W)
    mats = [kron_sum(H.field, d, d, [(c, [V.mats[p], W.mats[q]])
                                     for c, p, q in H.tensor_legs(i)])
            for i in range(H.dim)]
    if rel.dim:
        for i, a in enumerate(mats):
            if rel.coordinate_matrix(a * rel.basis_matrix()) is None:
                raise StructureError(
                    "tensor action ill-defined: basis element %d maps a relation "
                    "outside the relation space" % i)
        mats = [rel.projector * a * rel.lift for a in mats]
    return HModule(H, mats, name="(%s)x(%s)" % (V.name, W.name), made_from=(V, W))


def _triple_action(V: HModule, W: HModule, U: HModule, element: Matrix) -> Matrix:
    """The action on V (x) W (x) U of a one-row element of H^(x)3."""
    _require_one_parent("associator", V, W, U)
    H = V.parent
    d = V.dim * W.dim * U.dim
    return kron_sum(H.field, d, d, [(c, [V.mats[x], W.mats[y], U.mats[z]])
                                    for (x, y, z), c in element_legs(element, H.dim, 3).items()])


@shared
def associator(V: HModule, W: HModule, U: HModule) -> Matrix:
    """The action of Phi on V (x) W (x) U, an isomorphism (VW)U -> V(WU)."""
    return _triple_action(V, W, U, V.parent.phi)


@shared
def associator_inverse(V: HModule, W: HModule, U: HModule) -> Matrix:
    """The action of the stored Phi^-1 on V (x) W (x) U: V(WU) -> (VW)U."""
    return _triple_action(V, W, U, V.parent.phi_inv)


def _through_ambient(action: Matrix, U: HModule, V: HModule, W: HModule,
                     inverse: bool) -> Matrix:
    """action, on the ambient U (x) V (x) W, read from the carrier of
    (U (x) V) (x) W to that of U (x) (V (x) W), or back when inverse: entered
    through the lifts of one bracketing's base relations and left through
    the projectors of the other's.  With no base relations (over a
    quasi-Hopf algebra) it is action itself, with no product."""
    H, f = U.parent, U.parent.field
    uv, vw = H.tensor_relations(U, V), H.tensor_relations(V, W)
    left, right = H.tensor_relations(U, V, W), H.tensor_relations(U, tensor_module(V, W))
    if not (uv.dim or vw.dim or left.dim or right.dim):
        return action
    eye_u, eye_w = Matrix.identity(f, U.dim), Matrix.identity(f, W.dim)
    if inverse:
        return (left.projector * uv.projector.kron(eye_w) * action
                * eye_u.kron(vw.lift) * right.lift)
    return (right.projector * eye_u.kron(vw.projector) * action
            * uv.lift.kron(eye_w) * left.lift)


@shared
def associativity(U: HModule, V: HModule, W: HModule) -> Matrix:
    """(U (x) V) (x) W -> U (x) (V (x) W) on the quotient carriers, for both
    parents: the action of Phi read through the ambient (``_through_ambient``),
    so over a quasi-Hopf algebra the associator itself."""
    return _through_ambient(associator(U, V, W), U, V, W, False)


@shared
def associativity_inverse(U: HModule, V: HModule, W: HModule) -> Matrix:
    """U (x) (V (x) W) -> (U (x) V) (x) W on the quotient carriers: the action
    of Phi^-1 read through the ambient the other way."""
    return _through_ambient(associator_inverse(U, V, W), U, V, W, True)


# -- the biclosed layer, written once for both parents --------------------------
#
# The carrier of Hom_k(V, M) is k^(dM*dV) in the matrix-unit basis E_ab
# (e_b |-> m_a), flattened row-major: index a*dV + b.  The parent's four
# data (see the module docstring) are ``hom_legs(i)``, the Sweedler terms
# (coef, h1, h2) of the hom action; ``hom_carrier(V, M)``, a Subspace of
# Hom_k(V, M) (all of it over a quasi-Hopf algebra); ``zeta_decoration``,
# the map from M (x) N to the domain of the maps that zeta^l curries; and
# ``hom_evaluation(V, M)``, the map from the carrier of Hom^l(V, M) to
# Hom_k(V, M) that eta^l uncurries through.  Base relations and carriers
# are always a Subspace, the last two always a Matrix, and zeta^l and
# eta^l apply them as they are.  An H-module is an H^cop-module
# on the same matrices (its cached view ``V.cop``), and V (x) W over H^cop
# is W (x) V over H with the factors swapped, so each right-hand map is the
# left-hand one over H^cop re-read on the swapped tensor domain
# (``_swap_domain``).

def _swap_domain(S: Matrix, src: Subspace, dst: Subspace, d1: int, d2: int) -> Matrix:
    """The stack S of maps on the quotient of V1 (x) V2 (dims d1, d2) by the
    relations src, re-read on the quotient of V2 (x) V1 by dst."""
    return stack_rmul(swap_slots(stack_rmul(S, src.projector), d1, d2), dst.lift)


def _restricted(op: Matrix, src: Subspace, dst: Subspace):
    """op read from the carrier src to the carrier dst, in their canonical
    coordinates, or None when its image leaves dst.  op times the basis is
    a stack product on op's rows, so between full carriers this is op
    itself, with no product, no solve and no scan of op for an identity."""
    return dst.coordinate_matrix(stack_rmul(op, src.basis_matrix()))


def _linearity_indices(V: HModule, W: HModule):
    """The basis indices whose actions decide H-linearity from V to W: the
    parent's generators when both are genuine modules (a map commuting
    with the actions of a and b commutes with those of ab, a + b and 1),
    every index otherwise."""
    if V.genuine and W.genuine:
        return V.parent.generators
    return range(V.parent.dim)


def is_intertwiner(S: Matrix, src: HModule, dst: HModule) -> bool:
    """F rho_src(e_i) = rho_dst(e_i) F, two slot products, for every map F of
    the stack S (a single map is the one-row stack ``stack_of_maps``) and,
    between genuine modules, the parent's generators e_i only
    (``_linearity_indices``)."""
    if S.cols != dst.dim * src.dim:
        raise ShapeError("rows of length %d hold no maps %d -> %d" % (S.cols, src.dim, dst.dim))
    return all(stack_rmul(S, src.mats[i]) == stack_lmul(dst.mats[i], S)
               for i in _linearity_indices(src, dst))


def require_intertwiner(S: Matrix, src: HModule, dst: HModule, what: str):
    """Raise unless every map of the stack S is H-linear (is_intertwiner)."""
    if not is_intertwiner(S, src, dst):
        raise IntertwinerError("%s is not an H-module morphism" % what)


@shared
def hom_module_morphisms(V: HModule, W: HModule) -> Subspace:
    """Canonical basis of Hom_H(V, W), vectorised row-major.  Between
    genuine modules the commutation constraints are those of the parent's
    generators only (``_linearity_indices``): the same subspace, so the same
    canonical basis, from fewer equations."""
    _require_one_parent("hom", V, W)
    pairs = [(V.mats[i], W.mats[i]) for i in _linearity_indices(V, W)]
    return intertwiner_space(V.parent.field, pairs, W.dim, V.dim)


@shared
def left_hom(V: HModule, M: HModule):
    """Hom^l(V, M) and its carrier: the action h.phi = h^1 phi(S(h^2) -) on
    Hom_k(V, M), for the parent's hom legs h^1 (x) h^2, read in the
    coordinates of the parent's carrier, a Subspace of Hom_k(V, M)."""
    _require_one_parent("hom", V, M)
    H = V.parent
    carrier = H.hom_carrier(V, M)
    d = M.dim * V.dim
    pre = [a.transpose() for a in V.acts(H.antipode)]
    mats = []
    for i in range(H.dim):
        full = kron_sum(H.field, d, d, [(c, [M.mats[p], pre[q]]) for c, p, q in H.hom_legs(i)])
        mat = _restricted(full, carrier, carrier)
        if mat is None:
            raise StructureError("hom action does not preserve the base-linear carrier")
        mats.append(mat)
    return HModule(H, mats, name="Hom^l(%s,%s)" % (V.name, M.name),
                   made_from=(V, M)), carrier


def right_hom(V: HModule, M: HModule):
    """Hom^r(V, M) and its carrier: h.phi = h^2 phi(S^-1(h^1) -), which is
    Hom^l(V, M) over the co-opposite parent, on the same action matrices
    and carrier."""
    mod, carrier = left_hom(V.cop, M.cop)
    return HModule(V.parent, mod.mats, name="Hom^r(%s,%s)" % (V.name, M.name),
                   made_from=(V, M)), carrier


def right_hom_carrier(V: HModule, M: HModule):
    """The carrier of Hom^r(V, M), without its module."""
    return V.cop.parent.hom_carrier(V.cop, M.cop)


def hom_carriers(V: HModule, M: HModule):
    """The carriers of Hom^l(V, M) and Hom^r(V, M), without their modules."""
    return V.parent.hom_carrier(V, M), right_hom_carrier(V, M)


def eval_left(V: HModule, M: HModule) -> Matrix:
    """ev^l: Hom^l(V,M) (x) V -> M, phi (x) m |-> X( phi(S(Y) alpha Z m) ),
    the evaluation of a quasi-Hopf parent: the action of (id (x) alpha-hat)(Phi)."""
    _require_one_parent("evaluation", V, M)
    H, n = V.parent, V.parent.dim
    rows = V.action.row_blocks(1)
    # column (a*dV + b)*dV + v: X e_a scaled by the (b, v) entry of S(Y) alpha Z
    terms = element_legs(slot_apply(H.alpha_hat, H.phi, n, 1), n, 2)
    return kron_sum(H.field, M.dim, M.dim * V.dim * V.dim,
                    [(c, [M.mats[x], rows[w]]) for (x, w), c in terms.items()])


def eval_right(V: HModule, M: HModule) -> Matrix:
    """ev^r: V (x) Hom^r(V,M) -> M, m (x) phi |-> R( phi(S^-1(Q) S^-1(alpha) P m) ).

    This is ev^l over H^cop, read on the swapped tensor domain."""
    return swap_factors(eval_left(V.cop, M.cop), M.dim * V.dim, V.dim)


# zeta_l, eta_l, zeta_r and eta_r take a stack of maps (see linalg) and
# return the stack of their images: all maps of a family go through each
# step at once, and the modules behind them are built once.  A single map
# F: X -> Y is the one-row stack ``stack_of_maps(F, dim Y)``.

def zeta_l(S: Matrix, M: HModule, N: HModule, L: HModule) -> Matrix:
    """zeta^l: Hom_H(M (x) N, L) -> Hom_H(M, Hom^l(N, L)), f |-> curry(f . K),
    read in the coordinates of the carrier of Hom^l(N, L).

    K is the parent's ``zeta_decoration``: the action of P (x) Q beta S(R)
    over a quasi-Hopf algebra, so f |-> (m |-> f(P m (x) Q beta S(R) -)),
    and the quotient projector onto M (x)_R N over an algebroid, so plain
    currying f |-> (m |-> f(m (x) -)).  The input and output checks cover
    every map.  It runs in a build scope, so each relation space and hom
    module it reads is built once.
    """
    H = M.parent
    with build_scope():
        require_intertwiner(S, tensor_module(M, N), L, "zeta_l input")
        hom, carrier = left_hom(N, L)
        # each curried map sends M into the full carrier Hom_k(N, L)
        out = carrier.stack_coordinates(
            swap_slots(stack_rmul(S, H.zeta_decoration(M, N)), M.dim, N.dim), M.dim)
        if out is None:
            raise IntertwinerError("zeta_l image is not base-linear")
        require_intertwiner(out, M, hom, "zeta_l output")
        return out


def eta_l(S: Matrix, M: HModule, N: HModule, L: HModule) -> Matrix:
    """eta^l(g) = ev^l o (g (x) id): Hom_H(M, Hom^l(N, L)) -> Hom_H(M (x) N, L),
    g |-> uncurry(ev . g) . lift.

    ev is the parent's ``hom_evaluation``, from the carrier of Hom^l(N, L)
    to Hom_k(N, L): phi |-> (n |-> X phi(S(Y) alpha Z n)) over a quasi-Hopf
    algebra, the carrier's embedding over an algebroid.  lift is the
    section of the quotient M (x) N, on whose relation classes the result
    must be constant.  It runs in a build scope, as zeta_l does."""
    H = M.parent
    with build_scope():
        require_intertwiner(S, M, left_hom(N, L)[0], "eta_l input")
        amb = swap_slots(stack_lmul(H.hom_evaluation(N, L), S), N.dim, M.dim)
        tens, rel = tensor_module(M, N), H.tensor_relations(M, N)
        out = stack_rmul(amb, rel.lift)
        if stack_rmul(out, rel.projector) != amb:
            raise StructureError("eta_l image not constant on relation classes")
        require_intertwiner(out, tens, L, "eta_l output")
        return out


def zeta_r(S: Matrix, N: HModule, M: HModule, L: HModule) -> Matrix:
    """zeta^r: Hom_H(N (x) M, L) -> Hom_H(M, Hom^r(N, L)), which is zeta^l
    over the co-opposite parent applied to f read on M (x) N: over a
    quasi-Hopf algebra f |-> (m |-> f(Y S^-1(beta) S^-1(X) - (x) Z m)),
    over an algebroid f |-> (m |-> f(- (x) m)).  The swap and zeta_l run
    in one build scope, so each relation space is built once."""
    with build_scope():
        f_cop = _swap_domain(S, N.parent.tensor_relations(N, M),
                             M.cop.parent.tensor_relations(M.cop, N.cop), N.dim, M.dim)
        return zeta_l(f_cop, M.cop, N.cop, L.cop)


def eta_r(S: Matrix, N: HModule, M: HModule, L: HModule) -> Matrix:
    """eta^r(g) = ev^r o (id (x) g): Hom_H(M, Hom^r(N, L)) -> Hom_H(N (x) M, L),
    which is eta^l over the co-opposite parent read on the swapped tensor
    domain, in one build scope as zeta_r."""
    with build_scope():
        return _swap_domain(eta_l(S, M.cop, N.cop, L.cop),
                            M.cop.parent.tensor_relations(M.cop, N.cop),
                            N.parent.tensor_relations(N, M), M.dim, N.dim)


# -- hom associativity on full carriers ----------------------------------------

def _phi_decorated(H, V: HModule, W: HModule, M: HModule, legs) -> Matrix:
    """Sum over Phi of rho_M(l_1) (x) rho_V(S(l_2))^T (x) rho_W(S(l_3))^T, with
    l_1, l_2, l_3 the legs of Phi at the positions in ``legs``."""
    d = M.dim * V.dim * W.dim
    sv, sw = ([a.transpose() for a in X.acts(H.antipode)] for X in (V, W))
    m, v, w = legs
    return kron_sum(H.field, d, d, [(c, [M.mats[t[m]], sv[t[v]], sw[t[w]]])
                                    for t, c in element_legs(H.phi, H.dim, 3).items()])


@shared
def hom_associativity(V: HModule, W: HModule, M: HModule):
    """The three maps of the weak-center hexagon between the full carriers of
    the k-linear homs, for both parents, with Phi = X (x) Y (x) Z:
      V <| (W <| M) -> (V (x) W) <| M: f |-> (v (x) w |-> X f_{S(Z) v}(S(Y) w)),
      V <| (M |> W) -> (V <| M) |> W: f |-> (w |-> (v |-> Y f_{S(Z) v}(S(X) w))),
      M |> (V (x) W) -> (M |> V) |> W: f |-> (w |-> (v |-> Z f(S(Y) v (x) S(X) w))).
    The domains of the first two are read in (m, w, v) order, every other
    carrier in (m, v, w) order.  A hom out of V (x) W, on its quotient
    carrier, is read on the ambient V (x) W through I_M (x) lift^T and
    I_M (x) projector^T; over a Hopf algebroid, with Phi = 1 (x) 1 (x) 1,
    these are the strict currying maps."""
    H, f = M.parent, M.parent.field
    rel = H.tensor_relations(V, W)
    eye_m = Matrix.identity(f, M.dim)
    perm = perm_mwv_to_mvw(f, M.dim, W.dim, V.dim)
    return (eye_m.kron(rel.lift.transpose()) * _phi_decorated(H, V, W, M, (0, 2, 1)) * perm,
            _phi_decorated(H, V, W, M, (1, 2, 0)) * perm,
            _phi_decorated(H, V, W, M, (2, 1, 0)) * eye_m.kron(rel.projector.transpose()))


def perm_mwv_to_mvw(f: Field, d: int, dw: int, dv: int) -> Matrix:
    """Permutation from (m, w, v)-ordered carriers to (m, v, w)-ordered ones."""
    return Matrix.identity(f, d).kron(swap_factors(Matrix.identity(f, dw * dv), dv, dw))


# -- axiom checks --------------------------------------------------------------
#
# Each axiom is two matrices, one per side, whose columns are its instances
# (CheckReport.compare); elements of H^(x)k are rows, so the sides are built
# as rows and compared transposed.

def compare_on_generators(rep: CheckReport, H, check_id: str, ranges, sides, premise: bool,
                          holds: bool = True):
    """Add check_id to rep from sides(E), the two sides of its instances at
    the basis elements that the columns of E pick.  When premise and holds,
    E first picks the generators G (``generating_set``), whose instances
    decide all the others under the premise: the elements whose instances
    pass form a subspace that holds 1 and is closed under products, and
    G generates H.  Otherwise, or when they differ, E is the identity and
    the check is compare on every instance, so every verdict and witness
    is that of the full comparison."""
    f, n = H.field, H.dim
    if premise and holds:
        lhs, rhs = sides(Matrix.from_cols(f, [H.basis(g) for g in H.generating_set], n))
        if lhs == rhs:
            return rep.add(check_id, True)
    return rep.compare(check_id, ranges, *sides(Matrix.identity(f, n)), holds)


def validate_structure(H: QuasiHopfAlgebra) -> CheckReport:
    """Type invariants: associative unital algebra, Delta/eps algebra maps,
    Phi invertible, S anti-automorphism with the stored inverse.

    Once the algebra checks have passed, a map F (Delta, eps, or S with its
    products reversed) that sends 1 to 1 is multiplicative when
    F(a e_j) = F(a) F(e_j) for every a and every j in G: the b with
    F(ab) = F(a) F(b) for all a form a subspace that holds 1 and is closed
    under products, since F(a(bc)) = F((ab)c) = F(a) F(b) F(c) = F(a) F(bc)."""
    f, n = H.field, H.dim
    rep = CheckReport()
    H.check_algebra(rep, "mult", unit_witness=True)
    algebra = rep.passed
    deltas, eps = H.comult, Matrix(f, 1, n, H.counit)
    # column (i, j) for the picked j: Delta(e_i e_j) against Delta(e_i) Delta(e_j),
    # each Delta(e_j) multiplying every Delta(e_i) from the right
    compare_on_generators(rep, H, "comult_algebra_map", (("i", n), ("j", n)), lambda E: (
        H.comult_matrix * H.products(E, right=True), swap_slots(vstack(f, n * n, [
            tensor_times(H, 2, d, deltas, right=True)
            for d in (E.transpose() * deltas).row_blocks(1)]).transpose(), E.cols, n)),
        algebra, _unit_row(H, 1) * deltas == _unit_row(H, 2))
    compare_on_generators(rep, H, "counit_algebra_map", (("i", n), ("j", n)), lambda E: (
        eps * H.products(E, right=True), eps.kron(eps * E)), algebra, f.is_one(H.eps(H.unit)))
    one = _unit_row(H, 3)
    rep.add("phi_invertible", tensor_times(H, 3, H.phi, H.phi_inv) == one
            and tensor_times(H, 3, H.phi_inv, H.phi) == one)
    check_antipode_pair(rep, H, algebra)
    H.structure_passed = rep.passed
    return rep


def check_antipode_pair(rep: CheckReport, H, premise: bool = False):
    """Add antipode_inverse_pair and antipode_antihom, with witness (i, j), to
    rep: S and the stored S^-1 are inverse, S(e_i e_j) = S(e_j) S(e_i) and
    S(1) = 1, the last two read on the generators once premise, that the
    algebra checks have passed, holds (see validate_structure)."""
    n = H.dim
    S, m, eye = H.antipode, H.mult_matrix, Matrix.identity(H.field, n)
    rep.add("antipode_inverse_pair",
            S * H.antipode_inv == eye and H.antipode_inv * S == eye)
    # column (j, i) of m (S E (x) S) is S(e_j) S(e_i), for the picked j
    compare_on_generators(rep, H, "antipode_antihom", (("i", n), ("j", n)), lambda E: (
        S * H.products(E, right=True), swap_factors(m * (S * E).kron(S), E.cols, n)),
        premise, S.apply(H.unit) == H.unit)


def check_quasi_bialgebra(H: QuasiHopfAlgebra) -> CheckReport:
    """The quasi-bialgebra axioms: Phi-twisted coassociativity, the pentagon,
    counitality, and the Phi counit normalisation.

    Once ``structure_passed`` holds, twisted coassociativity and
    counitality are read on the generators, since Delta and eps are
    algebra maps and Phi is invertible."""
    f, n = H.field, H.dim
    rep = CheckReport()
    D, phi, phi_inv = H.comult_matrix, H.phi, H.phi_inv
    deltas, eps, one = H.comult, Matrix(f, 1, n, H.counit), _unit_row(H, 1)

    # (id (x) Delta) Delta = Phi ((Delta (x) id) Delta) Phi^-1 on the picked rows of deltas
    def coassoc(E):
        X = E.transpose() * deltas
        return [side.transpose() for side in (slot_apply(D, X, n, 1), tensor_times(
            H, 3, phi_inv, tensor_times(H, 3, phi, slot_apply(D, X, 1, n)), right=True))]

    compare_on_generators(rep, H, "coassoc_twisted", (("a", n),), coassoc, H.structure_passed)
    # (id (x) id (x) Delta)(Phi) (Delta (x) id (x) id)(Phi)
    #   = (1 (x) Phi) (id (x) Delta (x) id)(Phi) (Phi (x) 1)
    rep.compare("pentagon", (("tuple", (n,) * 4),),
                tensor_times(H, 4, slot_apply(D, phi, n * n, 1), slot_apply(D, phi, 1, n * n)),
                tensor_times(H, 4, phi.kron(one), tensor_times(
                    H, 4, one.kron(phi), slot_apply(D, phi, n, n)), right=True))
    def counit(E):
        X = E.transpose() * deltas
        return vstack(f, E.cols, [slot_apply(eps, X, 1, n).transpose(),
                                  slot_apply(eps, X, n, 1).transpose()]), vstack(f, E.cols, [E, E])

    compare_on_generators(rep, H, "counit", (("a", n),), counit, H.structure_passed)
    rep.add("phi_counit", slot_apply(eps, phi, n, n) == one.kron(one))
    return rep


def eps_p_q_beta_s_r(H: QuasiHopfAlgebra) -> bool:
    """The identity eps(P) Q beta S(R) = beta, for Phi^-1 = P (x) Q (x) R."""
    n = H.dim
    eps_p = slot_apply(Matrix(H.field, 1, n, H.counit), H.phi_inv, 1, n * n)
    return slot_apply(H.beta_hat, eps_p, 1, 1) == Matrix(H.field, 1, n, H.beta)


def check_quasi_hopf(H: QuasiHopfAlgebra) -> CheckReport:
    """The antipode axioms and the derived identities used downstream.

    Once ``structure_passed`` holds, the alpha and beta axioms and
    eps(S(h)) = eps(h) are read on the generators, since Delta and eps are
    algebra maps and S an anti-homomorphism: S(a_1 b_1) alpha a_2 b_2 =
    S(b_1) eps(a) alpha b_2."""
    f, n = H.field, H.dim
    rep = CheckReport()
    m, D, eps = H.mult_matrix, H.comult_matrix, Matrix(f, 1, n, H.counit)
    r_alpha = H.mults_of(Matrix.from_cols(f, [H.alpha]), right=True)[0]

    # S(h_1) alpha h_2 = eps(h) alpha and h_1 beta S(h_2) = eps(h) beta
    compare_on_generators(rep, H, "alpha_axiom", (("h", n),), lambda E: (
        H.alpha_hat * (D * E), Matrix(f, n, 1, H.alpha) * (eps * E)), H.structure_passed)
    compare_on_generators(rep, H, "beta_axiom", (("h", n),), lambda E: (
        H.beta_hat * (D * E), Matrix(f, n, 1, H.beta) * (eps * E)), H.structure_passed)

    # (((X beta) S(Y)) alpha) Z = 1 and (S(P) alpha Q) beta S(R) = 1,
    # contracting the first two legs, then the last
    unit = _unit_row(H, 1)
    rep.add("ev_coev", slot_apply(m, slot_apply(r_alpha * H.beta_hat, H.phi, 1, n), 1, 1)
            == unit)
    rep.add("coev_ev", slot_apply(H.beta_hat, slot_apply(H.alpha_hat, H.phi_inv, 1, n),
                                  1, 1) == unit)
    compare_on_generators(rep, H, "eps_antipode", (("h", n),), lambda E: (
        eps * (H.antipode * E), eps * E), H.structure_passed)
    rep.add("eps_p_q_beta_s_r", eps_p_q_beta_s_r(H))
    return rep


# -- builders -----------------------------------------------------------------

class GroupTableError(ValueError):
    """The given multiplication table is not a group."""


def _validate_group(table) -> tuple:
    if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in table):
        raise GroupTableError("table must be a list of rows of integers")
    n = len(table)
    table = [list(row) for row in table]
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise GroupTableError("table is not square over range(%d)" % n)
    identity = None
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise GroupTableError("table is not associative at (%d,%d,%d)" % (i, j, k))
    inv = [None] * n
    for g in range(n):
        for h in range(n):
            if table[g][h] == identity and table[h][g] == identity:
                inv[g] = h
                break
        if inv[g] is None:
            raise GroupTableError("element %d has no inverse" % g)
    return table, identity, inv


def group_algebra(field: Field, table, name: str = "kG") -> QuasiHopfAlgebra:
    """The group algebra kG as a (quasi-)Hopf algebra with trivial Phi."""
    table, e, inv = _validate_group(table)
    n = len(table)
    # row i*n + j of m is e_(ij), and row i of Delta is e_i (x) e_i
    mult = Matrix._sparse(field, n * n, n, [{k: field.one} for row in table for k in row])
    comult = Matrix.identity(field, n).reindexed(n, n * n, lambda r, _: (r, r * n + r))
    unit = basis_vec(field, n, e)
    s = Matrix.from_cols(field, [basis_vec(field, n, inv[i]) for i in range(n)])
    one = Matrix.from_rows(field, [unit])
    phi = one.kron(one).kron(one)
    return QuasiHopfAlgebra(field, n, mult, unit, comult, (field.one,) * n, s, s,
                            phi, phi, unit, unit, name=name)


def cyclic_group_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n: int):
    """Multiplication table of S_n with permutations in lexicographic order."""
    from itertools import permutations
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))   # p after q
            row.append(index[comp])
        table.append(row)
    return table


def sweedler_h4(field: Field) -> QuasiHopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra.

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g(x)g,
    Delta(x) = x(x)1 + g(x)x.  Over a field of characteristic != 2 the
    antipode has order four (S^2 != id).
    """
    z, o = field.zero, field.one
    n = 4
    # basis order 1, g, x, gx: monomial g^a x^b sits at index a + 2b
    def idx(a, b):
        return a + 2 * b

    mult = [z] * n ** 3
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    if b1 + b2 >= 2:
                        continue
                    sign = o if (b1 * a2) % 2 == 0 else field.neg(o)
                    mult[(idx(a1, b1) * n + idx(a2, b2)) * n
                         + idx((a1 + a2) % 2, b1 + b2)] = sign
    unit = basis_vec(field, n, 0)
    comult = [None] * n
    for a in range(2):
        for b in range(2):
            row = [z] * (n * n)
            if b == 0:
                row[idx(a, 0) * n + idx(a, 0)] = o            # g^a (x) g^a
            else:
                # Delta(g^a x) = Delta(g)^a Delta(x)
                row[idx(a, 1) * n + idx(a, 0)] = o            # g^a x (x) g^a
                row[idx((a + 1) % 2, 0) * n + idx(a, 1)] = o  # g^(a+1) (x) g^a x
            comult[idx(a, b)] = row
    counit = (o, o, z, z)
    # S: 1->1, g->g, x->-gx, gx->x
    s_cols = [basis_vec(field, n, 0), basis_vec(field, n, 1),
              vec_scale(field, field.neg(o), basis_vec(field, n, 3)),
              basis_vec(field, n, 2)]
    s = Matrix.from_cols(field, s_cols)
    s_inv = s.inverse()
    phi = Matrix(field, 1, n ** 3, basis_vec(field, n ** 3, 0))
    return QuasiHopfAlgebra(field, n, Matrix(field, n * n, n, mult), unit,
                            Matrix.from_rows(field, comult), counit, s, s_inv,
                            phi, phi, unit, unit, name="H4")


def twisted_dual_group_algebra(field: Field, table, omega,
                               name: str = "k^G_w") -> QuasiHopfAlgebra:
    """Functions on a finite group, with associator twisted by a 3-cochain.

    omega[x][y][z] must be a nonzero scalar for all group elements; the
    pentagon check passes exactly when omega is a 3-cocycle.  The structure
    is Phi = sum w(x,y,z) d_x (x) d_y (x) d_z, S(d_x) = d_{x^-1}, alpha = 1,
    beta = sum w(x, x^-1, x)^-1 d_x.

    The antipode of functions on a group is forced to be the inversion
    permutation.  With alpha = 1 and this beta both evaluation
    normalisations hold for every normalised 3-cocycle, because the
    cocycle identity gives w(x, x^-1, x) w(x^-1, x, x^-1) = 1.
    """
    table, e, inv = _validate_group(table)
    n = len(table)
    z, o = field.zero, field.one

    def w(x, y, zz):
        val = omega[x][y][zz]
        if val == 0:
            raise StructureError("omega must be nowhere zero")
        return val

    # the idempotents d_i: row i*n + i of m is d_i, every other row is zero
    mult = Matrix.identity(field, n).reindexed(n * n, n, lambda r, c: (r * n + r, c))
    unit = tuple([o] * n)
    comult = Matrix.from_rows(field, [[o if table[u][v] == g else z for u in range(n)
                                       for v in range(n)] for g in range(n)])
    counit = tuple(o if g == e else z for g in range(n))
    s = Matrix.from_cols(field, [basis_vec(field, n, inv[i]) for i in range(n)])
    phi = [w(x, y, zz) for x in range(n) for y in range(n) for zz in range(n)]
    phi_inv = Matrix(field, 1, n ** 3, [field.inv(c) for c in phi])
    phi = Matrix(field, 1, n ** 3, phi)
    alpha = unit
    beta = tuple(field.inv(w(x, inv[x], x)) for x in range(n))
    return QuasiHopfAlgebra(field, n, mult, unit, comult, counit, s, s,
                            phi, phi_inv, alpha, beta, name=name)


def z2_nontrivial_cocycle(field: Field):
    """The nontrivial normalised 3-cocycle on Z/2: w(a,a,a) = -1, else 1."""
    o = field.one
    m = field.neg(o)
    w = [[[o, o], [o, o]], [[o, o], [o, m]]]
    return w


def primitive_root_of_unity(field: Field, order: int):
    """A primitive root of unity of the given order (at least 1) in Q or
    GF(p), if one exists."""
    if order < 1:
        raise StructureError("a root of unity has order at least 1, got %d" % order)
    if field.kind == "Q" or order == 1:
        if order <= 2:
            return field.one if order == 1 else field.neg(field.one)
        raise StructureError("the rationals have no %d-th roots of unity" % order)
    if (field.p - 1) % order != 0:
        raise StructureError("GF(%d) has no primitive root of unity of order %d"
                             % (field.p, order))
    divisors = [d for d in range(1, order) if order % d == 0]
    for cand in range(2, field.p):
        if pow(cand, order, field.p) == 1 and \
                all(pow(cand, d, field.p) != 1 for d in divisors):
            return cand
    raise StructureError("no primitive root found")


def z3_nontrivial_cocycle(field: Field):
    """A normalised representative of a generator of the order-three part
    of H^3(Z/3, k^*).

    Needs a primitive cube root of unity in the field, so GF(p) with
    p = 1 mod 3."""
    zeta = field.from_int(primitive_root_of_unity(field, 3))
    o = field.one
    z2 = field.mul(zeta, zeta)
    w = [[[o] * 3 for _ in range(3)] for _ in range(3)]
    w[1][1][1] = zeta
    w[1][1][2] = z2
    w[2][2][1] = z2
    w[2][2][2] = zeta
    return w
