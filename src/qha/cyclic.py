"""Cocyclic modules from algebra objects and stable contramodule coefficients.

Given a unital associative algebra object A in the module category and a
stable aYD contramodule M, the spaces C^n = Hom_H(A^(x)(n+1), M) carry
cofaces (precomposition with adjacent multiplications), codegeneracies
(precomposition with unit insertions) and cyclic operators built from the
contratrace maps.  Tensor powers are bracketed left to right.

The construction is written once, against the monoidal primitives that
both parents provide: ``tensor`` (the module and its base relations, zero
over a quasi-Hopf algebra), ``tensor_relations``, ``associativity`` (the
action of Phi, or the strict requotient over a Hopf algebroid) and
``unit_object``.  A map f (x) g between tensor carriers passes through the
base relations as projector . (f (x) g) . lift.  The build verifies every
cosimplicial and cocyclic identity as an exact matrix identity and refuses
to return a structure that fails any of them.

A build runs in one build scope (``quasihopf.build_scope``): every tensor
product, relation space, associativity map, Hom^l module and intertwiner
space that its cofaces and its zeta/eta/iota calls ask for, and every
rebracketing, multiplication map and unit insertion of its tensor-power
chain, is built once per distinct input and dropped when the build
returns or raises.

Hochschild cohomology is computed from the coface alternating sum, cyclic
cohomology from the first-quadrant bicomplex with columns b, -b' and rows
1 - lambda, N (lambda = (-1)^n t_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

from .fields import Field
from .linalg import Matrix, Subspace, block_matrix, kron_sum, stack_of_maps, stack_rmul, vstack
from .reports import CheckReport
from .quasihopf import (QuasiHopfAlgebra, StructureError, build_scope,
                        hom_module_morphisms, is_intertwiner, shared)
from .coefficients import Contramodule
from .center import CenterElement, iota_apply


class CocyclicError(ValueError):
    """A cocyclic identity failed during construction.

    ``relation`` names it and ``indices`` holds its (name, value) pairs,
    which the message repeats."""

    def __init__(self, relation: str, **indices):
        self.relation = relation
        self.indices = tuple(indices.items())
        super().__init__("%s (%s)" % (relation,
                                      ", ".join("%s=%s" % kv for kv in self.indices)))


def _kron(f: Matrix, g: Matrix, src_rel: Subspace, dst_rel: Subspace) -> Matrix:
    """f (x) g between tensor carriers: projector . (f (x) g) . lift, for
    the relation spaces of its source and target.  A unit insertion, whose
    source k (x) V is V with no relations, is projector . (f (x) g) alone."""
    return dst_rel.projector * f.kron(g) * src_rel.lift


class ModuleAlgebra:
    """A unital associative algebra object in the module category.

    ``mult`` maps the carrier of the tensor square (the quotient carrier,
    for algebroids) to the carrier; ``unit`` is a matrix from the unit
    object's carrier (one column over a quasi-Hopf algebra, the base ring
    for algebroids).
    """

    def __init__(self, carrier, mult: Matrix, unit: Matrix):
        self.carrier = carrier
        self.mult = mult
        self.unit = unit
        H = carrier.parent
        self.is_algebroid = not isinstance(H, QuasiHopfAlgebra)
        sq = carrier.dim * carrier.dim - H.tensor_relations(carrier, carrier).dim
        unit_cols = H.unit_object().dim
        if mult.rows != carrier.dim or mult.cols != sq:
            raise StructureError("mult must be %dx%d" % (carrier.dim, sq))
        if unit.rows != carrier.dim or unit.cols != unit_cols:
            raise StructureError("unit must be %dx%d" % (carrier.dim, unit_cols))

    @property
    def parent(self):
        return self.carrier.parent

    @property
    def field(self):
        return self.carrier.parent.field

    @cached_property
    def axioms_passed(self) -> bool:
        """Whether check_algebra_object passes.  Decided at most once per
        object: each call of check_algebra_object records its verdict here."""
        return check_algebra_object(self).passed

    def unit_element(self):
        """The unit of A as a carrier vector (the image of 1 in the base)."""
        H = self.parent
        one = (H.field.one,) if not self.is_algebroid else H.base.unit
        return self.unit.apply(one)


def unit_algebra(H) -> ModuleAlgebra:
    """The monoidal unit as an algebra object (A = k, or A = R): its
    multiplication is the left unitor 1 (x) 1 -> 1, its unit the identity."""
    carrier = H.unit_object()
    return ModuleAlgebra(carrier, H.left_unitor(carrier),
                         Matrix.identity(H.field, carrier.dim))


def check_algebra_object(A: ModuleAlgebra) -> CheckReport:
    """Morphism property of mult/unit, associativity up to the associator,
    and two-sided unitality."""
    rep = CheckReport()
    H = A.parent
    f = A.field
    V = A.carrier
    sq, rel = H.tensor(V, V)
    rep.add("mult_is_morphism", is_intertwiner(stack_of_maps(A.mult, V.dim), sq, V))
    rep.add("unit_is_morphism", is_intertwiner(stack_of_maps(A.unit, V.dim), H.unit_object(), V))
    eye = Matrix.identity(f, V.dim)
    lhs = A.mult * _kron(A.mult, eye, H.tensor_relations(sq, V), rel)
    rhs = A.mult * _kron(eye, A.mult, H.tensor_relations(V, sq), rel) \
        * H.associativity(V, V, V)
    rep.add("associative_up_to_phi", lhs == rhs)
    ucol = Matrix.from_cols(f, [A.unit_element()], ambient=V.dim)
    rep.add("left_unital", (A.mult * (rel.projector * ucol.kron(eye))) == eye)
    rep.add("right_unital", (A.mult * (rel.projector * eye.kron(ucol))) == eye)
    A.axioms_passed = rep.passed
    return rep


# -- tensor powers with bracketing ------------------------------------------------

class TensorPowerChain:
    """Left-nested tensor powers L_k = L_(k-1) (x) A of A for 1 <= k <= depth;
    a depth below 1 is refused (the unit object is unit_algebra(H)).

    ``mods[k]`` is L_k and ``rels[k]`` the base relations of its last
    stage L_(k-1) (x) A, for k >= 2; the chain keeps nothing else.  Every
    map below is one recursion on k through these stages and is
    ``shared``: inside a build scope each rebracketing, multiplication map
    and unit insertion is built once per chain, outside one it is rebuilt
    on every call.
    Each stage is ``H.tensor``, which refuses an ambient L_(k-1) (x) A over
    QHA_MAX_DIM before it builds anything.
    """

    def __init__(self, A: ModuleAlgebra, depth: int):
        if depth < 1:
            raise ValueError("n must be >= 1; the unit object is unit_algebra(H)")
        self.A = A
        H = A.parent
        self.mods = [None, A.carrier]
        self.rels = [None, None]
        for _ in range(2, depth + 1):
            mod, rel = H.tensor(self.mods[-1], A.carrier)
            self.mods.append(mod)
            self.rels.append(rel)

    @shared
    def rebracket_front(self, k: int) -> Matrix:
        """The morphism A (x) L_k -> L_(k+1) identifying the two bracketings:
        A (x) L_k -> (A (x) L_(k-1)) (x) A -> L_k (x) A, recursively."""
        A = self.A
        H = A.parent
        f = A.field
        if k == 1:
            return Matrix.identity(f, self.mods[2].dim)
        factors = (A.carrier, self.mods[k - 1], A.carrier)
        step = H.associativity_inverse(*factors)
        # square, so one product decides that the two maps are inverse; a
        # failure is a failed identity of the input (a bad Phi^-1), not misuse
        if step.rows != step.cols or \
                H.associativity(*factors) * step != Matrix.identity(f, step.rows):
            raise CocyclicError("associativity maps of A, L_(k-1), A are not inverse", k=k)
        front = H.tensor_relations(*factors)
        eye = Matrix.identity(f, A.carrier.dim)
        return _kron(self.rebracket_front(k - 1), eye, front, self.rels[k + 1]) * step


@shared
def _mult_map(chain: TensorPowerChain, k: int, i: int) -> Matrix:
    """The morphism L_(k) -> L_(k-1) multiplying slots i, i+1 (0-based)."""
    A = chain.A
    H = A.parent
    f = A.field
    if k == 2:
        return A.mult
    if i < k - 2:
        eye = Matrix.identity(f, A.carrier.dim)
        return _kron(_mult_map(chain, k - 1, i), eye, chain.rels[k], chain.rels[k - 1])
    # rebracket the last pair together, then multiply
    front = chain.mods[k - 2]
    eye = Matrix.identity(f, front.dim)
    step = _kron(eye, A.mult, H.tensor_relations(front, chain.mods[2]), chain.rels[k - 1])
    return step * H.associativity(front, A.carrier, A.carrier)


@shared
def _unit_insertion(chain: TensorPowerChain, k: int, p: int) -> Matrix:
    """The morphism L_k -> L_(k+1) inserting the unit of A at slot p."""
    A = chain.A
    f = A.field
    ucol = Matrix.from_cols(f, [A.unit_element()], ambient=A.carrier.dim)
    if p == k:
        return chain.rels[k + 1].projector * Matrix.identity(f, chain.mods[k].dim).kron(ucol)
    eye = Matrix.identity(f, A.carrier.dim)
    if k == 1:
        return chain.rels[2].projector * ucol.kron(eye)
    return _kron(_unit_insertion(chain, k - 1, p), eye, chain.rels[k], chain.rels[k + 1])


# -- the cocyclic module ---------------------------------------------------------

@dataclass
class CohomologyResult:
    theory: str              # "hochschild" or "cyclic"
    field: Field
    dims: list


class CocyclicModule:
    """C^n = Hom_H(A^(x)(n+1), M) with all structure operators as matrices
    in the canonical intertwiner bases, identities verified at build time."""

    def __init__(self, n_max, spaces, cofaces, codegens, cyclics, field):
        self.n_max = n_max
        self.spaces = spaces          # list of Subspace, C^0 .. C^n_max
        self.cofaces = cofaces        # cofaces[n][i]: C^n -> C^(n+1)
        self.codegens = codegens      # codegens[n][j]: C^(n+1) -> C^n
        self.cyclics = cyclics        # cyclics[n]: C^n -> C^n
        self.field = field

    def dim(self, n: int) -> int:
        return self.spaces[n].dim

    def boundary(self, n: int) -> Matrix:
        """Hochschild coboundary b = sum (-1)^i delta_i : C^n -> C^(n+1)."""
        return self._alternating_sum(n, self.cofaces[n])

    def boundary_prime(self, n: int) -> Matrix:
        """b' = sum_{i <= n} (-1)^i delta_i (the last coface omitted)."""
        return self._alternating_sum(n, self.cofaces[n][:-1])

    def _alternating_sum(self, n: int, maps) -> Matrix:
        f = self.field
        signs = (f.one, f.neg(f.one))
        return kron_sum(f, self.dim(n + 1), self.dim(n),
                        [(signs[i % 2], [d]) for i, d in enumerate(maps)])

    def lam(self, n: int) -> Matrix:
        """lambda_n = (-1)^n t_n."""
        f = self.field
        t = self.cyclics[n]
        return t if n % 2 == 0 else t.scale(f.neg(f.one))

    def norm(self, n: int) -> Matrix:
        """N = sum_{i=0}^{n} lambda^i."""
        f = self.field
        lam = self.lam(n)
        powers = [Matrix.identity(f, self.dim(n))]
        for _ in range(n):
            powers.append(powers[-1] * lam)
        return kron_sum(f, self.dim(n), self.dim(n), [(f.one, [p]) for p in powers])


def build_cocyclic(A: ModuleAlgebra, M: Contramodule, n_max: int) -> CocyclicModule:
    """Materialise the cocyclic module up to degree n_max and verify every
    cosimplicial and cocyclic identity; raises CocyclicError naming the
    first failing relation otherwise.

    Every structure map of a degree is one linear map applied to the basis
    of its source space as one stack (row b = vec(F_b)): cofaces and
    codegeneracies are one stack product each, t_n one call of iota_apply.
    Each image is checked to lie in its target space.  The build runs in one build scope, so each
    tensor product, relation space, associativity map, hom module and
    chain map it asks for is built once."""
    with build_scope():
        return _build_cocyclic(A, M, n_max)


def _build_cocyclic(A: ModuleAlgebra, M: Contramodule, n_max: int) -> CocyclicModule:
    """The body of build_cocyclic, with every primitive run on every call.
    Each input's check runs here unless it has run on that object before,
    whose recorded verdict is read instead."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not A.axioms_passed:
        raise StructureError("the algebra object fails its axioms")
    if not M.stability_passed:
        raise StructureError("the coefficient contramodule is not stable")
    if A.parent is not M.parent:
        raise StructureError("algebra object and coefficient parents differ")

    E = CenterElement(M)
    f = A.field
    chain = TensorPowerChain(A, n_max + 1)
    coeff = M.carrier

    spaces = [hom_module_morphisms(chain.mods[n + 1], coeff)
              for n in range(n_max + 1)]

    def coords(space, stack, relation, **indices) -> Matrix:
        """The maps of a stack in the coordinates of space, one column each,
        or an error naming the first map that leaves it."""
        out = space.stack_coordinates(stack)
        if out is None:
            raise CocyclicError("%s left its intertwiner space" % relation,
                                **indices, basis=space.first_outside(stack))
        return out.transpose()

    def precompose(n_src, n_dst, carrier_map: Matrix, relation, **indices) -> Matrix:
        """F |-> F o carrier_map from C^n_src to C^n_dst, in intertwiner coordinates."""
        stack = stack_rmul(spaces[n_src].basis_stack(), carrier_map)
        return coords(spaces[n_dst], stack, relation, **indices)

    def t_op(n: int) -> Matrix:
        if n == 0:
            # the order-one cyclic operator is forced to be the identity
            return Matrix.identity(f, spaces[0].dim)
        stack = stack_rmul(spaces[n].basis_stack(), chain.rebracket_front(n))
        images = iota_apply(E, A.carrier, chain.mods[n], stack)
        return coords(spaces[n], images, "cyclic operator", n=n)

    cyclics = [t_op(n) for n in range(n_max + 1)]
    cofaces = []
    codegens = []
    for n in range(n_max):
        row = [precompose(n, n + 1, _mult_map(chain, n + 2, i), "coface", n=n, i=i)
               for i in range(n + 1)]
        # the wrap-around coface: t_(n+1) o delta_0
        row.append(cyclics[n + 1] * row[0])
        cofaces.append(row)
        codegens.append([precompose(n + 1, n, _unit_insertion(chain, n + 1, j + 1),
                                    "codegeneracy", n=n, j=j)
                         for j in range(n + 1)])

    cc = CocyclicModule(n_max, spaces, cofaces, codegens, cyclics, f)
    problem = verify_cocyclic_identities(cc)
    if problem is not None:
        raise problem
    return cc


def _stacked_products(lefts, right: Matrix):
    """The rows of X_a * right for each X_a of lefts, maps of one shape: one
    product of their stack, cut into row blocks."""
    if not lefts:
        return []
    r = lefts[0].rows
    rows = (vstack(right.field, right.rows, lefts) * right)._rows
    return [rows[a * r:(a + 1) * r] for a in range(len(lefts))]


def _cocyclic_identities(cc: CocyclicModule):
    """Every cosimplicial and cyclic identity of cc as (relation, indices,
    lhs rows, rhs rows), in the order they are verified: cofaces,
    codegeneracies, the mixed relations, t^(n+1) = id, then per degree the
    cyclic coface and codegeneracy relations.  The products that share a
    right factor Y (of a family, or of the right-hand sides of the cyclic
    relations) are made as one product of the stacked left factors with Y,
    one degree at a time."""
    d, s, t = cc.cofaces, cc.codegens, cc.cyclics
    for n in range(cc.n_max - 1):
        # by_right[k][a] = d[n+1][a] d[n][k]
        by_right = [_stacked_products(d[n + 1], y) for y in d[n]]
        for j in range(n + 3):
            for i in range(j):
                yield ("coface relation", dict(n=n, i=i, j=j),
                       by_right[i][j], by_right[j - 1][i])
    for n in range(cc.n_max - 1):
        # by_right[k][a] = s[n][a] s[n+1][k]
        by_right = [_stacked_products(s[n], y) for y in s[n + 1]]
        for j in range(n + 1):
            for i in range(j + 1):
                yield ("codegeneracy relation", dict(n=n, i=i, j=j),
                       by_right[j + 1][i], by_right[i][j])
    for n in range(cc.n_max):
        eye = Matrix.identity(cc.field, cc.dim(n))._rows
        lhs = [_stacked_products(s[n], y) for y in d[n]]
        # rhs[k][a] = d[n-1][a] s[n-1][k]
        rhs = [_stacked_products(d[n - 1], y) for y in s[n - 1]] if n else []
        for j in range(n + 1):
            for i in range(n + 2):
                if i in (j, j + 1):
                    yield "mixed identity relation", dict(n=n, i=i, j=j), lhs[i][j], eye
                else:
                    # i < j or i > j + 1, so n >= 1
                    yield "mixed relation", dict(n=n, i=i, j=j), lhs[i][j], (
                        rhs[j - 1][i] if i < j else rhs[j][i - 1])
    for n in range(cc.n_max + 1):
        power = t[n]
        for _ in range(n):
            power = power * t[n]
        yield ("t^(n+1) != id", dict(n=n), power._rows,
               Matrix.identity(cc.field, cc.dim(n))._rows)
    for n in range(cc.n_max):
        d_t = _stacked_products(d[n][:n + 1], t[n])
        s_t = _stacked_products(s[n][:n], t[n + 1])
        yield "cyclic coface wrap", dict(n=n), (t[n + 1] * d[n][0])._rows, d[n][n + 1]._rows
        for i in range(1, n + 2):
            yield ("cyclic coface relation", dict(n=n, i=i),
                   (t[n + 1] * d[n][i])._rows, d_t[i - 1])
        for i in range(1, n + 1):
            yield ("cyclic codegeneracy relation", dict(n=n, i=i),
                   (t[n] * s[n][i])._rows, s_t[i - 1])
        yield ("cyclic codegeneracy wrap", dict(n=n),
               (t[n] * s[n][0])._rows, (s[n][n] * (t[n + 1] * t[n + 1]))._rows)


def verify_cocyclic_identities(cc: CocyclicModule):
    """Return None when all identities hold, else a CocyclicError (not
    raised) naming the first failing relation and its indices; its message
    describes the relation.  Each identity is one comparison of the row
    tuples of its two sides, walked in the order of _cocyclic_identities."""
    for relation, indices, lhs, rhs in _cocyclic_identities(cc):
        if lhs != rhs:
            return CocyclicError(relation, **indices)
    return None


# -- cohomology -------------------------------------------------------------------

def _cohomology(theory: str, cc: CocyclicModule, dims, differentials) -> CohomologyResult:
    """Betti numbers dims[n] - rank d_n - rank d_(n-1) of the complex whose
    spaces have the dimensions dims and whose differentials d_n are given,
    each d_n dropped once its rank is read."""
    ranks = [d.rank() for d in differentials]
    return CohomologyResult(theory, cc.field, [dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
                                               for n in range(len(dims))])


def _check_truncation(cc: CocyclicModule, up_to: int):
    if up_to < 0:
        raise ValueError("up_to must be at least 0, got %d" % up_to)
    if up_to + 1 > cc.n_max:
        raise ValueError("truncation too short: need n_max >= %d" % (up_to + 1))


def hochschild_cohomology(cc: CocyclicModule, up_to: int) -> CohomologyResult:
    """Betti numbers of the b-complex in degrees 0..up_to; verifies b b = 0."""
    _check_truncation(cc, up_to)
    bs = [cc.boundary(n) for n in range(up_to + 1)]
    for n in range(up_to):
        if not (bs[n + 1] * bs[n]).is_zero():
            raise CocyclicError("b o b != 0", degree=n)
    return _cohomology("hochschild", cc, [cc.dim(n) for n in range(up_to + 1)], bs)


def cyclic_cohomology(cc: CocyclicModule, up_to: int) -> CohomologyResult:
    """Cyclic cohomology via the first-quadrant bicomplex, degrees 0..up_to.

    Columns carry b and -b', rows 1 - lambda and N; the first-quadrant
    support makes the n_max-truncation exact in the requested degrees.
    Each block is built once: column p at row q holds (b, 1 - lambda) of
    degree q for even p and (-b', N) for odd p."""
    _check_truncation(cc, up_to)
    f = cc.field

    @cache
    def blocks(q, odd):
        """The vertical and horizontal maps out of C^q in a column of the parity odd."""
        if odd:
            return cc.boundary_prime(q).scale(f.neg(f.one)), cc.norm(q)
        return cc.boundary(q), Matrix.identity(f, cc.dim(q)) - cc.lam(q)

    def total_matrix(n):
        col_off = list(accumulate((cc.dim(n - p) for p in range(n + 1)), initial=0))
        row_off = list(accumulate((cc.dim(n + 1 - p) for p in range(n + 2)), initial=0))
        placed = []
        for p in range(n + 1):
            vert, horiz = blocks(n - p, p % 2)
            placed += [(row_off[p], col_off[p], vert), (row_off[p + 1], col_off[p], horiz)]
        return block_matrix(f, row_off[-1], col_off[-1], placed)

    return _cohomology("cyclic", cc,
                       [sum(cc.dim(n - p) for p in range(n + 1)) for n in range(up_to + 1)],
                       (total_matrix(n) for n in range(up_to + 1)))
