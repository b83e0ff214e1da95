import random

import pytest

from qha.fields import rationals, prime_field
from qha.linalg import Matrix, slot_apply, stack_of_maps, vstack
from qha.quasihopf import (group_algebra, sweedler_h4, twisted_dual_group_algebra,
                           cyclic_group_table, symmetric_group_table,
                           z2_nontrivial_cocycle, z3_nontrivial_cocycle,
                           regular_module, trivial_module, hom_module_morphisms, HModule,
                           QuasiHopfAlgebra, tensor_times)
from qha.algebroid import BaseRing, base_ring_dual_numbers, enveloping_algebroid
from qha.coefficients import Contramodule, evaluation_at_unit, QUASI_I
from qha.cyclic import ModuleAlgebra

QQ = rationals()
F5 = prime_field(5)


@pytest.fixture(scope="session")
def kc2_q():
    return group_algebra(QQ, cyclic_group_table(2), "kC2")


@pytest.fixture(scope="session")
def kc2_f5():
    return group_algebra(F5, cyclic_group_table(2), "kC2")


@pytest.fixture(scope="session")
def ks3_q():
    return group_algebra(QQ, symmetric_group_table(3), "kS3")


@pytest.fixture(scope="session")
def h4_q():
    return sweedler_h4(QQ)


@pytest.fixture(scope="session")
def twisted_q():
    return twisted_dual_group_algebra(QQ, cyclic_group_table(2),
                                      z2_nontrivial_cocycle(QQ))


@pytest.fixture(scope="session")
def twisted_f5():
    return twisted_dual_group_algebra(F5, cyclic_group_table(2),
                                      z2_nontrivial_cocycle(F5))


@pytest.fixture(scope="session")
def twisted_z3_f7():
    """k^Z3_w over GF(7): its Phi changes when two of its legs are exchanged."""
    f = prime_field(7)
    return twisted_dual_group_algebra(f, cyclic_group_table(3), z3_nontrivial_cocycle(f))


def cohomologous_z3_cocycle(f, beta):
    """z3_nontrivial_cocycle times the coboundary of the normalised
    2-cochain beta on Z/3: w'(x, y, z) = w(x, y, z) beta(y, z)
    beta(x, y + z) / (beta(x + y, z) beta(x, y))."""
    w = z3_nontrivial_cocycle(f)
    b = [[f.from_int(v) for v in row] for row in beta]
    return [[[f.div(f.mul(f.mul(w[x][y][z], b[y][z]), b[x][(y + z) % 3]),
                    f.mul(b[(x + y) % 3][z], b[x][y]))
              for z in range(3)] for y in range(3)] for x in range(3)]


@pytest.fixture(scope="session")
def twisted_z3_skew_f7():
    """k^Z3_w' over GF(7) for a cocycle w' cohomologous to the one of
    twisted_z3_f7 but not symmetric in its first two arguments, so its Phi
    changes when its first two legs are exchanged."""
    f = prime_field(7)
    omega = cohomologous_z3_cocycle(f, [[1, 1, 1], [1, 2, 3], [1, 5, 4]])
    return twisted_dual_group_algebra(f, cyclic_group_table(3), omega, "k^Z3_w'")


def drinfeld_twist(H, F, F_inv, name):
    """H twisted by the counital invertible F in H (x) H (sparse tensors
    {(i, j): c}): Delta_F = F Delta F^-1, Phi_F = F_23 (id (x) Delta)(F) Phi
    (Delta (x) id)(F^-1) F_12^-1, alpha_F = S(F^-1,1) alpha F^-1,2 and
    beta_F = F^1 beta S(F^2); the algebra and S are those of H."""
    f, n = H.field, H.dim
    D = H.comult_matrix

    def row(t, k):
        """A sparse tensor of H^(x)k as one row."""
        out = [f.zero] * n ** k
        for key, c in t.items():
            out[sum(i * n ** (k - 1 - s) for s, i in enumerate(key))] = c
        return Matrix(f, 1, n ** k, out)

    def product(k, *rows):
        out = rows[0]
        for r in rows[1:]:
            out = tensor_times(H, k, out, r)
        return out

    def contract(t, left, right):
        out = [f.zero] * n
        for (a, b), c in t.items():
            out = [f.add(x, f.mul(c, y)) for x, y in zip(out, H.prod(left(a), right(b)))]
        return out

    one, Fr, Fi = Matrix(f, 1, n, H.unit), row(F, 2), row(F_inv, 2)
    comult = vstack(f, n * n, [product(2, Fr, d, Fi) for d in H.comult.row_blocks(1)])
    phi = product(3, one.kron(Fr), slot_apply(D, Fr, n, 1), H.phi,
                  slot_apply(D, Fi, 1, n), Fi.kron(one))
    phi_inv = product(3, Fr.kron(one), slot_apply(D, Fr, 1, n), H.phi_inv,
                      slot_apply(D, Fi, n, 1), one.kron(Fi))
    alpha = contract(F_inv, lambda a: H.antipode.apply(H.basis(a)),
                     lambda b: H.prod(H.alpha, H.basis(b)))
    beta = contract(F, lambda a: H.prod(H.basis(a), H.beta),
                    lambda b: H.antipode.apply(H.basis(b)))
    return QuasiHopfAlgebra(f, n, H.mult, H.unit, comult, H.counit, H.antipode,
                            H.antipode_inv, phi, phi_inv, alpha, beta, name)


@pytest.fixture(scope="session")
def twisted_h4_q():
    """Sweedler's H4 over Q (basis 1, g, x, gx) twisted by
    F = 1 (x) 1 + x (x) (1 - g): a noncommutative quasi-Hopf algebra with
    nontrivial Phi, alpha and beta."""
    o, m = QQ.one, QQ.neg(QQ.one)
    return drinfeld_twist(sweedler_h4(QQ), {(0, 0): o, (2, 0): o, (2, 1): m},
                          {(0, 0): o, (2, 0): m, (2, 1): o}, "H4^F")


def graded_dual_numbers(H, d):
    """k[x]/x^2 as an algebra object over k^G_w (basis index 0 the unit of
    G): the basis function delta_g projects onto degree g, with 1 in
    degree e and x in degree d.  x^2 = 0 kills the only product that would
    need w, so the algebra object is associative, but Phi acts on its
    tensor cube by w(d, d, d) on x (x) x (x) x."""
    f = H.field
    o, z = f.one, f.zero
    carrier = HModule(H, [Matrix.from_rows(f, [[o if g == 0 else z, z],
                                               [z, o if g == d else z]])
                          for g in range(H.dim)], name="k[x]/x^2")
    mult = Matrix.from_cols(f, [(o, z), (z, o), (z, o), (z, z)], ambient=2)
    return ModuleAlgebra(carrier, mult, Matrix.from_cols(f, [(o, z)]))


GRADED_INPUTS = {
    # id: (field, group order, cocycle, degree of x)
    "Z2-Q-x1": (QQ, 2, z2_nontrivial_cocycle, 1),
    "Z2-F5-x1": (F5, 2, z2_nontrivial_cocycle, 1),
    "Z3-F7-x1": (prime_field(7), 3, z3_nontrivial_cocycle, 1),
    "Z3-F7-x2": (prime_field(7), 3, z3_nontrivial_cocycle, 2),
}


@pytest.fixture(scope="session", params=sorted(GRADED_INPUTS))
def graded_over_twisted(request):
    """(id, A, M): graded_dual_numbers over k^G_w with the trivial QUASI_I
    coefficient, one of the inputs on which Phi acts."""
    f, order, cocycle, d = GRADED_INPUTS[request.param]
    H = twisted_dual_group_algebra(f, cyclic_group_table(order), cocycle(f))
    k = trivial_module(H)
    return request.param, graded_dual_numbers(H, d), Contramodule(k, evaluation_at_unit(k),
                                                                  QUASI_I)


def base_ring_t2(field):
    """T2, the upper-triangular 2x2 matrices: basis e11, e12, e22, a
    noncommutative base ring."""
    z, o = field.zero, field.one
    mult = [z] * 27
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        mult[(i * 3 + j) * 3 + k] = o
    return BaseRing(field, 3, Matrix(field, 9, 3, mult), (o, z, o), name="T2")


@pytest.fixture(scope="session")
def env_f5():
    return enveloping_algebroid(base_ring_dual_numbers(F5))


@pytest.fixture(scope="session")
def env_q():
    return enveloping_algebroid(base_ring_dual_numbers(QQ))


@pytest.fixture(scope="session")
def t2e_f5():
    return enveloping_algebroid(base_ring_t2(F5))


def random_module(H, dim, seed):
    """A module of the given dimension: a direct sum of small canonical
    modules conjugated by a seeded random invertible matrix."""
    rng = random.Random(seed)
    f = H.field
    reg = regular_module(H)
    triv = trivial_module(H)
    blocks = []
    total = 0
    while total < dim:
        if dim - total >= reg.dim and rng.random() < 0.6:
            blocks.append(reg)
            total += reg.dim
        else:
            blocks.append(triv)
            total += 1
    mats = []
    for i in range(H.dim):
        ent = [[f.zero] * dim for _ in range(dim)]
        off = 0
        for b in blocks:
            for r in range(b.dim):
                for c in range(b.dim):
                    ent[off + r][off + c] = b.mats[i].get(r, c)
            off += b.dim
        mats.append(Matrix.from_rows(f, ent))
    g = random_invertible(f, dim, rng)
    gi = g.inverse()
    return HModule(H, [g * m * gi for m in mats], name="rand%d" % dim)


def random_invertible(f, n, rng):
    while True:
        m = Matrix(f, n, n, [f.from_int(rng.randrange(-2, 3)) for _ in range(n * n)])
        if m.rank() == n:
            return m


def stack(maps):
    """Maps of one shape as a stack: row b is vec(F_b)."""
    return Matrix.from_rows(maps[0].field, [m.entries for m in maps])


def random_intertwiner(V, W, seed):
    """A random H-linear map V -> W from the canonical intertwiner basis."""
    sp = hom_module_morphisms(V, W)
    if sp.dim == 0:
        return None
    f = V.parent.field
    rng = random.Random(seed)
    vec = [f.zero] * (W.dim * V.dim)
    for b in sp.basis:
        c = f.from_int(rng.randrange(1, 5))
        vec = [f.add(a, f.mul(c, x)) for a, x in zip(vec, b)]
    return Matrix(f, W.dim, V.dim, vec)


def random_stack(V, W, seed):
    """random_intertwiner(V, W, seed) as a one-row stack (its row is vec(f)),
    or None when Hom_H(V, W) is zero."""
    fm = random_intertwiner(V, W, seed)
    return None if fm is None else stack_of_maps(fm, W.dim)
