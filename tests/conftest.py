import random

import pytest

from qha.fields import rationals, prime_field
from qha.linalg import Matrix
from qha.quasihopf import (group_algebra, sweedler_h4, twisted_dual_group_algebra,
                           cyclic_group_table, symmetric_group_table,
                           z2_nontrivial_cocycle, z3_nontrivial_cocycle,
                           regular_module, trivial_module, hom_module_morphisms, HModule)
from qha.algebroid import BaseRing

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


def base_ring_t2(field):
    """T2, the upper-triangular 2x2 matrices: basis e11, e12, e22, a
    noncommutative base ring."""
    z, o = field.zero, field.one
    mult = [z] * 27
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        mult[(i * 3 + j) * 3 + k] = o
    return BaseRing(field, 3, mult, (o, z, o), name="T2")


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


def vstack(maps):
    """Maps of one shape as a vertical stack, one row block per map."""
    return Matrix.from_rows(maps[0].field, [r for m in maps for r in m.row_list()])


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
