"""The associativity check of every algebra reports what the transposed
Kronecker sides reported.

``Algebra.check_algebra`` compares m (m (x) I) with m (I (x) m), both
dim x dim^3.  These tests build the sides it used to compare, the dim^3 x
dim products (m^T (x) I) m^T and (I (x) m^T) m^T transposed, and check
that the verdict and the first failing (i, j, k) are the same, on parents
whose structure constants were changed in one or two places.
"""

import random

import pytest

from qha.algebroid import BaseRing, HopfAlgebroid, base_ring_dual_numbers, enveloping_algebroid
from qha.linalg import Matrix
from qha.quasihopf import (QuasiHopfAlgebra, cyclic_group_table, group_algebra,
                           symmetric_group_table, sweedler_h4, twisted_dual_group_algebra,
                           z2_nontrivial_cocycle)
from qha.reports import CheckReport

from conftest import F5, QQ

MUTANTS = 12


def transposed_kronecker_result(A, check_id):
    """The associativity result from the n^3 x n sides, transposed."""
    f, n = A.field, A.dim
    table, eye = A.mult_matrix.transpose(), Matrix.identity(f, n)
    return CheckReport().compare(check_id, (("i", n), ("j", n), ("k", n)),
                                 (table.kron(eye) * table).transpose(),
                                 (eye.kron(table) * table).transpose()).result(check_id)


def mutated_mult(A, rng):
    """A's structure constants with one or two of them changed."""
    f, mult = A.field, list(A.mult.entries)
    for _ in range(rng.choice((1, 2))):
        k = rng.randrange(len(mult))
        mult[k] = f.add(mult[k], f.from_int(rng.choice((1, 2, -1))))
    return Matrix(f, A.mult.rows, A.mult.cols, mult)


def with_mult(A, mult):
    """A copy of A, a quasi-Hopf algebra, an algebroid or a base ring, with
    these structure constants."""
    if isinstance(A, QuasiHopfAlgebra):
        return QuasiHopfAlgebra(A.field, A.dim, mult, A.unit, A.comult, A.counit,
                                A.antipode, A.antipode_inv, A.phi, A.phi_inv,
                                A.alpha, A.beta, name=A.name)
    if isinstance(A, HopfAlgebroid):
        return HopfAlgebroid(A.base, A.dim, mult, A.unit, A.s_l, A.t_l, A.s_r, A.t_r,
                             A.delta_l_lift, A.delta_r_lift, A.eps_l, A.eps_r,
                             A.antipode, A.antipode_inv, name=A.name)
    return BaseRing(A.field, A.dim, mult, A.unit, name=A.name)


def quasi_hopf(f):
    return {"kC3": group_algebra(f, cyclic_group_table(3), "kC3"),
            "kS3": group_algebra(f, symmetric_group_table(3), "kS3"),
            "H4": sweedler_h4(f),
            "k^Z2_w": twisted_dual_group_algebra(f, cyclic_group_table(2),
                                                 z2_nontrivial_cocycle(f))}


def algebras(f):
    """(name, algebra, check id, unit witness) for every parent and base ring."""
    out = [(name, H, "mult", True) for name, H in quasi_hopf(f).items()]
    env = enveloping_algebroid(base_ring_dual_numbers(f))
    return out + [("env", env, "mult", False), ("env.base", env.base, "base", False)]


CASES = [(f, name, A, prefix, unit_witness) for f in (QQ, F5)
         for name, A, prefix, unit_witness in algebras(f)]


def _id(case):
    return "%s-%s" % (case[0], case[1])


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_associativity_witness_matches_the_transposed_kronecker_sides(case):
    f, name, A, prefix, unit_witness = case
    rng = random.Random("%s %s" % (f, name))
    verdicts = []
    for mult in [A.mult] + [mutated_mult(A, rng) for _ in range(MUTANTS)]:
        B = with_mult(A, mult)
        rep = CheckReport()
        B.check_algebra(rep, prefix, unit_witness)
        got = rep.result(prefix + "_associative")
        assert got == transposed_kronecker_result(B, prefix + "_associative")
        verdicts.append(got.passed)
    # the unchanged algebra passes, and some changes break associativity
    assert verdicts[0] and not all(verdicts)


@pytest.mark.parametrize("k, witness", [((5 * 24 + 7) * 24 + 3, (1, 3, 7)),
                                        ((17 * 24 + 20) * 24 + 11, (1, 17, 20))])
def test_kS4_mutant_witness(k, witness):
    """A 24-dimensional case: e_5 e_7 (or e_17 e_20) given an extra e_3
    (or e_11) term."""
    H = group_algebra(QQ, symmetric_group_table(4), "kS4")
    mult = list(H.mult.entries)
    mult[k] = QQ.add(mult[k], QQ.one)
    B = with_mult(H, Matrix(QQ, H.mult.rows, H.mult.cols, mult))
    rep = CheckReport()
    B.check_algebra(rep, "mult", True)
    got = rep.result("mult_associative")
    assert not got.passed
    assert got.counterexample == tuple(zip("ijk", witness))
    assert got == transposed_kronecker_result(B, "mult_associative")
