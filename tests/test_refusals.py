"""Every library input check refuses what it is written to refuse.

One case per raise that no other test reaches: a flavor or parent kind a
coefficient check cannot read, an algebra object or cocyclic build on
inputs of the wrong shape, a group table that is no group, and a field
that is not Q or GF(p) for a prime p below 2**31.
"""

import pytest

from qha.fields import Field, FieldError, ScalarParseError, prime_field
from qha.linalg import Matrix
from qha.quasihopf import (GroupTableError, StructureError, group_algebra, regular_module,
                           trivial_module)
from qha.coefficients import (ALGEBROID_MU, HOPF_MU, Contramodule, FlavorError,
                              ayd_compatibility_system, check_ayd_algebroid, evaluation_at_unit)
from qha.cyclic import ModuleAlgebra, build_cocyclic, unit_algebra

from conftest import QQ


def _trivial(H, flavor=HOPF_MU):
    k = trivial_module(H)
    return Contramodule(k, evaluation_at_unit(k), flavor)


def test_unknown_flavor_is_refused(kc2_q):
    k = trivial_module(kc2_q)
    with pytest.raises(FlavorError, match="unknown flavor 'hopf'"):
        Contramodule(k, evaluation_at_unit(k), "hopf")


def test_no_linear_ayd_system_for_the_algebroid_flavor(kc2_q):
    with pytest.raises(FlavorError, match="no linear aYD system for flavor algebroid_mu"):
        ayd_compatibility_system(regular_module(kc2_q), ALGEBROID_MU)


def test_algebroid_ayd_check_needs_an_algebroid_parent(kc2_q):
    with pytest.raises(FlavorError, match="need a HopfAlgebroid parent"):
        check_ayd_algebroid(_trivial(kc2_q, ALGEBROID_MU))


@pytest.mark.parametrize("mult, unit, message", [
    ((1, 2), (1, 1), "mult must be 1x1"),
    ((1, 1), (1, 2), "unit must be 1x1"),
], ids=["mult", "unit"])
def test_module_algebra_of_the_wrong_shape_is_refused(kc2_q, mult, unit, message):
    with pytest.raises(StructureError, match=message):
        ModuleAlgebra(trivial_module(kc2_q), Matrix.zeros(QQ, *mult), Matrix.zeros(QQ, *unit))


def test_cocyclic_build_needs_a_degree(kc2_q):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        build_cocyclic(unit_algebra(kc2_q), _trivial(kc2_q), 0)


def test_cocyclic_build_needs_one_parent(kc2_q, h4_q):
    with pytest.raises(StructureError, match="parents differ"):
        build_cocyclic(unit_algebra(kc2_q), _trivial(h4_q), 1)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "not square over range"),
    ([[0, 1], [1, 2]], "not square over range"),
    # 0 is an identity, and (1 1) 1 = 2 1 = 1 but 1 (1 1) = 1 2 = 0
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], r"not associative at \(1,1,1\)"),
], ids=["ragged", "entry-out-of-range", "not-associative"])
def test_group_tables_that_are_no_group(table, message):
    with pytest.raises(GroupTableError, match=message):
        group_algebra(QQ, table)


@pytest.mark.parametrize("kind, p, message", [
    ("Q", 5, "rationals take no characteristic"),
    ("GFp", 1, "non-prime characteristic 1"),
    ("GFp", 4, "non-prime characteristic 4"),
    ("GFp", 9, "non-prime characteristic 9"),
    ("GFp", 2147483659, "characteristic too large: 2147483659"),
    ("R", 0, "unknown field kind 'R'"),
], ids=["q-with-p", "one", "even", "odd-composite", "too-large", "unknown-kind"])
def test_fields_that_are_refused(kind, p, message):
    with pytest.raises(FieldError, match=message):
        Field(kind, p)


def test_field_refusals_of_scalars():
    f7 = prime_field(7)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        f7.div(3, 0)
    with pytest.raises(ScalarParseError, match="bad rational 'x'"):
        QQ.parse("x")
    with pytest.raises(ScalarParseError, match="bad rational '1/0'"):
        QQ.parse(" 1/0 ")
    with pytest.raises(ScalarParseError, match="bad GF.7. residue '1/2'"):
        f7.parse("1/2")
    with pytest.raises(FieldError, match="rationals are not enumerable"):
        QQ.elements()
    assert list(f7.elements()) == list(range(7)) and f7.parse("-1") == 6
