"""An embedded parent is compared with the supplied one by its serialisation.

``parse_document`` refuses a module, contramodule or algebra file whose
embedded parent differs from the supplied structure.  An embedded parent
spelled otherwise than the supplied one serialises is parsed and compared
by its canonical JSON, so a file is read exactly when the two parents
serialise alike under one name.  The parents below, their seeded
one-scalar mutants at every key, and parents of other bases, dims, fields
and names are each judged both ways.
"""

import json
import random

import pytest

from qha.cli import main
from qha.fields import prime_field
from qha.algebroid import base_ring_dual_numbers, enveloping_algebroid
from qha.coefficients import Contramodule, evaluation_at_unit, HOPF_MU
from qha.quasihopf import (cyclic_group_table, group_algebra, regular_module, sweedler_h4,
                           trivial_module, twisted_dual_group_algebra, z2_nontrivial_cocycle,
                           z3_nontrivial_cocycle)
from qha.structures import (StructureFileError, parse_document, parse_structure, serialize,
                            write_structure)

from conftest import QQ, F5, base_ring_t2

F7 = prime_field(7)


def _parents(f):
    """kC2, H4, k^Z2_w and the enveloping algebroids of the dual numbers and
    of T2 over f."""
    return {
        "kC2": group_algebra(f, cyclic_group_table(2), "kC2"),
        "H4": sweedler_h4(f),
        "k^Z2_w": twisted_dual_group_algebra(f, cyclic_group_table(2),
                                             z2_nontrivial_cocycle(f)),
        "env_dual": enveloping_algebroid(base_ring_dual_numbers(f)),
        "env_T2": enveloping_algebroid(base_ring_t2(f)),
    }


# k^Z3_w needs a primitive cube root of unity, which neither Q nor GF(5) has
PARENTS = {"%s/%s" % (name, f): H for f in (QQ, F5) for name, H in _parents(f).items()}
PARENTS["k^Z3_w/GF(7)"] = twisted_dual_group_algebra(F7, cyclic_group_table(3),
                                                     z3_nontrivial_cocycle(F7))


def _same_serialisation(a, b):
    return serialize(a, "x") == serialize(b, "x")


MISMATCH = ("incompatible_kinds", "$.parent",
            "embedded parent differs from the supplied structure")


def _reads(embedded, supplied):
    """Whether the regular module file of the parent embedded, with one
    scalar of its parent respelled so that it is parsed and compared, is
    read with parent=supplied; any refusal is the mismatch at $.parent."""
    doc = serialize(regular_module(embedded))
    mult = doc["parent"]["mult"]
    mult[0][0][0] = " %s " % mult[0][0][0]
    try:
        M = parse_document(doc, parent=supplied)
    except StructureFileError as e:
        assert (e.code, e.where, e.message) == MISMATCH
        return False
    assert M.parent is supplied
    return True


def _leaves(doc, path=()):
    """The index paths of the scalar strings of a nested list."""
    if isinstance(doc, str):
        return [path]
    return [p for i, item in enumerate(doc) for p in _leaves(item, path + (i,))]


def _mutants(H, rng):
    """One parent per key of H's document (and of its base), each with one
    seeded scalar of that key moved by one."""
    f, doc = H.field, serialize(H, H.name)
    keys = [(k,) for k in doc if k not in ("kind", "name", "field", "dim", "base")]
    if "base" in doc:
        keys += [("base", "mult"), ("base", "unit")]
    out = []
    for key in keys:
        array = doc
        for k in key:
            array = array[k]
        *outer, last = key + rng.choice(_leaves(array))
        mutant = json.loads(json.dumps(doc))
        holder = mutant
        for i in outer:
            holder = holder[i]
        holder[last] = f.format(f.add(f.parse(holder[last]), f.one))
        out.append((key, parse_document(mutant)))
    return out


@pytest.mark.parametrize("a", sorted(PARENTS))
def test_value_comparison_agrees_across_parents(a):
    """Every pair of the parents: other kinds, bases, dims and fields."""
    for b in sorted(PARENTS):
        assert _reads(PARENTS[a], PARENTS[b]) \
            == _same_serialisation(PARENTS[a], PARENTS[b]) == (a == b), b


@pytest.mark.parametrize("name", sorted(PARENTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_comparison_agrees_on_one_scalar_mutants(name, seed):
    H = PARENTS[name]
    mutants = _mutants(H, random.Random("%s-%d" % (name, seed)))
    assert len(mutants) == (14 if "env" in name else 10)
    for key, mutant in mutants:
        for a, b in ((H, mutant), (mutant, H)):
            assert _reads(a, b) is _same_serialisation(a, b) is False, key
        assert _reads(mutant, mutant) and _same_serialisation(mutant, mutant)


@pytest.mark.parametrize("name", sorted(PARENTS))
def test_same_parent_under_another_name_and_read_back(name):
    H = PARENTS[name]
    again = parse_document(serialize(H, "another name"))
    assert again.name == "another name" != H.name
    assert _reads(H, again) and _reads(again, H) and _same_serialisation(H, again)


def test_something_else_is_no_parent():
    """A module, contramodule or base ring supplied as the parent is refused
    before anything is serialised, with or without an embedded parent; a
    module or contramodule embedded as the parent is a schema error there."""
    H = PARENTS["kC2/Q"]
    k = trivial_module(H)
    contra = Contramodule(k, evaluation_at_unit(k), HOPF_MU)
    embedded = serialize(regular_module(H))
    bare = {key: value for key, value in embedded.items() if key != "parent"}
    for other in (k, contra, PARENTS["env_dual/Q"].base):
        for doc in (embedded, bare):
            with pytest.raises(StructureFileError) as err:
                parse_document(doc, parent=other)
            assert (err.value.code, err.value.where) == ("incompatible_kinds", "$")
            assert "not a parent" in err.value.message
    for other in (k, contra):
        doc = serialize(k)
        doc["parent"] = serialize(other)
        with pytest.raises(StructureFileError) as err:
            parse_document(doc, parent=H)
        assert (err.value.code, err.value.where) == ("schema", "$.parent")


def _coefficient_file(tmp_path, H):
    k = trivial_module(H)
    path = tmp_path / "M.json"
    write_structure(str(path), Contramodule(k, evaluation_at_unit(k), HOPF_MU), "M")
    return str(path)


def test_supplied_parent_is_compared_with_the_embedded_one(tmp_path):
    H = PARENTS["kC2/Q"]
    path = _coefficient_file(tmp_path, H)
    assert parse_structure(path, parent=parse_document(serialize(H, "renamed"))).parent.name \
        == "renamed"
    for _, mutant in _mutants(H, random.Random(0)):
        with pytest.raises(StructureFileError) as err:
            parse_structure(path, parent=mutant)
        assert str(err.value) == ("incompatible_kinds at $.parent: "
                                  "embedded parent differs from the supplied structure")


def test_mismatch_message_through_the_command(tmp_path, capsys):
    kc2, kc3 = tmp_path / "kC2.json", tmp_path / "kC3.json"
    write_structure(str(kc2), PARENTS["kC2/Q"], "kC2")
    write_structure(str(kc3), group_algebra(QQ, cyclic_group_table(3), "kC3"), "kC3")
    coeff = _coefficient_file(tmp_path, PARENTS["kC2/Q"])
    capsys.readouterr()
    assert main(["ayd", str(kc3), coeff]) == 2
    assert capsys.readouterr().err == (
        "error [incompatible_kinds]: incompatible_kinds at $.parent: "
        "embedded parent differs from the supplied structure\n")
