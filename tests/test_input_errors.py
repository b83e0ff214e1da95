"""Malformed inputs end in a usage or parse error (exit 2), never a traceback.

Module dimensions are read like every other dimension: zero and negative
ones are a dimension_mismatch at the dim key.  The side files of
``qha generate`` (--base, --omega, --table, --structure) are read with the
validated readers of the structure files.
"""

import json

import pytest

from qha.cli import main
from qha.linalg import Matrix
from qha.structures import StructureFileError, parse_structure, serialize, write_structure
from qha.quasihopf import group_algebra, cyclic_group_table, trivial_module
from qha.algebroid import HopfAlgebroid, base_module, base_ring_dual_numbers, enveloping_algebroid
from qha.coefficients import Contramodule, evaluation_at_unit, HOPF_MU, ALGEBROID_MU
from qha.cyclic import unit_algebra

from conftest import QQ, F5


KC2 = group_algebra(QQ, cyclic_group_table(2), "kC2")


def _structure(tmp_path):
    struct = tmp_path / "kC2.json"
    struct.write_text(json.dumps(serialize(KC2, "kC2")))
    return str(struct)


def _files(tmp_path, kind, dim):
    """The kC2 structure and a file of the given kind whose module has the
    given dimension (its action, contraaction and multiplication emptied)."""
    H = KC2
    k = trivial_module(H)
    obj = {"module": k, "contramodule": Contramodule(k, evaluation_at_unit(k), HOPF_MU),
           "module_algebra": unit_algebra(H)}[kind]
    doc = serialize(obj, "x")
    module = doc if kind == "module" else doc["module"]
    module.update(dim=dim, action=[[], []])
    for key in ("contraaction", "mult", "unit"):
        if key in doc:
            doc[key] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return _structure(tmp_path), str(bad)


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("kind, where", [("module", "$.dim"),
                                         ("contramodule", "$.module.dim"),
                                         ("module_algebra", "$.module.dim")])
def test_nonpositive_module_dim_is_dimension_mismatch(tmp_path, kind, where, dim):
    _, bad = _files(tmp_path, kind, dim)
    with pytest.raises(StructureFileError) as err:
        parse_structure(bad)
    assert (err.value.code, err.value.where) == ("dimension_mismatch", where)


@pytest.mark.parametrize("dim", [0, -1])
def test_zero_dim_coefficient_refused_by_every_command(tmp_path, capsys, dim):
    struct, bad = _files(tmp_path, "contramodule", dim)
    unit_a = tmp_path / "unitA.json"
    assert main(["generate", "unit_algebra", "--structure", struct, "--out", str(unit_a)]) == 0
    for argv in (["ayd", struct, bad], ["stability", struct, bad],
                 ["cohomology", struct, str(unit_a), bad, "--degree", "1"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "dimension_mismatch at $.module.dim" in capsys.readouterr().err


def _generate(tmp_path, capsys, argv, files):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["generate"] + argv + ["--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


Z2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("argv, files, message", [
    (["enveloping", "--base", "base.json"],
     {"base.json": {"dim": 1, "unit": ["1"]}}, "missing key 'mult'"),
    (["twisted_dual", "--table", "z2.json", "--omega", "omega.json"],
     {"z2.json": Z2, "omega.json": [[["1", "1"], ["1", "1"]], [["1", "1"]]]},
     "dimension_mismatch at $[1]: expected 2 rows"),
    (["twisted_dual", "--table", "z2.json", "--omega", "omega.json"],
     {"z2.json": Z2, "omega.json": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "x"]]]},
     "scalar_parse at $[1][1][1]"),
    (["group_algebra", "--table", "table.json"], {"table.json": [[0, 1], [1, None]]},
     "table must be a list of rows of integers"),
], ids=["base-without-mult", "omega-shape", "omega-scalar", "table-entry"])
def test_generate_side_file_errors_are_usage_errors(tmp_path, capsys, argv, files, message):
    code, err = _generate(tmp_path, capsys, [a if a.startswith("-") or "." not in a
                                             else str(tmp_path / a) for a in argv], files)
    assert code == 2 and message in err


def test_unit_algebra_of_a_contramodule_file_is_usage_error(tmp_path, capsys):
    struct = _structure(tmp_path)
    coeff = tmp_path / "m.json"
    assert main(["generate", "trivial_contramodule", "--structure", struct,
                 "--out", str(coeff)]) == 0
    code, err = _generate(tmp_path, capsys, ["unit_algebra", "--structure", str(coeff)], {})
    assert code == 2 and "error [usage]: unit_algebra needs" in err


def test_side_file_that_is_not_json_is_parse_error(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("[[0, 1], [1, 0]")
    capsys.readouterr()
    assert main(["generate", "group_algebra", "--table", str(table)]) == 2
    assert "error [json]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, size", [("--symmetric", "-3"), ("--symmetric", "0"),
                                        ("--cyclic", "0"), ("--cyclic", "-2")])
def test_group_algebra_size_below_one_is_usage_error(capsys, flag, size):
    capsys.readouterr()
    assert main(["generate", "group_algebra", flag, size]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error [usage]: %s must be at least 1, got %s\n" % (flag, size)


# -- names, integers and embedded parents ----------------------------------------
#
# A name is a string wherever it is read, a bool is not an integer, and an
# error inside an embedded parent carries the parent's path.

ENV = enveloping_algebroid(base_ring_dual_numbers(QQ))


def _run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _set(path, value):
    """An edit of a document: the key at the end of path set to value, or
    removed when value is None."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if value is None:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("parent, edit, command, message", [
    (ENV, _set(["name"], 5), "check", "schema at $.name: key 'name' must be str"),
    (KC2, _set(["name"], 5), "cohomology", "schema at $.name: key 'name' must be str"),
    (KC2, _set(["dim"], True), "check", "schema at $.dim: key 'dim' must be int"),
    (KC2, _set(["field"], {"type": "GFp", "p": True}), "check",
     "schema at $.field.p: key 'p' must be int"),
], ids=["algebroid-name", "quasi-hopf-name", "dim-true", "p-true"])
def test_structure_file_keys_of_the_wrong_type(tmp_path, capsys, parent, edit, command,
                                               message):
    struct = str(tmp_path / "H.json")
    write_structure(struct, parent, "H")
    argv = [command, struct]
    if command == "cohomology":
        for what in ("unit_algebra", "trivial_contramodule"):
            argv.append(str(tmp_path / (what + ".json")))
            assert main(["generate", what, "--structure", struct, "--out", argv[-1]]) == 0
        argv += ["--degree", "1"]
    doc = serialize(parent, "H")
    edit(doc)
    (tmp_path / "H.json").write_text(json.dumps(doc))
    assert _run(capsys, argv) == (2, "", "error [schema]: %s\n" % message)


def _coefficient(H):
    """A contramodule over H: the trivial one over a quasi-Hopf algebra, a
    zero contraaction on the base over an algebroid (it is only parsed)."""
    if isinstance(H, HopfAlgebroid):
        return Contramodule(base_module(H), Matrix.zeros(QQ, 2, 8), ALGEBROID_MU)
    k = trivial_module(H)
    return Contramodule(k, evaluation_at_unit(k), HOPF_MU)


@pytest.mark.parametrize("parent, edit, message", [
    (KC2, _set(["parent", "name"], 5),
     "error [schema]: schema at $.parent.name: key 'name' must be str"),
    (KC2, _set(["module", "name"], 5),
     "error [schema]: schema at $.module.name: key 'name' must be str"),
    (KC2, _set(["module", "dim"], True),
     "error [schema]: schema at $.module.dim: key 'dim' must be int"),
    (KC2, _set(["parent", "alpha"], ["1"]), "error [dimension_mismatch]: "
     "dimension_mismatch at $.parent.alpha: expected a list of 2 scalars"),
    (KC2, _set(["parent", "dim"], None),
     "error [schema]: schema at $.parent: missing key 'dim'"),
    (ENV, _set(["parent", "base", "unit"], ["1"]), "error [dimension_mismatch]: "
     "dimension_mismatch at $.parent.base.unit: expected a list of 2 scalars"),
], ids=["parent-name", "module-name", "module-dim-true", "parent-alpha", "parent-dim",
        "parent-base-unit"])
def test_coefficient_file_errors_carry_their_path(tmp_path, capsys, parent, edit, message):
    struct, bad = tmp_path / "H.json", tmp_path / "M.json"
    write_structure(str(struct), parent, "H")
    doc = serialize(_coefficient(parent), "M")
    edit(doc)
    bad.write_text(json.dumps(doc))
    assert _run(capsys, ["stability", str(struct), str(bad)]) == (2, "", message + "\n")


# An embedded parent declares the document's field: a different field, a
# field that is not an object and a missing one are refused at the parent.
@pytest.mark.parametrize("field, message", [
    ({"type": "GFp", "p": 5}, "error [incompatible_kinds]: incompatible_kinds at "
     "$.parent.field: embedded parent field differs from the document's"),
    ("garbage", "error [schema]: schema at $.parent.field: key 'field' must be dict"),
    (None, "error [schema]: schema at $.parent: missing key 'field'"),
], ids=["other-field", "not-an-object", "missing"])
def test_embedded_parent_field_is_read(tmp_path, capsys, field, message):
    struct, bad = tmp_path / "H.json", tmp_path / "M.json"
    write_structure(str(struct), KC2, "H")
    doc = serialize(_coefficient(KC2), "M")
    _set(["parent", "field"], field)(doc)
    bad.write_text(json.dumps(doc))
    assert _run(capsys, ["ayd", str(struct), str(bad)]) == (2, "", message + "\n")


# -- every refusal of the structure-file reader -------------------------------------
#
# One case per raise of qha.structures that no other test reaches: each file
# is refused with exit 2, its error code and the path the error happened at.

KC2_F5 = group_algebra(F5, cyclic_group_table(2), "kC2")


def _edited(obj, edit):
    """The text of obj's document after edit."""
    def text():
        doc = serialize(obj, "x")
        edit(doc)
        return json.dumps(doc)
    return text


def _drop_last(*path):
    """An edit that removes the last item of the list at path."""
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc.pop()
    return edit


@pytest.mark.parametrize("command, text, code, where", [
    ("check", None, "io", "$"),
    ("check", lambda: "{", "json", "$"),
    ("check", lambda: "[]", "schema", "$"),
    ("check", _edited(_coefficient(KC2), _set(["kind"], "ring")), "schema", "$.kind"),
    ("check", _edited(trivial_module(KC2), _set(["parent"], None)), "schema", "$"),
    ("ayd", _edited(_coefficient(KC2_F5), _set(["parent"], None)),
     "incompatible_kinds", "$.field"),
    ("check", _edited(_coefficient(KC2), _set(["parent", "kind"], "module")),
     "schema", "$.parent"),
    ("check", _edited(_coefficient(KC2), _set(["flavor"], "typeIII")), "schema", "$.flavor"),
    ("check", _edited(_coefficient(KC2), _drop_last("contraaction")),
     "dimension_mismatch", "$.contraaction"),
    ("check", _edited(_coefficient(KC2), _set(["flavor"], ALGEBROID_MU)),
     "incompatible_kinds", "$.flavor"),
    ("check", _edited(unit_algebra(ENV), _set(["mult"], [["0", "1", "0", "0"],
                                                         ["0", "0", "0", "0"]])),
     "dimension_mismatch", "$.mult"),
    ("check", _edited(KC2, _drop_last("antipode")), "dimension_mismatch", "$.antipode"),
    ("check", _edited(KC2, _drop_last("mult")), "dimension_mismatch", "$.mult"),
    ("check", _edited(KC2, _drop_last("comult")), "dimension_mismatch", "$.comult"),
    ("check", _edited(KC2, _drop_last("comult", 1)), "dimension_mismatch", "$.comult[1]"),
    ("check", _edited(trivial_module(KC2), _drop_last("action")),
     "dimension_mismatch", "$.action"),
    ("check", _edited(KC2, _set(["field"], {"type": "R"})), "schema", "$.field"),
], ids=["io", "json", "top-level-not-object", "unknown-kind", "no-parent",
        "field-differs-from-supplied-parent", "embedded-parent-kind", "unknown-flavor",
        "contraaction-slices", "flavor-of-other-parent-kind", "algebroid-mult-not-constant",
        "matrix-rows", "tensor3-slices", "rows-count", "row-one-scalar-short", "action-slices",
        "unknown-field-type"])
def test_structure_file_errors_name_their_code_and_path(tmp_path, capsys, command, text,
                                                        code, where):
    struct, bad = tmp_path / "H.json", tmp_path / "bad.json"
    write_structure(str(struct), KC2, "H")
    if text is not None:
        bad.write_text(text())
    argv = ["check", str(bad)] if command == "check" else [command, str(struct), str(bad)]
    exit_code, out, err = _run(capsys, argv)
    assert (exit_code, out) == (2, "")
    assert err.startswith("error [%s]: %s at %s: " % (code, code, where)), err


# -- usage errors of the commands ---------------------------------------------------
#
# One case per refusal of qha.cli that no other test reaches: a generator
# without its side file, a field or parent it cannot use, and a file of the
# wrong kind for its place on the command line.  Each exits 2 with its
# error line and prints nothing.

@pytest.mark.parametrize("argv, message", [
    (["generate", "group_algebra"],
     "group_algebra needs --cyclic N, --symmetric N or --table FILE"),
    (["generate", "twisted_dual"], "twisted_dual needs --table FILE and --omega FILE"),
    (["generate", "twisted_dual", "--table", "{tmp}/z2.json"],
     "twisted_dual needs --table FILE and --omega FILE"),
    (["generate", "enveloping"], "enveloping needs --base FILE with dim/mult/unit"),
    (["generate", "enveloping", "--base", "{tmp}/z2.json"],
     "--base must hold an object with dim/mult/unit"),
    (["generate", "unit_algebra"], "unit_algebra needs --structure FILE"),
    (["generate", "trivial_contramodule"], "trivial_contramodule needs --structure FILE"),
    (["generate", "trivial_contramodule", "--structure", "{tmp}/env.json"],
     "trivial_contramodule needs a quasi_hopf structure"),
    (["generate", "sweedler_h4", "--field", "GFp", "--p", "4"], "non-prime characteristic 4"),
    (["generate", "twisted_dual_z3"], "the rationals have no 3-th roots of unity"),
    (["check", "{tmp}/k.json"], "check expects a quasi_hopf or hopf_algebroid file"),
    (["check", "{tmp}/M.json"], "check expects a quasi_hopf or hopf_algebroid file"),
    (["check", "{tmp}/unitA.json"], "check expects a quasi_hopf or hopf_algebroid file"),
    (["ayd", "{tmp}/kC2.json", "{tmp}/unitA.json"],
     "expected a contramodule file, got 'ModuleAlgebra'"),
    (["convert", "{tmp}/M.json", "--to", "typeII"], "cannot convert flavor hopf_mu to typeII"),
    (["cohomology", "{tmp}/kC2.json", "{tmp}/M.json", "{tmp}/unitA.json", "--degree", "1"],
     "expected a module_algebra file for the algebra object"),
    (["cohomology", "{tmp}/kC2.json", "{tmp}/unitA.json", "{tmp}/unitA.json", "--degree", "1"],
     "expected a contramodule file for the coefficient"),
], ids=["group-algebra-no-table", "twisted-dual-no-files", "twisted-dual-no-omega",
        "enveloping-no-base", "enveloping-base-not-object", "unit-algebra-no-structure",
        "trivial-contramodule-no-structure", "trivial-contramodule-of-algebroid",
        "field-not-prime", "z3-cocycle-over-q", "check-module-file", "check-contramodule-file",
        "check-module-algebra-file", "ayd-algebra-coefficient",
        "convert-hopf-mu", "cohomology-swapped-files", "cohomology-algebra-as-coefficient"])
def test_command_usage_errors(tmp_path, capsys, argv, message):
    struct = str(tmp_path / "kC2.json")
    write_structure(struct, KC2, "kC2")
    write_structure(str(tmp_path / "env.json"), ENV, "env")
    write_structure(str(tmp_path / "k.json"), trivial_module(KC2), "k")
    write_structure(str(tmp_path / "unitA.json"), unit_algebra(KC2), "unitA")
    write_structure(str(tmp_path / "M.json"), _coefficient(KC2), "M")
    (tmp_path / "z2.json").write_text(json.dumps(Z2))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert _run(capsys, argv) == (2, "", "error [usage]: %s\n" % message)
