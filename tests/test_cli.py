import json
from pathlib import Path

import pytest

from qha.cli import main
from qha.structures import (parse_structure, parse_document, serialize,
                            write_structure)
from qha.quasihopf import cyclic_group_table, trivial_module
from qha.algebroid import enveloping_algebroid, base_ring_dual_numbers
from qha.coefficients import Contramodule, evaluation_at_unit, HOPF_MU

from conftest import F5


def _load(path):
    """The JSON document at path, read through a file that is closed again."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def kc2_file(tmp_path):
    path = tmp_path / "kC2.json"
    assert main(["generate", "group_algebra", "--cyclic", "2",
                 "--out", str(path)]) == 0
    return str(path)


def test_roundtrip_parse_serialize_parse(tmp_path, kc2_file):
    H = parse_structure(kc2_file)
    doc = serialize(H, "kC2")
    H2 = parse_document(doc)
    assert serialize(H2, "kC2") == doc


def test_roundtrip_algebroid(tmp_path):
    H = enveloping_algebroid(base_ring_dual_numbers(F5))
    path = tmp_path / "env.json"
    write_structure(str(path), H, "env")
    H2 = parse_structure(str(path))
    assert serialize(H2, "env") == serialize(H, "env")


def test_roundtrip_contramodule(tmp_path, kc2_file):
    H = parse_structure(kc2_file)
    k = trivial_module(H)
    C = Contramodule(k, evaluation_at_unit(k), HOPF_MU)
    path = tmp_path / "c.json"
    write_structure(str(path), C, "c")
    C2 = parse_structure(str(path))
    assert C2.mu == C.mu and C2.flavor == C.flavor
    C3 = parse_structure(str(path), parent=H)
    assert C3.mu == C.mu


def test_check_exit_codes(tmp_path, kc2_file, capsys):
    assert main(["check", kc2_file, "--reproducible"]) == 0
    doc = _load(kc2_file)
    doc["counit"] = ["1", "0"]      # breaks the counit algebra-map axiom
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--reproducible"]) == 1


def test_non_prime_characteristic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"type": "GFp", "p": 4},
                               "kind": "quasi_hopf", "dim": 1}))
    assert main(["check", str(bad)]) == 2
    assert "non_prime_characteristic" in capsys.readouterr().err


def test_dimension_mismatch_names_the_field(tmp_path, kc2_file, capsys):
    doc = _load(kc2_file)
    doc["mult"][0][0] = ["1"]       # wrong row length
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "dimension_mismatch" in err and "mult" in err


def test_scalar_parse_error(tmp_path, kc2_file, capsys):
    doc = _load(kc2_file)
    doc["unit"][0] = "one half"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 2
    assert "scalar_parse" in capsys.readouterr().err


def test_determinism(tmp_path, kc2_file, capsys):
    main(["check", kc2_file, "--reproducible"])
    first = capsys.readouterr().out
    main(["check", kc2_file, "--reproducible"])
    second = capsys.readouterr().out
    assert first == second


def test_ayd_and_stability_commands(tmp_path, kc2_file):
    coeff = tmp_path / "m.json"
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    assert main(["ayd", kc2_file, str(coeff), "--reproducible"]) == 0
    assert main(["stability", kc2_file, str(coeff), "--reproducible"]) == 0
    # scaled contraaction fails stability with exit code 1
    doc = _load(coeff)
    doc["contraaction"][0] = [[str(2 * int(x)) for x in row]
                              for row in doc["contraaction"][0]]
    bad = tmp_path / "scaled.json"
    bad.write_text(json.dumps(doc))
    assert main(["stability", kc2_file, str(bad), "--reproducible"]) == 1


def _kc2_cohomology_inputs(tmp_path, kc2_file):
    unit_a = tmp_path / "unitA.json"
    coeff = tmp_path / "m.json"
    assert main(["generate", "unit_algebra", "--structure", kc2_file,
                 "--out", str(unit_a)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    return unit_a, coeff


def _failed_checks(capsys):
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False and "dims" not in out
    return [(c["check"], c["counterexample"]) for c in out["checks"] if not c["pass"]]


def test_cohomology_reports_failed_inputs_as_failed_checks(tmp_path, kc2_file, capsys):
    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    # the scaled contraaction of test_ayd_and_stability_commands
    doc = _load(coeff)
    doc["contraaction"][0] = [[str(2 * int(x)) for x in row]
                              for row in doc["contraaction"][0]]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["cohomology", kc2_file, str(unit_a), str(scaled),
                 "--degree", "2", "--reproducible"]) == 1
    assert _failed_checks(capsys) == [
        ("coefficient_stable", {"relation": "stability", "m": 0})]
    # a doubled multiplication of k breaks both unit laws, one entry each
    doc = _load(unit_a)
    doc["mult"] = [[str(2 * int(x)) for x in row] for row in doc["mult"]]
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(doc))
    assert main(["cohomology", kc2_file, str(doubled), str(coeff),
                 "--degree", "2", "--reproducible"]) == 1
    assert _failed_checks(capsys) == [
        ("algebra_object", {"relation": "left_unital"}),
        ("algebra_object", {"relation": "right_unital"})]


def test_cohomology_reports_broken_identity_as_failed_check(tmp_path, kc2_file,
                                                            monkeypatch, capsys):
    import qha.cli
    from qha.cyclic import CocyclicError

    def broken(A, M, n_max):
        raise CocyclicError("coface relation", n=1, i=0, j=2)
    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    monkeypatch.setattr(qha.cli, "build_cocyclic", broken)
    capsys.readouterr()
    assert main(["cohomology", kc2_file, str(unit_a), str(coeff),
                 "--degree", "2", "--reproducible"]) == 1
    assert _failed_checks(capsys) == [
        ("cocyclic_identities", {"relation": "coface relation", "n": 1, "i": 0, "j": 2})]


def _with_phi_inv_entry(doc, value):
    """doc with phi_inv[0] set to value in it and in every embedded parent."""
    if "phi_inv" in doc:
        doc["phi_inv"][0] = value
    if isinstance(doc.get("parent"), dict):
        _with_phi_inv_entry(doc["parent"], value)
    return doc


def test_cohomology_reports_a_phi_inverse_that_is_not_one_as_failed_check(tmp_path, kc2_file,
                                                                           capsys):
    # phi_inv[0] = 2 in the structure and in both embedded parents: the
    # rebracketing of the tensor powers needs Phi^-1, and a stored Phi^-1
    # that does not invert Phi is a failed identity (exit 1), as in qha check
    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    bad = []
    for path in (kc2_file, unit_a, coeff):
        out = tmp_path / ("bad_" + Path(path).name)
        out.write_text(json.dumps(_with_phi_inv_entry(_load(path), "2")))
        bad.append(str(out))
    capsys.readouterr()
    assert main(["check", bad[0], "--reproducible"]) == 1
    assert ("phi_invertible", None) in _failed_checks(capsys)
    assert main(["cohomology", *bad, "--degree", "2", "--reproducible"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["pass"] is False and "dims" not in out
    assert [c for c in out["checks"] if not c["pass"]] == [
        {"check": "cocyclic_identities", "pass": False,
         "counterexample": {"relation": "associativity maps of A, L_(k-1), A are not inverse",
                            "k": 2}}]


def test_incompatible_kinds_usage_error(tmp_path, kc2_file, capsys):
    env = tmp_path / "env.json"
    assert main(["generate", "enveloping_dual_numbers", "--out", str(env)]) == 0
    coeff = tmp_path / "m.json"
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    assert main(["ayd", str(env), str(coeff)]) == 2


def test_a_module_file_is_no_structure(tmp_path, kc2_file, capsys):
    """A module file given as STRUCTURE is a usage error (exit 2) of kind
    incompatible_kinds, also for inputs with no embedded parent to compare."""
    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    module = tmp_path / "k.json"
    write_structure(str(module), trivial_module(parse_structure(kc2_file)), "k")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in _load(coeff).items() if k != "parent"}))
    capsys.readouterr()
    for argv in (["ayd", str(module), str(bare)], ["ayd", str(module), str(coeff)],
                 ["cohomology", str(module), str(unit_a), str(bare), "--degree", "1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error [incompatible_kinds]: ") and "not a parent" in err, argv


def test_convert_roundtrip_bytes(tmp_path):
    tw = tmp_path / "tw.json"
    assert main(["generate", "twisted_dual_z2", "--out", str(tw)]) == 0
    coeff = tmp_path / "m.json"
    assert main(["generate", "trivial_contramodule", "--structure", str(tw),
                 "--out", str(coeff)]) == 0
    two = tmp_path / "m2.json"
    back = tmp_path / "m3.json"
    assert main(["convert", str(coeff), "--to", "typeII", "--out", str(two)]) == 0
    assert main(["convert", str(two), "--to", "typeI", "--out", str(back),
                 "--name", "trivialM"]) == 0
    a = _load(coeff)
    b = _load(back)
    assert a["contraaction"] == b["contraaction"]


def test_convert_accepts_only_the_documented_targets(tmp_path, capsys):
    tw, coeff = tmp_path / "tw.json", tmp_path / "m.json"
    assert main(["generate", "twisted_dual_z2", "--out", str(tw)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", str(tw),
                 "--out", str(coeff)]) == 0
    capsys.readouterr()
    assert main(["convert", str(coeff), "--to", "type_I"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [usage]: --to must be typeI or typeII\n"


def test_cohomology_command(tmp_path, kc2_file, capsys):
    unit_a = tmp_path / "unitA.json"
    coeff = tmp_path / "m.json"
    assert main(["generate", "unit_algebra", "--structure", kc2_file,
                 "--out", str(unit_a)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    assert main(["cohomology", kc2_file, str(unit_a), str(coeff),
                 "--degree", "4", "--theory", "cyclic", "--reproducible"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [1, 0, 1, 0, 1]
    assert main(["cohomology", kc2_file, str(unit_a), str(coeff),
                 "--degree", "3", "--theory", "hochschild",
                 "--reproducible"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [1, 0, 0, 0]


def test_generate_group_table_file(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(cyclic_group_table(3)))
    out = tmp_path / "kC3.json"
    assert main(["generate", "group_algebra", "--table", str(table),
                 "--out", str(out)]) == 0
    assert main(["check", str(out), "--reproducible"]) == 0
    bad_table = tmp_path / "bad.json"
    bad_table.write_text(json.dumps([[0, 1], [1, 1]]))
    assert main(["generate", "group_algebra", "--table", str(bad_table)]) == 2


def test_generate_enveloping_over_noncommutative_base(tmp_path):
    # T2, the upper-triangular 2x2 matrices (basis e11, e12, e22)
    mult = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        mult[i][j][k] = "1"
    base = tmp_path / "t2.json"
    base.write_text(json.dumps({"dim": 3, "mult": mult, "unit": ["1", "0", "1"]}))
    out = tmp_path / "t2e.json"
    assert main(["generate", "enveloping", "--base", str(base), "--field", "GFp",
                 "--out", str(out)]) == 0
    assert main(["check", str(out), "--reproducible"]) == 0


def test_malformed_max_dim_is_usage_error(tmp_path, kc2_file, monkeypatch, capsys):
    unit_a = tmp_path / "unitA.json"
    coeff = tmp_path / "m.json"
    assert main(["generate", "unit_algebra", "--structure", kc2_file,
                 "--out", str(unit_a)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    monkeypatch.setenv("QHA_MAX_DIM", "4k")
    assert main(["cohomology", kc2_file, str(unit_a), str(coeff),
                 "--degree", "1", "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert "error [usage]" in err and "'4k'" in err


def test_negative_degree_is_usage_error(tmp_path, kc2_file, capsys):
    unit_a = tmp_path / "unitA.json"
    coeff = tmp_path / "m.json"
    assert main(["generate", "unit_algebra", "--structure", kc2_file,
                 "--out", str(unit_a)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", kc2_file,
                 "--out", str(coeff)]) == 0
    args = ["cohomology", kc2_file, str(unit_a), str(coeff), "--reproducible", "--degree"]
    assert main(args + ["0"]) == 0
    capsys.readouterr()
    assert main(args + ["-1"]) == 2
    assert "error [usage]: --degree must be at least 0" in capsys.readouterr().err


def _zero_dim_algebroid(doc):
    """The document of an algebroid of dimension 0 over the same base."""
    r = doc["base"]["dim"]
    doc.update({key: [] for key in ("mult", "unit", "s_l", "t_l", "s_r", "t_r", "delta_l_lift",
                                    "delta_r_lift", "antipode", "antipode_inv")})
    doc.update({key: [[] for _ in range(r)] for key in ("eps_l", "eps_r")})
    doc["dim"] = 0


@pytest.mark.parametrize("where, change", [
    ("$.dim", _zero_dim_algebroid),
    ("$.dim", lambda doc: doc.update(dim=-1)),
    ("$.base.dim", lambda doc: doc["base"].update(dim=0)),
], ids=["dim-0", "dim-negative", "base-dim-0"])
def test_algebroid_nonpositive_dim_is_dimension_mismatch(tmp_path, capsys, where, change):
    doc = serialize(enveloping_algebroid(base_ring_dual_numbers(F5)), "env")
    change(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--reproducible"]) == 2
    assert ("error [dimension_mismatch]: dimension_mismatch at %s: dim must be positive"
            % where) in capsys.readouterr().err


def test_generate_twisted_from_files(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(cyclic_group_table(2)))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(
        [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "-1"]]]))
    out = tmp_path / "tw.json"
    assert main(["generate", "twisted_dual", "--table", str(table),
                 "--omega", str(omega), "--out", str(out)]) == 0
    assert main(["check", str(out), "--reproducible"]) == 0


def test_parent_mismatch_detected(tmp_path, kc2_file):
    coeff = tmp_path / "m.json"
    main(["generate", "trivial_contramodule", "--structure", kc2_file,
          "--out", str(coeff)])
    other = tmp_path / "kC3.json"
    table = tmp_path / "t.json"
    table.write_text(json.dumps(cyclic_group_table(3)))
    main(["generate", "group_algebra", "--table", str(table), "--out", str(other)])
    assert main(["ayd", str(other), str(coeff)]) == 2


def test_roundtrip_module_algebra(tmp_path, kc2_file):
    H = parse_structure(kc2_file)
    from qha.cyclic import unit_algebra
    A = unit_algebra(H)
    path = tmp_path / "a.json"
    write_structure(str(path), A, "unitA")
    A2 = parse_structure(str(path))
    assert serialize(A2, "unitA") == serialize(A, "unitA")
    A3 = parse_structure(str(path), parent=H)
    assert A3.mult == A.mult and A3.unit == A.unit


def test_roundtrip_module_kind(tmp_path, kc2_file):
    H = parse_structure(kc2_file)
    from qha.quasihopf import regular_module
    V = regular_module(H)
    path = tmp_path / "m.json"
    write_structure(str(path), V, "reg")
    V2 = parse_structure(str(path))
    assert all(a == b for a, b in zip(V.mats, V2.mats))


def test_cohomology_command_algebroid(tmp_path, capsys):
    from qha.algebroid import enveloping_algebroid, base_ring_dual_numbers, \
        base_module
    from qha.coefficients import Contramodule, ALGEBROID_MU
    from qha.linalg import Matrix
    H = enveloping_algebroid(base_ring_dual_numbers(F5))
    struct = tmp_path / "env.json"
    write_structure(str(struct), H, "env")
    alg_file = tmp_path / "unitA.json"
    assert main(["generate", "unit_algebra", "--structure", str(struct),
                 "--out", str(alg_file)]) == 0
    M = Contramodule(base_module(H),
                     Matrix(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0,
                                       0, 0, 0, 0, 1, 0, 0, 0]), ALGEBROID_MU)
    coeff = tmp_path / "m.json"
    write_structure(str(coeff), M, "stableM")
    assert main(["ayd", str(struct), str(coeff), "--reproducible"]) == 0
    capsys.readouterr()
    assert main(["cohomology", str(struct), str(alg_file), str(coeff),
                 "--degree", "2", "--theory", "cyclic", "--reproducible"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [2, 0, 2]


# -- golden report digests -------------------------------------------------------
#
# sha256 of each --reproducible report (and of the converted coefficient
# file) for small versions of the structures of the cli-Q benchmark
# session.  Reports must stay byte-identical across refactors, so a digest
# changes only with an intended change of output.

GOLDEN_REPORTS = {
    "check kS3": "9931df228e8713168aa14ed9ce83c3f9cd5bd7f7114b50a6435ce1d4e7b0b16c",
    "check env": "67760c41161c39a93990595889d46c37f370aa6c71cad59cf469a9d07780f0ac",
    "check tw": "985fe911f8493feb82e6b28e9eccf581a69a4b3287fe7b9d01c85da69804c50c",
    "ayd kS3": "8f3b623cf929cd2328fbe5a7b628ea3d12bae0c4c0dc2ab2ced1334672fde647",
    "stability kS3": "77b65fbd6b93b000dfc479176ce2260032cad6989abe30408b60b5fe30ef6982",
    "ayd env": "772e188acf18190572e476cff78c0702ffa1a29943af20dc1d093edc1ef743c2",
    "stability env": "87213d45f0561f255ba53b81b28ac36c486361e0c3cd370c90dd08f2f3beed6a",
    "ayd tw typeI": "54be2bc3be9585251197beb2003ee8274b1c09ba57e1e9207d564110d9bb0be3",
    "convert typeII": "c8607c9572f70fa31a5287967da81b9da294881a181cabd7d0b37eaef031723d",
    "ayd tw typeII": "1b91006afcd1619b2b7cdb97d5f803827544eeb8996e80b4c3e8bfb560a8459d",
    "stability tw typeII": "fc46a923c418144e3f8ccd581476c6319a6a138557be2752771d02648eaff47f",
    "cohomology env cyclic":
        "6d28eb1a83cf2f38d94818bef146ac6e46bc2f3de4869ba0ef09e856d8337822",
    "cohomology env hochschild":
        "291862365702905f55416dc77eaaad9595254c6123aaca5bd1dd20ac7eea0301",
    "cohomology tw cyclic":
        "528b6f763c2db152983da2a9f21b0f4aff47e517b65fcb477cdbb0e27a5b1e37",
    "cohomology tw hochschild":
        "cdb36f622e1c8eaa18b2911884708fe7d5eb82296bdee733723a38a0fc9d2145",
}


def _golden_inputs():
    from qha.algebroid import base_module
    from qha.coefficients import ALGEBROID_MU
    from qha.linalg import Matrix
    for argv in (["group_algebra", "--symmetric", "3", "--out", "kS3.json"],
                 ["enveloping_dual_numbers", "--out", "env.json"],
                 ["twisted_dual_z2", "--out", "tw.json"],
                 ["trivial_contramodule", "--structure", "kS3.json", "--out", "kS3M.json"],
                 ["trivial_contramodule", "--structure", "tw.json", "--out", "twM.json"],
                 ["unit_algebra", "--structure", "env.json", "--out", "envA.json"],
                 ["unit_algebra", "--structure", "tw.json", "--out", "twA.json"]):
        assert main(["generate"] + argv) == 0
    env = parse_structure("env.json")
    f = env.field
    mu = Matrix(f, 2, 8, [f.from_int(x) for x in
                          (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0)])
    write_structure("envM.json", Contramodule(base_module(env), mu, ALGEBROID_MU),
                    "stableM")


def test_golden_report_digests(tmp_path, monkeypatch, capsys):
    import hashlib
    monkeypatch.chdir(tmp_path)
    _golden_inputs()
    capsys.readouterr()
    runs = {
        "check kS3": ["check", "kS3.json"],
        "check env": ["check", "env.json"],
        "check tw": ["check", "tw.json"],
        "ayd kS3": ["ayd", "kS3.json", "kS3M.json"],
        "stability kS3": ["stability", "kS3.json", "kS3M.json"],
        "ayd env": ["ayd", "env.json", "envM.json"],
        "stability env": ["stability", "env.json", "envM.json"],
        "ayd tw typeI": ["ayd", "tw.json", "twM.json"],
        "ayd tw typeII": ["ayd", "tw.json", "twM2.json"],
        "stability tw typeII": ["stability", "tw.json", "twM2.json"],
        "cohomology env cyclic": ["cohomology", "env.json", "envA.json", "envM.json",
                                  "--degree", "3", "--theory", "cyclic"],
        "cohomology env hochschild": ["cohomology", "env.json", "envA.json", "envM.json",
                                      "--degree", "3", "--theory", "hochschild"],
        "cohomology tw cyclic": ["cohomology", "tw.json", "twA.json", "twM.json",
                                 "--degree", "3", "--theory", "cyclic"],
        "cohomology tw hochschild": ["cohomology", "tw.json", "twA.json", "twM.json",
                                     "--degree", "3", "--theory", "hochschild"],
    }
    digests = {}
    assert main(["convert", "twM.json", "--to", "typeII", "--out", "twM2.json"]) == 0
    digests["convert typeII"] = hashlib.sha256(
        (tmp_path / "twM2.json").read_bytes()).hexdigest()
    for label, argv in runs.items():
        assert main(argv + ["--reproducible"]) == 0, label
        digests[label] = hashlib.sha256(
            capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == GOLDEN_REPORTS


def test_cohomology_reports_stable_non_ayd_coefficient_as_failed_check(tmp_path, capsys):
    # H = kS3, A = kS3 with the adjoint action g.x = g x g^-1, and M = k with
    # mu(f) = f(e_1), evaluation at a transposition: stable but not aYD
    from qha.fields import rationals
    from qha.linalg import Matrix
    from qha.quasihopf import group_algebra, symmetric_group_table, HModule
    from qha.cyclic import ModuleAlgebra
    QQ = rationals()
    table = symmetric_group_table(3)
    n = len(table)
    H = group_algebra(QQ, table, "kS3")
    inv = [next(h for h in range(n) if table[g][h] == 0) for g in range(n)]

    def basis_map(image):
        return Matrix.from_cols(QQ, [[QQ.one if k == image(x) else QQ.zero
                                      for k in range(n)] for x in range(n)])

    adjoint = HModule(H, [basis_map(lambda x, g=g: table[table[g][x]][inv[g]])
                          for g in range(n)], name="adjoint")
    mult = Matrix.from_cols(QQ, [[QQ.one if k == table[x][y] else QQ.zero for k in range(n)]
                                 for x in range(n) for y in range(n)])
    unit = Matrix.from_cols(QQ, [[QQ.one if k == 0 else QQ.zero for k in range(n)]])
    mu = Matrix(QQ, 1, n, [QQ.zero, QQ.one] + [QQ.zero] * (n - 2))
    paths = [str(tmp_path / name) for name in ("kS3.json", "adjoint.json", "ev.json")]
    write_structure(paths[0], H, "kS3")
    write_structure(paths[1], ModuleAlgebra(adjoint, mult, unit), "adjoint")
    write_structure(paths[2], Contramodule(trivial_module(H), mu, HOPF_MU), "evTransposition")
    assert main(["stability"] + paths[::2] + ["--reproducible"]) == 0
    assert main(["ayd"] + paths[::2] + ["--reproducible"]) == 1
    capsys.readouterr()
    assert main(["cohomology"] + paths + ["--degree", "2", "--reproducible"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False and "dims" not in out
    assert [(c["check"], c["pass"], c["counterexample"]) for c in out["checks"]] == [
        ("algebra_object", True, None), ("coefficient_stable", True, None),
        ("cocyclic_identities", False,
         {"relation": "tau is not H-linear; aYD condition fails"})]


def test_report_out_file_holds_the_stdout_bytes(tmp_path, kc2_file, capsys):
    for extra in ([], ["--pretty"]):
        capsys.readouterr()
        assert main(["check", kc2_file, "--reproducible"] + extra) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.txt"
        assert main(["check", kc2_file, "--reproducible", "--out", str(report)] + extra) == 0
        assert capsys.readouterr().out == ""
        assert report.read_bytes() == printed.encode("utf-8")


def test_pretty_lists_counterexamples_by_name_and_dims(tmp_path, kc2_file, capsys):
    doc = _load(kc2_file)
    doc["counit"] = ["1", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad), "--reproducible", "--pretty"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL counit_algebra_map  at i=1, j=1", "FAIL counit  at a=1",
        "FAIL alpha_axiom  at h=1", "FAIL beta_axiom  at h=1"]
    assert lines[-1] == "result: FAIL"

    # a quasi_contra witness is rendered with its indices in quantifier order
    tw, coeff = tmp_path / "tw.json", tmp_path / "m.json"
    assert main(["generate", "twisted_dual_z2", "--out", str(tw)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", str(tw),
                 "--out", str(coeff)]) == 0
    doc = _load(coeff)
    doc["contraaction"] = [[["1", "2"]]]
    coeff.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["ayd", str(tw), str(coeff), "--reproducible", "--pretty"]) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        "ok   ayd_type_I",
        "FAIL quasi_contra_I  at f_row=0, f_col=1, f_outer=1, coord=0",
        "ok   contra_unit_I", "result: FAIL"]

    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    capsys.readouterr()
    assert main(["cohomology", kc2_file, str(unit_a), str(coeff), "--degree", "3",
                 "--reproducible", "--pretty"]) == 0
    assert capsys.readouterr().out.splitlines()[4:] == [
        "ok   algebra_object", "ok   coefficient_stable", "ok   cocyclic_identities",
        "dims: [1, 0, 1, 0]", "result: PASS"]


def _canonical(path):
    return json.dumps(_load(path), sort_keys=True) + "\n"


def test_convert_to_own_flavor_and_to_stdout(tmp_path, capsys):
    tw, coeff = tmp_path / "tw.json", tmp_path / "m.json"
    assert main(["generate", "twisted_dual_z2", "--out", str(tw)]) == 0
    assert main(["generate", "trivial_contramodule", "--structure", str(tw),
                 "--out", str(coeff)]) == 0
    same = tmp_path / "same.json"
    assert main(["convert", str(coeff), "--to", "typeI", "--out", str(same),
                 "--name", "trivialM"]) == 0
    assert same.read_bytes() == coeff.read_bytes()
    two = tmp_path / "m2.json"
    assert main(["convert", str(coeff), "--to", "typeII", "--out", str(two)]) == 0
    capsys.readouterr()
    assert main(["convert", str(coeff), "--to", "typeII"]) == 0
    assert capsys.readouterr().out == _canonical(two)


def test_generate_to_stdout_equals_the_out_file(tmp_path, capsys):
    for argv in (["group_algebra", "--cyclic", "2"], ["twisted_dual_z2"],
                 ["enveloping_dual_numbers", "--field", "GFp", "--p", "3"]):
        out = tmp_path / "gen.json"
        assert main(["generate"] + argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["generate"] + argv) == 0
        assert capsys.readouterr().out == _canonical(out)


def test_module_algebra_unit_as_flat_list(tmp_path):
    from qha.quasihopf import twisted_dual_group_algebra, z2_nontrivial_cocycle
    from qha.structures import content_hash
    from conftest import QQ, graded_dual_numbers
    H = twisted_dual_group_algebra(QQ, cyclic_group_table(2), z2_nontrivial_cocycle(QQ))
    path, flat = tmp_path / "a.json", tmp_path / "flat.json"
    write_structure(str(path), graded_dual_numbers(H, 1), "A")
    doc = _load(path)
    assert doc["unit"] == [["1"], ["0"]]
    doc["unit"] = ["1", "0"]
    flat.write_text(json.dumps(doc))
    for parent in (None, H):
        A, B = parse_structure(str(path), parent), parse_structure(str(flat), parent)
        assert B.carrier.mats == A.carrier.mats and (B.mult, B.unit) == (A.mult, A.unit)
        assert content_hash(B, "A") == content_hash(A, "A")
        assert serialize(B, "A") == serialize(A, "A")
        assert serialize(B, "A")["unit"] == [["1"], ["0"]]


# -- one parser per process: each call reads the command anew -------------------

def test_the_parser_is_built_once():
    from qha.cli import build_parser
    assert build_parser() is build_parser()


def test_a_repeated_command_gives_the_same_bytes(tmp_path, kc2_file, capsys):
    unit_a, coeff = _kc2_cohomology_inputs(tmp_path, kc2_file)
    argv = ["cohomology", kc2_file, str(unit_a), str(coeff), "--degree", "2",
            "--reproducible"]
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == ""


def _outcome(argv, capsys):
    """The exit code of main(argv), an argparse exit included, and what it
    printed."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_errors_and_successes_leave_later_calls_unchanged(tmp_path, kc2_file, capsys):
    named = tmp_path / "named.json"
    calls = [
        ["check", kc2_file, "--reproducible"],
        ["check", kc2_file, "--bogus"],                        # argparse: exit 2
        ["cohomology", kc2_file, kc2_file, kc2_file, "--degree", "x"],
        ["convert", kc2_file, "--to", "typeII"],                # UsageError: exit 2
        ["generate", "group_algebra", "--cyclic", "2", "--name", "named",
         "--out", str(named)],
        ["generate", "group_algebra", "--cyclic", "2"],         # the default name again
    ]
    capsys.readouterr()
    first = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 2, 2, 0, 0]
    assert "unrecognized arguments: --bogus" in first[1][2]
    assert "invalid int value: 'x'" in first[2][2]
    assert first[3][2] == "error [usage]: convert expects a contramodule file\n"
    assert json.loads(first[5][1])["name"] == "kC2"
    # every call again, in reverse order, and then in order
    again = [_outcome(argv, capsys) for argv in reversed(calls)][::-1]
    assert again == first
    assert [_outcome(argv, capsys) for argv in calls] == first


@pytest.mark.parametrize("argv", [["--help"], ["cohomology", "--help"]])
def test_help_is_that_of_a_new_parser(argv, kc2_file, capsys, monkeypatch):
    from qha.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    assert main(["check", kc2_file, "--reproducible"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    fresh = capsys.readouterr().out
    assert fresh.startswith("usage: qha")
    for _ in range(2):
        assert _outcome(argv, capsys) == (0, fresh, "")


def test_a_rebound_command_is_the_one_that_runs(kc2_file, monkeypatch, capsys):
    """main looks cmd_* up when it is called, as a tracer that rebinds the
    module's functions needs."""
    import qha.cli
    assert main(["check", kc2_file, "--reproducible"]) == 0
    seen = []

    def patched(args):
        seen.append(args.structure)
        return 7
    monkeypatch.setattr(qha.cli, "cmd_check", patched)
    assert main(["check", kc2_file]) == 7
    assert seen == [kc2_file]
    monkeypatch.undo()
    assert main(["check", kc2_file, "--reproducible"]) == 0 and seen == [kc2_file]
