"""Golden digests of ``qha check --reproducible`` over every generate target.

Each case generates a structure with ``qha generate`` and pins the sha256
of its check report.  The digests were recorded with the element-by-element
axiom checks, so they show that the matrix form of the suites keeps every
check id, its order, its status and every counterexample byte for byte.
One case (a 3-cochain that is not a cocycle) fails, so a witness is pinned
too.
"""

import hashlib
import json

import pytest

from qha.cli import main

# a Klein four-group, written as a table file
KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
Z2 = [[0, 1], [1, 0]]
Z2_COCYCLE = [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "-1"]]]
Z2_NOT_COCYCLE = [[["1", "1"], ["1", "1"]], [["1", "2"], ["1", "1"]]]
# the upper-triangular 2x2 matrices: basis e11, e12, e22
T2 = {"dim": 3,
      "mult": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
               [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
               [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]],
      "unit": ["1", "0", "1"]}

SIDE_FILES = {"klein.json": KLEIN, "z2.json": Z2, "omega.json": Z2_COCYCLE,
              "bad_omega.json": Z2_NOT_COCYCLE, "t2.json": T2}

# label: (generate arguments, exit code of check, sha256 of the report)
GOLDEN_CHECKS = {
    "group_algebra --cyclic 4": (
        ["group_algebra", "--cyclic", "4"], 0,
        "17a457778888746073a59f54b885ecc81c24d9c9452154f54e0398d687d6c8c4"),
    "group_algebra --symmetric 3 GF(5)": (
        ["group_algebra", "--symmetric", "3", "--field", "GFp", "--p", "5"], 0,
        "a59e7f9f707dc5f05b71df56f23b22dff6b011ab8bc44c5970d5a0d4590a6e6d"),
    "group_algebra --symmetric 4": (
        ["group_algebra", "--symmetric", "4"], 0,
        "66760bb05ceff927438e9db79052864ee482e08a91f90c3cf0c506d6ce02faf9"),
    "group_algebra --table": (
        ["group_algebra", "--table", "klein.json"], 0,
        "1e77a92f45378a77a4e4eaba5beb08a00b0dc57b6c55dd53917a5f7f1ee7be16"),
    "sweedler_h4": (
        ["sweedler_h4"], 0,
        "fea780ff4d1aba29744ca1de00721b1abeb17a9e5d9c40fe45e7612c46e602c0"),
    "sweedler_h4 GF(3)": (
        ["sweedler_h4", "--field", "GFp", "--p", "3"], 0,
        "d6247917da4c5a925171792d08a93498baeb6e8db155b38572faa8099cd994f3"),
    "twisted_dual_z2": (
        ["twisted_dual_z2"], 0,
        "9924085ba4c5d139ec91551e6e1a0c19fc023d27346fc803a80c9d4728a0c0b5"),
    "twisted_dual_z3 GF(7)": (
        ["twisted_dual_z3", "--field", "GFp", "--p", "7"], 0,
        "fd33e82639f001ff8f0f23953b65e7ef1cdc0b19995e265a2f442bd208396ce1"),
    "twisted_dual": (
        ["twisted_dual", "--table", "z2.json", "--omega", "omega.json"], 0,
        "3599006e514578ff25e1abeb512bf61e57cad5ef6864c1190631a3dec329a5d9"),
    "twisted_dual not a cocycle": (
        ["twisted_dual", "--table", "z2.json", "--omega", "bad_omega.json",
         "--field", "GFp", "--p", "5"], 1,
        "c3917b3f4a9df8d1946ad470cbbc17f7a58183e7a890a51476d5843d5ca957b3"),
    "enveloping_dual_numbers": (
        ["enveloping_dual_numbers"], 0,
        "2d846d754aa969b37b10991d6f95f0c743d9127f70b33bfb1b2564d12bcb5542"),
    "enveloping_dual_numbers GF(5)": (
        ["enveloping_dual_numbers", "--field", "GFp", "--p", "5"], 0,
        "fa34899a7213de69fb619be1b0bc65464cd5a4869c41343fd564dcbb0f5a1b77"),
    "enveloping": (
        ["enveloping", "--base", "t2.json", "--field", "GFp", "--p", "5"], 0,
        "d5cbcd13f3b1dd4d50003cc2363f64e5659b260e17982d3551ce531c4774a4c6"),
}


def _check_digest(tmp_path, capsys, argv, want_code):
    for name, doc in SIDE_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(["generate"] + argv + ["--out", "structure.json"]) == 0
    capsys.readouterr()
    assert main(["check", "structure.json", "--reproducible"]) == want_code
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN_CHECKS))
def test_check_report_digest(label, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv, code, digest = GOLDEN_CHECKS[label]
    assert _check_digest(tmp_path, capsys, argv, code) == digest
