"""A qha command runs in one build scope.

The parse of its files, the checks of its inputs and the cocyclic build
share every tensor product, relation space and Hom module they ask for,
and the scope is closed when the command returns.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from qha import algebroid, quasihopf, structures
from qha.algebroid import base_module, base_ring_dual_numbers, enveloping_algebroid
from qha.cli import main
from qha.coefficients import ALGEBROID_MU, Contramodule
from qha.cyclic import unit_algebra
from qha.linalg import Matrix
from qha.structures import write_structure

from conftest import QQ


@pytest.fixture()
def env_files(tmp_path):
    """The enveloping algebroid of the dual numbers over Q, its unit algebra
    and a stable contramodule on its base, as structure files."""
    env = enveloping_algebroid(base_ring_dual_numbers(QQ))
    mu = Matrix(QQ, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])
    objs = {"env": (env, "env"), "alg": (unit_algebra(env), "unitA"),
            "mu": (Contramodule(base_module(env), mu, ALGEBROID_MU), "stableM")}
    paths = {}
    for key, (obj, name) in objs.items():
        paths[key] = str(tmp_path / (key + ".json"))
        write_structure(paths[key], obj, name)
    return paths


def test_cohomology_builds_each_relation_space_once(env_files, monkeypatch):
    """The base relations of R (x) R and of the tensor powers of A = R are
    read by the parse, the algebra-object check, the stability check and
    the build; in one scope they are built once each: two spaces."""
    calls = []
    real = algebroid._relation_space

    def counting(*args):
        calls.append(args[2:])
        return real(*args)
    monkeypatch.setattr(algebroid, "_relation_space", counting)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["cohomology", env_files["env"], env_files["alg"], env_files["mu"],
                     "--degree", "3", "--reproducible"])
    assert code == 0
    assert json.loads(out.getvalue())["dims"] == [2, 0, 2, 0]
    assert len(calls) == 2
    # the scope is closed again when the command returns
    assert quasihopf._build_memo.get() is None


def test_cohomology_serialises_its_parent_once(env_files, monkeypatch):
    """The two embedded parents are compared with, and the three input
    records hash, one canonical JSON of the supplied parent."""
    calls = []
    real = structures._document

    def counting(obj, name):
        calls.append(type(obj).__name__)
        return real(obj, name)
    monkeypatch.setattr(structures, "_document", counting)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["cohomology", env_files["env"], env_files["alg"], env_files["mu"],
                     "--degree", "1", "--reproducible"])
    assert code == 0
    assert calls == ["HopfAlgebroid", "ModuleAlgebra", "Contramodule"]


def test_a_failing_command_closes_its_scope(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["check", missing]) == 2
    assert quasihopf._build_memo.get() is None
