"""Each input of a cocyclic build is checked once per object.

``check_algebra_object(A)`` and ``check_stability(M)`` record their verdict
on the object they checked, once the whole report is built.
``build_cocyclic`` reads the recorded verdicts, and checks an input that
was never checked itself.  A failing input is refused either way.
"""

import pytest

import qha.cli
import qha.coefficients
import qha.cyclic
from qha.algebroid import enveloping_algebroid, base_ring_dual_numbers
from qha.cli import main
from qha.coefficients import QUASI_I, convert_I_to_II
from qha.quasihopf import StructureError
from qha.structures import write_structure
from qha.cyclic import ModuleAlgebra, build_cocyclic, unit_algebra

from conftest import QQ
from test_cyclic import functions_algebra, dual_numbers_algebra_trivial_over, unit_coefficient
from test_shared_constructions import env_coefficient

STABILITY_CHECKS = ("check_stability_hopf", "check_stability_quasi", "check_stability_algebroid")


@pytest.fixture()
def calls(monkeypatch):
    """Counts of the calls of check_algebra_object and of the three flavors'
    stability checks, in every module that binds them."""
    counts = {"algebra": 0, "stability": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper
    algebra_check = counted(qha.cyclic.check_algebra_object, "algebra")
    for mod in (qha.cyclic, qha.cli):
        monkeypatch.setattr(mod, "check_algebra_object", algebra_check)
    for name in STABILITY_CHECKS:
        monkeypatch.setattr(qha.coefficients, name,
                            counted(getattr(qha.coefficients, name), "stability"))
    return counts


def _inputs(which, twisted_q, kc2_q):
    if which == "hopf":
        return functions_algebra(kc2_q), unit_coefficient(kc2_q)
    if which == "quasi_I":
        return dual_numbers_algebra_trivial_over(twisted_q), unit_coefficient(twisted_q, QUASI_I)
    if which == "quasi_II":
        return (dual_numbers_algebra_trivial_over(twisted_q),
                convert_I_to_II(unit_coefficient(twisted_q, QUASI_I)))
    env = enveloping_algebroid(base_ring_dual_numbers(QQ))
    return unit_algebra(env), env_coefficient(env)


FLAVORS = ["hopf", "quasi_I", "quasi_II", "algebroid"]


@pytest.mark.parametrize("which", FLAVORS)
def test_checked_inputs_are_not_checked_again(which, calls, twisted_q, kc2_q):
    A, M = _inputs(which, twisted_q, kc2_q)
    assert qha.cyclic.check_algebra_object(A).passed
    assert qha.coefficients.check_stability(M).passed
    assert calls == {"algebra": 1, "stability": 1}
    dims = [build_cocyclic(A, M, 2).dim(n) for n in range(3)]
    assert calls == {"algebra": 1, "stability": 1}
    # a second pair of the same inputs, never checked: the build checks it once
    B, N = _inputs(which, twisted_q, kc2_q)
    assert [build_cocyclic(B, N, 2).dim(n) for n in range(3)] == dims
    assert calls == {"algebra": 2, "stability": 2}
    build_cocyclic(B, N, 2)
    assert calls == {"algebra": 2, "stability": 2}
    assert A.axioms_passed and M.stability_passed and B.axioms_passed and N.stability_passed


@pytest.mark.parametrize("checked_first", [False, True])
def test_failing_inputs_are_refused_either_way(checked_first, calls, kc2_q):
    A, M = functions_algebra(kc2_q), unit_coefficient(kc2_q)
    doubled = ModuleAlgebra(A.carrier, A.mult.scale(QQ.from_int(2)), A.unit)
    scaled = M.scaled(QQ.from_int(2))
    if checked_first:
        assert not qha.cyclic.check_algebra_object(doubled).passed
        assert not qha.coefficients.check_stability(scaled).passed
    for _ in range(2):
        with pytest.raises(StructureError, match="the algebra object fails its axioms"):
            build_cocyclic(doubled, M, 2)
        with pytest.raises(StructureError, match="the coefficient contramodule is not stable"):
            build_cocyclic(A, scaled, 2)
    # doubled, A and scaled were checked once each; the refusal of doubled
    # comes before M's check
    assert calls == {"algebra": 2, "stability": 1}
    assert "stability_passed" not in vars(M)


def test_a_check_that_raises_records_nothing(monkeypatch, kc2_q):
    A = functions_algebra(kc2_q)

    def interrupted(*args):
        raise RuntimeError("interrupted")
    with monkeypatch.context() as m:
        m.setattr(qha.cyclic, "is_intertwiner", interrupted)
        with pytest.raises(RuntimeError):
            qha.cyclic.check_algebra_object(A)
    assert "axioms_passed" not in vars(A)
    assert qha.cyclic.check_algebra_object(A).passed and A.axioms_passed


def test_the_cohomology_command_checks_each_input_once(tmp_path, calls, kc2_q, capsys):
    paths = [str(tmp_path / name) for name in ("H.json", "A.json", "M.json")]
    for path, obj in zip(paths, (kc2_q, unit_algebra(kc2_q), unit_coefficient(kc2_q))):
        write_structure(path, obj, "x")
    assert main(["cohomology", *paths, "--degree", "2", "--reproducible"]) == 0
    assert calls == {"algebra": 1, "stability": 1}
