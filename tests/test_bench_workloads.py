"""One checked pass of every benchmark workload, run from the source tree.

``python -m pytest bench`` runs outside the Tier-1 suite, so this keeps the
package API that ``bench/workloads.py`` builds its inputs with (module
constructors, ``ModuleAlgebra.is_algebroid``, ``tensor_over_base``, the
``qha`` command) under Tier-1.  Every operation of a pass checks its own
output exactly and raises when it differs.  Seed 0 is the canonical input;
seed 1 also runs the change of basis of the algebra objects, which is the
only place the workloads read ``is_algebroid`` and ``tensor_over_base``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


class _Package:
    """The qha modules as attributes, as bench/run.py hands them over."""

    def __getattr__(self, name):
        return importlib.import_module("qha." + name)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_workloads()))
def test_one_checked_pass(name, seed, tmp_path):
    workload = _workloads()[name]
    state = workload.setup(_Package(), seed, str(tmp_path))
    labels = []
    for label, op in workload.operations(state):
        op()
        labels.append(label)
    assert labels
