"""Tests of the benchmark itself (not of qha).

    python3 -m pytest bench -q

Traced runs of one seed must repeat every counter exactly, also under a
different hash seed, and must show the layer profile the workloads were
chosen for.  A checkout without the qha sources must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("quasi-Q", "hopf-GF7", "cli-Q")
EXACT_SUFFIXES = (".calls", ".entries", ".bytes")
EXACT_NAMES = ("fields.ops", "fields.inv", "linalg.mul.nonzeros", "center.tau.misses",
               "cyclic.cochain_dim", "cyclic.ambient_dim", "cli.exit_nonzero")
ONLY_ON_CLI = ("algebroid.", "structures.", "cli.")


def start_traced(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_traced(proc):
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out
    path = next(l for l in lines if l.startswith("trace written to ")).split(" to ", 1)[1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)
    return doc["metrics"]


def counters(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    procs = [start_traced(workload, hash_seed) for hash_seed in (1, 2)]
    first, second = [finish_traced(p) for p in procs]
    assert counters(first) == counters(second)

    for name, value in counters(first).items():
        if name.endswith(".calls") and name.startswith(ONLY_ON_CLI):
            if workload == "cli-Q":
                assert value > 0, name
            else:
                assert value == 0, name
    if workload == "quasi-Q":
        assert first["center.iota_apply.total_s"] > 0.5 * first["cyclic.build.total_s"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quasi-Q", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
