"""Run one workload of the qha benchmark and print its metrics.

    python3 bench/run.py --workload quasi-Q --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload is set up several times (``setup_s`` is
the median).  With ``--trace 0`` the run then makes whole passes until the
next one would end after ``--seconds`` and reports the end-to-end metrics
named in ``BENCHMARK.json``, scaled by the speed probe (see probe.py).
With ``--trace 1`` it makes one untraced pass, one pass with spans and one
that counts field arithmetic, and reports the per-layer metrics; the spans
go to ``.bench_work/``.  Every output is checked exactly in every pass.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from probe import SpeedProbe
from tracing import LayerTracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODULES = ("fields", "linalg", "quasihopf", "algebroid", "coefficients",
           "center", "cyclic", "structures", "cli")
SETUP_REPEATS = 21


def import_qha():
    """Import qha afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "qha" or n.startswith("qha.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qha")
    if Path(pkg.__file__).resolve().parent != SRC / "qha":
        raise ImportError("qha was imported from %s, not from %s" % (pkg.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("qha." + m) for m in MODULES})


class Passes:
    """Runs passes of one workload and tallies the checked operations."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self):
        """One pass, each operation after the previous one; (wall, cpu) seconds."""
        w0, c0 = time.perf_counter(), time.process_time()
        for label, op in self.workload.operations(self.state):
            self.attempted += 1
            try:
                op()
            except Exception:
                self.failed += 1
                self.failures.append("%s: %s" % (label, traceback.format_exc(limit=3)))
        return time.perf_counter() - w0, time.process_time() - c0


def set_up(workload, seed, workdir, probe):
    """Import and set up SETUP_REPEATS times; the last set-up is kept.
    Returns (qha modules, state, median set-up seconds, probe factor)."""
    start = probe.mark()
    times = []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        t0 = time.perf_counter()
        q = import_qha()
        state = workload.setup(q, seed, str(workdir))
        times.append(probe.net(mark, time.perf_counter() - t0, 0.0)[0])
    return q, state, statistics.median(times), probe.factor(start)


def measure(passes, probe, seconds):
    """Whole passes until the next would end after ``seconds``, at least one.
    Returns the per-pass walls and CPU times scaled by the probe, then
    both unscaled."""
    walls, cpus, raw_walls, raw_cpus = [], [], [], []
    t_start = time.perf_counter()
    while True:
        mark = probe.mark()
        wall, cpu = probe.net(mark, *passes.run())
        factor = probe.factor(mark)
        raw_walls.append(wall)
        raw_cpus.append(cpu)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        if time.perf_counter() - t_start + statistics.median(raw_walls) > seconds:
            return walls, cpus, raw_walls, raw_cpus


def trace(passes, q, path, extra):
    """An untraced reference pass, a pass with spans, and a pass counting
    Field arithmetic; writes the spans to ``path``, returns the metrics."""
    ref_wall, _ = passes.run()
    tracer = LayerTracer()
    tracer.install(vars(q))
    try:
        traced_wall, _ = passes.run()
    finally:
        tracer.uninstall()
    tracer.install_field_counts(q.fields.Field)
    try:
        passes.run()
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print("warning: trace target %s not found" % name)
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced_wall / ref_wall - 1.0
    tracer.write(path, dict(extra, untraced_wall_s=ref_wall, traced_wall_s=traced_wall))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "qha" / "__init__.py").is_file():
        sys.stderr.write("error: no qha sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_id = "%s-seed%d-pid%d" % (workload.name, args.seed, os.getpid())
    workdir = WORK / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        q, state, setup_s, setup_factor = set_up(workload, args.seed, workdir, probe)
        passes = Passes(workload, state)
        if args.trace:
            path = WORK / ("trace-%s.json" % run_id)
            values = trace(passes, q, path, {"workload": workload.name, "seed": args.seed})
            for name in sorted(values):
                print("layer %-44s %s" % (name, values[name]))
            print("trace written to %s" % path)
            wanted = spec["per_layer"]
        else:
            walls, cpus, raw_walls, raw_cpus = measure(passes, probe, args.seconds)
            probe.stop()
            values = {"wall_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus),
                      "setup_s": setup_s * setup_factor,
                      "peak_rss_mib":
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            print("unscaled medians: wall_s %.6f cpu_s %.6f setup_s %.6f; probe unit %.3f ms"
                  % (statistics.median(raw_walls), statistics.median(raw_cpus), setup_s,
                     1000 * statistics.mean(probe.unit_cpu)))
            samples = {"wall_s": "median of %d passes" % len(walls),
                       "cpu_s": "median of %d passes" % len(cpus),
                       "setup_s": "median of %d set-ups" % SETUP_REPEATS,
                       "peak_rss_mib": "1 process"}
            wanted = spec["end_to_end"]
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in passes.failures:
        print("FAILED %s" % msg)
    print("failed_frac %s (%d failed of %d operations)"
          % (passes.failed / passes.attempted, passes.failed, passes.attempted))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if not args.trace:
        for name, m in metrics.items():
            print("metric %-14s %.6f %s (%s)" % (name, m["value"], m["unit"], samples[name]))
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
