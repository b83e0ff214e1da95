"""Every callable that the bench tracer wraps exists in the package.

``bench/tracing.py`` names its span targets as (module, attribute path)
pairs in ``SPAN_GROUPS``; a target that no longer resolves is skipped there
with only a "missing trace target" line, and its per-layer metric reads
zero.  This test resolves every target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _span_groups():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPAN_GROUPS


def _target(mod_name, path):
    owner = importlib.import_module("qha." + mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def _resolves(mod_name, path):
    return callable(_target(mod_name, path))


def test_every_span_target_resolves():
    targets = [t for group in _span_groups().values() for t in group]
    assert targets
    assert [".".join(t) for t in targets if not _resolves(*t)] == []


def test_no_function_is_a_target_of_two_groups():
    """The tracer wraps a function under every name bound to it, so one
    function named by two groups (an alias) is counted in both."""
    groups = {}
    for group, targets in _span_groups().items():
        for t in targets:
            groups.setdefault(id(_target(*t)), set()).add(group)
    assert [g for g in groups.values() if len(g) > 1] == []
