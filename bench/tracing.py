"""Per-layer tracing of qha from outside the package.

``LayerTracer.install`` wraps the public functions of each ``qha`` module
(in every ``qha.*`` namespace that binds them) and a few methods on their
classes, so that one pass of a workload records:

* a span per wrapped call, with its parent span, kept in memory and
  written out by ``write`` when the run ends;
* per metric group: calls, self time (span time minus the time of its
  child spans) and, for groups that may nest, total time of the
  outermost spans;
* counters measured at the same boundaries (matrix entries, nonzeros,
  field operations, file bytes, cochain dimensions).

The untraced runs never call ``install``.  ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

# metric group -> (module, attribute path) of every callable it covers.
SPAN_GROUPS = {
    "linalg.mul": [("linalg", "Matrix.__mul__")],
    "linalg.kron": [("linalg", "Matrix.kron")],
    "linalg.addscale": [("linalg", "Matrix.__add__"), ("linalg", "Matrix.__sub__"),
                        ("linalg", "Matrix.scale")],
    "linalg.rref": [("linalg", "Matrix.rref")],
    "linalg.solve": [("linalg", "Matrix.solve")],
    "linalg.kernel": [("linalg", "Matrix.kernel")],
    "linalg.coordinates": [("linalg", "Subspace.coordinates")],
    "linalg.intertwiner_space": [("linalg", "intertwiner_space")],
    "quasihopf.tensor_module": [("quasihopf", "tensor_module")],
    "quasihopf.associator": [("quasihopf", "associator")],
    "quasihopf.hom_modules": [("quasihopf", "left_hom"), ("quasihopf", "right_hom")],
    "quasihopf.eval": [("quasihopf", "eval_left"), ("quasihopf", "eval_right")],
    "quasihopf.zeta_eta": [("quasihopf", n) for n in ("zeta_l", "eta_l", "zeta_r", "eta_r")],
    "quasihopf.is_intertwiner": [("quasihopf", "is_intertwiner"),
                                 ("quasihopf", "require_intertwiner")],
    "quasihopf.hom_module_morphisms": [("quasihopf", "hom_module_morphisms")],
    "quasihopf.axioms": [("quasihopf", n) for n in
                         ("validate_structure", "check_quasi_bialgebra", "check_quasi_hopf")],
    "algebroid.tensor_over_base": [("algebroid", "tensor_over_base")],
    "algebroid.hom": [("algebroid", n) for n in
                      ("left_hom_algebroid", "right_hom_algebroid",
                       "left_linear_hom_basis", "right_linear_hom_basis")],
    "algebroid.zeta_eta": [("algebroid", n) for n in
                           ("zeta_l_algebroid", "eta_l_algebroid",
                            "zeta_r_algebroid", "eta_r_algebroid")],
    "algebroid.axioms": [("algebroid", n) for n in
                         ("check_algebroid_structure", "check_left_bialgebroid",
                          "check_right_bialgebroid", "check_hopf_algebroid")],
    "coefficients.tau": [("coefficients", "tau_from_contramodule")],
    "coefficients.checks": [("coefficients", n) for n in
                            ("check_contramodule_hopf", "check_ayd_hopf",
                             "check_stability_hopf", "check_ayd_quasi_I",
                             "check_ayd_quasi_II", "check_stability_quasi",
                             "check_contramodule_algebroid", "check_ayd_algebroid",
                             "check_stability_algebroid")],
    "coefficients.convert": [("coefficients", "convert_I_to_II"),
                             ("coefficients", "convert_II_to_I")],
    "center.iota_apply": [("center", "iota_apply")],
    "center.tau": [("center", "CenterElement.tau")],
    "cyclic.build": [("cyclic", "build_cocyclic")],
    "cyclic.chain": [("cyclic", "TensorPowerChain.__init__"),
                     ("cyclic", "TensorPowerChain.rebracket_front"),
                     ("cyclic", "_mult_map"), ("cyclic", "_unit_insertion")],
    "cyclic.algebra_check": [("cyclic", "check_algebra_object")],
    "cyclic.verify": [("cyclic", "verify_cocyclic_identities")],
    "cyclic.cohomology": [("cyclic", "hochschild_cohomology"),
                          ("cyclic", "cyclic_cohomology")],
    "structures.parse": [("structures", "parse_structure")],
    "structures.serialize": [("structures", n) for n in
                             ("serialize", "canonical_bytes", "write_structure")],
    "cli.check": [("cli", "cmd_check")],
    "cli.ayd": [("cli", "cmd_ayd")],
    "cli.stability": [("cli", "cmd_stability")],
    "cli.convert": [("cli", "cmd_convert")],
    "cli.cohomology": [("cli", "cmd_cohomology")],
}

# every counter, reported as 0 when nothing incremented it
COUNTER_KEYS = (
    tuple("linalg.%s.entries" % k for k in
          ("mul", "kron", "addscale", "rref", "solve", "kernel", "coordinates",
           "intertwiner_space"))
    + ("linalg.mul.nonzeros", "center.tau.misses", "cyclic.cochain_dim",
       "cyclic.ambient_dim", "structures.parse.bytes", "structures.serialize.bytes",
       "cli.exit_nonzero"))

# Field methods counted (not spanned): one call is one scalar operation.
FIELD_OPS = ("add", "sub", "mul", "neg", "div")


def _nonzeros(entries) -> int:
    return len(entries) - entries.count(0)


def _mul_counts(args, result):
    a, b = args[0], args[1]
    return {"linalg.mul.entries": len(a.entries) + len(b.entries),
            "linalg.mul.nonzeros": _nonzeros(a.entries) + _nonzeros(b.entries)}


def _intertwiner_counts(args, result):
    # field, constraints, rows, cols: the dense stacked system is
    # (#constraints * rows*cols) x (rows*cols).
    n = args[2] * args[3]
    return {"linalg.intertwiner_space.entries": len(args[1]) * n * n}


def _file_bytes(key, path_arg):
    def counts(args, result):
        return {key: os.path.getsize(args[path_arg])}
    return counts


# metric group -> counters taken from (args, result) after the span closes.
COUNTERS = {
    "linalg.mul": _mul_counts,
    "linalg.kron": lambda args, r: {"linalg.kron.entries": len(r.entries)},
    "linalg.addscale": lambda args, r: {"linalg.addscale.entries": len(r.entries)},
    "linalg.rref": lambda args, r: {"linalg.rref.entries": len(args[0].entries)},
    "linalg.solve": lambda args, r: {"linalg.solve.entries": len(args[0].entries)},
    "linalg.kernel": lambda args, r: {"linalg.kernel.entries": len(args[0].entries)},
    "linalg.coordinates": lambda args, r: {
        "linalg.coordinates.entries": args[0].dim * args[0].ambient_dim},
    "linalg.intertwiner_space": _intertwiner_counts,
    "cyclic.build": lambda args, r: {
        "cyclic.cochain_dim": sum(r.dim(n) for n in range(r.n_max + 1))},
    "structures.parse": _file_bytes("structures.parse.bytes", 0),
}

# counters per wrapped attribute, where one group covers several callables.
ATTR_COUNTERS = {
    ("cyclic", "TensorPowerChain.__init__"): lambda args, r: {
        "cyclic.ambient_dim": args[1].carrier.dim ** args[2]},
    ("structures", "canonical_bytes"): lambda args, r: {
        "structures.serialize.bytes": len(r)},
    ("structures", "write_structure"): _file_bytes("structures.serialize.bytes", 0),
}


def _materialise_constraints(tracer, args):
    # the constraints may be a generator; the entry count needs its length
    return (args[0], list(args[1])) + tuple(args[2:])


def _count_tau_miss(tracer, args):
    # tau_from_contramodule directly under CenterElement.tau is a cache miss
    if tracer._stack and tracer._stack[-1][1] == "center.tau":
        tracer.counts["center.tau.misses"] += 1
    return args


# metric group -> hook run on the arguments before the span opens.
PREPARE = {
    "linalg.intertwiner_space": _materialise_constraints,
    "coefficients.tau": _count_tau_miss,
}


class LayerTracer:
    """Spans and counters recorded around calls into qha's layers."""

    def __init__(self):
        self.names = []                 # span name table
        self._name_id = {}
        # one entry per span, in opening order; parent is a span index or -1
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []                # open frames: [index, name, t0, child_ns]
        self._open = Counter()          # group name -> open spans of it
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self._field_cells = {}
        self._patched = []              # (owner, attribute, original)
        self.missing = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0)
        self._open[name] += 1
        t0 = time.perf_counter_ns()
        self.span_start.append(t0)
        self._stack.append([idx, name, t0, 0])

    def _exit(self):
        t1 = time.perf_counter_ns()
        idx, name, t0, child = self._stack.pop()
        self.span_end[idx] = t1
        self._open[name] -= 1
        dur = t1 - t0
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if not self._open[name]:
            self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def _bookkeep(self, counter_fn, args, result):
        """Add counters; their cost is kept out of the parent's self time."""
        t0 = time.perf_counter_ns()
        self.counts.update(counter_fn(args, result))
        if self._stack:
            self._stack[-1][3] += time.perf_counter_ns() - t0

    def _wrap(self, name, fn, counter_fn):
        tracer = self
        prepare = PREPARE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(tracer, args)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if counter_fn is not None:
                tracer._bookkeep(counter_fn, args, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, qha_modules):
        """Wrap every callable in SPAN_GROUPS, and qha.cli.main.

        ``qha_modules`` maps short module names ("linalg", ...) to the
        imported modules.  A callable that no longer exists is listed in
        ``self.missing`` and left out.
        """
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "qha" or n.startswith("qha.")) and m is not None]
        for group, targets in SPAN_GROUPS.items():
            for mod_name, path in targets:
                counter_fn = ATTR_COUNTERS.get((mod_name, path), COUNTERS.get(group))
                self._install_one(group, qha_modules[mod_name], mod_name, path,
                                  counter_fn, namespaces)
        self._install_main(qha_modules["cli"], namespaces)

    def install_field_counts(self, field_cls):
        """Count calls into Field arithmetic.  Kept apart from the spans:
        one wrapper per scalar operation would swamp their self times."""
        def counted(fn, cell):
            @functools.wraps(fn)
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
            return wrapper
        for op in FIELD_OPS + ("inv",):
            cell = self._field_cells[op] = [0]
            self._patch(field_cls, op, counted(field_cls.__dict__[op], cell))

    def _install_one(self, group, module, mod_name, path, counter_fn, namespaces):
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if orig is None:
            self.missing.append("%s.%s" % (mod_name, path))
            return
        wrapper = self._wrap(group, orig, counter_fn)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    self._patch(ns, key, wrapper)

    def _install_main(self, cli, namespaces):
        orig = cli.main
        tracer = self

        @functools.wraps(orig)
        def main(argv=None):
            code = orig(argv)
            if code != 0:
                tracer.counts["cli.exit_nonzero"] += 1
            return code
        for ns in namespaces:
            if getattr(ns, "main", None) is orig:
                self._patch(ns, "main", main)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Flat name -> value for every group and counter."""
        out = {}
        for group in SPAN_GROUPS:
            out[group + ".calls"] = self.calls[group]
            out[group + ".self_s"] = self.self_ns[group] / 1e9
            out[group + ".total_s"] = self.total_ns[group] / 1e9
        for key in COUNTER_KEYS:
            out[key] = self.counts[key]
        mul = self.counts["linalg.mul.entries"]
        out["linalg.mul.density"] = self.counts["linalg.mul.nonzeros"] / mul if mul else 0.0
        tau_calls = self.calls["center.tau"]
        out["center.tau.hit_ratio"] = ((tau_calls - self.counts["center.tau.misses"])
                                       / tau_calls if tau_calls else 0.0)
        if self._field_cells:
            out["fields.ops"] = sum(self._field_cells[op][0] for op in FIELD_OPS)
            out["fields.inv"] = self._field_cells["inv"][0]
        return out

    def write(self, path, extra):
        """Write the span table and every metric as one JSON document."""
        doc = {
            "names": self.names,
            "missing_targets": self.missing,
            "metrics": self.metrics(),
            "spans": {"name": self.span_name.tolist(),
                      "parent": self.span_parent.tolist(),
                      "start_ns": self.span_start.tolist(),
                      "end_ns": self.span_end.tolist()},
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
