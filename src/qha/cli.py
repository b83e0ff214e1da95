"""The qha command line: check, ayd, stability, convert, cohomology, generate.

Every command emits a deterministic JSON report (stable key order) or a
human-readable rendering with --pretty.  Exit codes: 0 when every requested
check passes, 1 when some check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from .fields import rationals, prime_field, FieldError
from .reports import CheckReport, pretty_line
from .quasihopf import (QuasiHopfAlgebra, StructureError, GroupTableError, IntertwinerError,
                        _validate_group, build_scope, group_algebra, sweedler_h4,
                        twisted_dual_group_algebra, cyclic_group_table, symmetric_group_table,
                        z2_nontrivial_cocycle, z3_nontrivial_cocycle, trivial_module,
                        validate_structure, check_quasi_bialgebra, check_quasi_hopf)
from .algebroid import (HopfAlgebroid, enveloping_algebroid,
                        base_ring_dual_numbers,
                        check_algebroid_structure, check_left_bialgebroid,
                        check_right_bialgebroid, check_hopf_algebroid)
from .coefficients import (Contramodule, FlavorError, HOPF_MU, QUASI_I, QUASI_II,
                           evaluation_at_unit, check_ayd, check_stability,
                           convert_I_to_II, convert_II_to_I)
from .cyclic import (ModuleAlgebra, build_cocyclic, check_algebra_object, unit_algebra,
                     hochschild_cohomology, cyclic_cohomology, CocyclicError)
from .structures import (parse_structure, serialize, write_structure, content_hash,
                         StructureFileError, _parse_base, _array)


class UsageError(ValueError):
    pass


def _field_from_args(args):
    if args.field == "Q":
        return rationals()
    try:
        return prime_field(args.p)
    except FieldError as e:
        raise UsageError(str(e)) from None


def _input_record(name, path, obj):
    return {"name": name, "path": path, "sha256": content_hash(obj)}


def _emit(report: dict, args) -> int:
    if not getattr(args, "reproducible", False):
        report["timing_ms"] = round((time.monotonic() - args._t0) * 1000.0, 3)
    text = (_pretty(report) if getattr(args, "pretty", False)
            else json.dumps(report, sort_keys=True))
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.get("pass", True) else 1


def _pretty(report: dict) -> str:
    lines = ["command: %s" % report.get("command", "?")]
    for rec in report.get("inputs", []):
        lines.append("input: %s (%s)" % (rec["name"], rec["sha256"][:12]))
    lines.extend(pretty_line(chk) for chk in report.get("checks", []))
    if "dims" in report:
        lines.append("dims: %s" % report["dims"])
    lines.append("result: %s" % ("PASS" if report.get("pass", True) else "FAIL"))
    if "timing_ms" in report:
        lines.append("timing_ms: %s" % report["timing_ms"])
    return "\n".join(lines)


def _full_check(structure) -> CheckReport:
    rep = CheckReport()
    if isinstance(structure, QuasiHopfAlgebra):
        rep.extend(validate_structure(structure))
        rep.extend(check_quasi_bialgebra(structure))
        rep.extend(check_quasi_hopf(structure))
    elif isinstance(structure, HopfAlgebroid):
        rep.extend(check_algebroid_structure(structure))
        rep.extend(check_left_bialgebroid(structure))
        rep.extend(check_right_bialgebroid(structure))
        rep.extend(check_hopf_algebroid(structure))
    else:
        raise UsageError("check expects a quasi_hopf or hopf_algebroid file")
    return rep


def _check_report(command: str, inputs, rep: CheckReport, **fields) -> dict:
    """The report of a command that runs one CheckReport on its inputs."""
    return {"command": command, "inputs": inputs, **fields,
            "checks": rep.to_dict()["checks"], "pass": rep.passed}


def cmd_check(args) -> int:
    structure = parse_structure(args.structure)
    return _emit(_check_report(
        "check", [_input_record(structure.name, args.structure, structure)],
        _full_check(structure)), args)


def _coefficient_command(args, command: str, checks) -> int:
    """qha ayd and qha stability: the checks of a contramodule file against
    its parent structure file."""
    structure = parse_structure(args.structure)
    coeff = parse_structure(args.coefficient, parent=structure)
    if not isinstance(coeff, Contramodule):
        raise UsageError("expected a contramodule file, got %r"
                         % type(coeff).__name__)
    return _emit(_check_report(
        command, [_input_record(structure.name, args.structure, structure),
                  _input_record("coefficient", args.coefficient, coeff)],
        checks(coeff), flavor=coeff.flavor), args)


def cmd_ayd(args) -> int:
    return _coefficient_command(args, "ayd", check_ayd)


def cmd_stability(args) -> int:
    return _coefficient_command(args, "stability", check_stability)


def cmd_convert(args) -> int:
    coeff = parse_structure(args.coefficient)
    if not isinstance(coeff, Contramodule):
        raise UsageError("convert expects a contramodule file")
    target = {"typeI": QUASI_I, "typeII": QUASI_II}.get(args.to)
    if target is None:
        raise UsageError("--to must be typeI or typeII")
    if coeff.flavor == target:
        out = coeff
    elif coeff.flavor == QUASI_I and target == QUASI_II:
        out = convert_I_to_II(coeff)
    elif coeff.flavor == QUASI_II and target == QUASI_I:
        out = convert_II_to_I(coeff)
    else:
        raise UsageError("cannot convert flavor %s to %s"
                         % (coeff.flavor, args.to))
    return _write_structure_out(args, out, args.name or "converted")


def _write_structure_out(args, obj, name: str) -> int:
    """Write obj to --out, or print its JSON when there is no --out."""
    if args.out:
        write_structure(args.out, obj, name=name)
    else:
        print(json.dumps(serialize(obj, name), sort_keys=True))
    return 0


def _check_entries(check_id: str, rep: CheckReport):
    """One passing entry, or one failed entry per failed relation of rep."""
    failed = [r for r in rep.results if not r.passed]
    if not failed:
        return [{"check": check_id, "pass": True, "counterexample": None}]
    return [{"check": check_id, "pass": False,
             "counterexample": {"relation": r.check_id, **dict(r.counterexample or ())}}
            for r in failed]


def cmd_cohomology(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be at least 0, got %d" % args.degree)
    structure = parse_structure(args.structure)
    algebra = parse_structure(args.algebra, parent=structure)
    coeff = parse_structure(args.coefficient, parent=structure)
    if not isinstance(algebra, ModuleAlgebra):
        raise UsageError("expected a module_algebra file for the algebra object")
    if not isinstance(coeff, Contramodule):
        raise UsageError("expected a contramodule file for the coefficient")
    checks = (_check_entries("algebra_object", check_algebra_object(algebra))
              + _check_entries("coefficient_stable", check_stability(coeff)))
    report = {
        "command": "cohomology",
        "inputs": [_input_record(structure.name, args.structure, structure),
                   _input_record("algebra", args.algebra, algebra),
                   _input_record("coefficient", args.coefficient, coeff)],
        "theory": args.theory,
        "field": str(algebra.field),
        "degree": args.degree,
        "checks": checks,
    }
    # the cocyclic module is built only on inputs that pass both checks
    if all(c["pass"] for c in checks):
        theory = hochschild_cohomology if args.theory == "hochschild" else cyclic_cohomology
        witness = None
        try:
            report["dims"] = list(theory(build_cocyclic(algebra, coeff, args.degree + 1),
                                         args.degree).dims)
        except CocyclicError as e:
            witness = {"relation": e.relation, **dict(e.indices)}
        except IntertwinerError as e:
            # a stable coefficient that is not aYD: its tau is not H-linear
            witness = {"relation": str(e)}
        checks.append({"check": "cocyclic_identities", "pass": witness is None,
                       "counterexample": witness})
    report["pass"] = all(c["pass"] for c in checks)
    return _emit(report, args)


def _load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise StructureFileError("json", str(e)) from None


def cmd_generate(args) -> int:
    f = _field_from_args(args)
    what = args.what
    name = args.name
    if what == "group_algebra":
        for flag, size in (("cyclic", args.cyclic), ("symmetric", args.symmetric)):
            if size is not None and size < 1:
                raise UsageError("--%s must be at least 1, got %d" % (flag, size))
        if args.cyclic is not None:
            table = cyclic_group_table(args.cyclic)
            name = name or "kC%d" % args.cyclic
        elif args.symmetric is not None:
            table = symmetric_group_table(args.symmetric)
            name = name or "kS%d" % args.symmetric
        elif args.table:
            table = _load_table(args.table)
            name = name or "kG"
        else:
            raise UsageError("group_algebra needs --cyclic N, --symmetric N or --table FILE")
        obj = group_algebra(f, table, name)
    elif what == "sweedler_h4":
        obj = sweedler_h4(f)
        name = name or "H4"
    elif what == "twisted_dual_z2":
        obj = twisted_dual_group_algebra(f, cyclic_group_table(2),
                                         z2_nontrivial_cocycle(f))
        name = name or "k^Z2_w"
    elif what == "twisted_dual_z3":
        obj = twisted_dual_group_algebra(f, cyclic_group_table(3),
                                         z3_nontrivial_cocycle(f))
        name = name or "k^Z3_w"
    elif what == "twisted_dual":
        if not (args.table and args.omega):
            raise UsageError("twisted_dual needs --table FILE and --omega FILE")
        table = _load_table(args.table)
        n = len(_validate_group(table)[0])
        rows = _array(f, _load_table(args.omega), (n, n, n), "$")
        omega = [[rows.row(x * n + y) for y in range(n)] for x in range(n)]
        obj = twisted_dual_group_algebra(f, table, omega)
        name = name or "k^G_w"
    elif what == "enveloping_dual_numbers":
        obj = enveloping_algebroid(base_ring_dual_numbers(f))
        name = name or obj.name
    elif what == "enveloping":
        if not args.base:
            raise UsageError("enveloping needs --base FILE with dim/mult/unit")
        doc = _load_table(args.base)
        if not isinstance(doc, dict):
            raise UsageError("--base must hold an object with dim/mult/unit")
        obj = enveloping_algebroid(_parse_base(f, doc, "$"))
        name = name or obj.name
    elif what == "unit_algebra":
        if not args.structure:
            raise UsageError("unit_algebra needs --structure FILE")
        parent = parse_structure(args.structure)
        if not isinstance(parent, (QuasiHopfAlgebra, HopfAlgebroid)):
            raise UsageError("unit_algebra needs a quasi_hopf or hopf_algebroid structure")
        obj = unit_algebra(parent)
        name = name or "unitA"
    elif what == "trivial_contramodule":
        if not args.structure:
            raise UsageError("trivial_contramodule needs --structure FILE")
        parent = parse_structure(args.structure)
        if not isinstance(parent, QuasiHopfAlgebra):
            raise UsageError("trivial_contramodule needs a quasi_hopf structure")
        k = trivial_module(parent)
        flavor = HOPF_MU if parent.is_hopf() else QUASI_I
        obj = Contramodule(k, evaluation_at_unit(k), flavor)
        name = name or "trivialM"
    else:
        raise UsageError("unknown generator %r" % what)
    return _write_structure_out(args, obj, name)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: main
    dispatches by the command's name, so the parser holds no function."""
    ap = argparse.ArgumentParser(
        prog="qha",
        description="Exact checks and cyclic cohomology for quasi-Hopf algebras "
                    "and Hopf algebroids.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")
        p.add_argument("--reproducible", action="store_true",
                       help="omit the timing field for byte-identical reports")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("check", help="verify all axioms of a structure file")
    p.add_argument("structure")
    common(p)

    p = sub.add_parser("ayd", help="verify contramodule and aYD conditions")
    p.add_argument("structure")
    p.add_argument("coefficient")
    common(p)

    p = sub.add_parser("stability", help="verify the stability condition")
    p.add_argument("structure")
    p.add_argument("coefficient")
    common(p)

    p = sub.add_parser("convert", help="convert a coefficient between type I and II")
    p.add_argument("coefficient")
    p.add_argument("--to", required=True, help="typeI or typeII")
    p.add_argument("--out", help="write the converted coefficient to a file")
    p.add_argument("--name", default="")

    p = sub.add_parser("cohomology", help="compute Hochschild or cyclic cohomology")
    p.add_argument("structure")
    p.add_argument("algebra")
    p.add_argument("coefficient")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--theory", choices=["hochschild", "cyclic"], default="cyclic")
    common(p)

    p = sub.add_parser("generate", help="emit a built-in structure as JSON")
    p.add_argument("what", choices=[
        "group_algebra", "sweedler_h4", "twisted_dual_z2", "twisted_dual_z3",
        "twisted_dual",
        "enveloping_dual_numbers", "enveloping", "unit_algebra",
        "trivial_contramodule"])
    p.add_argument("--field", choices=["Q", "GFp"], default="Q")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--cyclic", type=int)
    p.add_argument("--symmetric", type=int)
    p.add_argument("--table")
    p.add_argument("--omega")
    p.add_argument("--base")
    p.add_argument("--structure")
    p.add_argument("--name", default="")
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        # looked up at each call, so that the cmd_* bound in this module
        # now is the one that runs, also after it was rebound
        # in one build scope, so that the parse, the checks and the build
        # share every tensor product, relation space and Hom module
        with build_scope():
            return globals()["cmd_" + args.cmd](args)
    except (StructureFileError, UsageError, FlavorError, GroupTableError,
            StructureError, FieldError, OSError) as e:
        code = getattr(e, "code", "usage")
        sys.stderr.write("error [%s]: %s\n" % (code, e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
