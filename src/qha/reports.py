"""Check reports: named pass/fail results with first-counterexample data.

Every check is two matrices, one per side of its identity, whose columns
are its instances in the lexicographic order of the indices the check
names (``CheckReport.compare``), so every check reports the same witness:
the lexicographically first failing index tuple, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .linalg import ShapeError


def _decode(ranges, column: int):
    """The index tuple ((name, index), ...) of instance number column, the
    last index fastest; a range whose size is a tuple of sizes reads its
    index as a tuple too."""
    out = []
    for name, size in reversed(ranges):
        idx = []
        for s in reversed(size if isinstance(size, tuple) else (size,)):
            column, i = divmod(column, s)
            idx.insert(0, i)
        out.insert(0, (name, tuple(idx) if isinstance(size, tuple) else idx[0]))
    return tuple(out)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    counterexample: tuple | None = None  # ((name, index), ...) in quantifier order

    def to_dict(self):
        d = {"check": self.check_id, "pass": self.passed}
        d["counterexample"] = (
            None if self.counterexample is None else {k: v for k, v in self.counterexample}
        )
        return d


def pretty_line(check: dict) -> str:
    """One text line of a check in its ``to_dict`` form: its mark, its id
    and its counterexample's indices in quantifier order."""
    extra = ""
    if check.get("counterexample"):
        extra = "  at " + ", ".join("%s=%s" % kv for kv in check["counterexample"].items())
    return "%s %s%s" % ("ok  " if check["pass"] else "FAIL", check["check"], extra)


@dataclass
class CheckReport:
    """Ordered list of check results; passes iff every check passes."""

    results: list = field(default_factory=list)

    def add(self, check_id: str, passed: bool, counterexample=None) -> "CheckReport":
        """Append one result and return the report."""
        if passed:
            counterexample = None
        elif counterexample is not None:
            counterexample = tuple(counterexample)
        self.results.append(CheckResult(check_id, bool(passed), counterexample))
        return self

    def compare(self, check_id: str, ranges, lhs, rhs, holds: bool = True) -> "CheckReport":
        """Add check_id: lhs and rhs agree, where column c of each side is
        instance number c in the lexicographic order of ranges ((name,
        size), ...).  A failure names the first differing column (nothing
        when ranges is None); equal sides fail, unnamed, unless holds."""
        if ranges is not None:
            count = prod(prod(s) if isinstance(s, tuple) else s for _, s in ranges)
            if count != lhs.cols:
                raise ShapeError("%d instances in %d columns" % (count, lhs.cols))
        column = lhs.first_difference(rhs)
        witness = None if column is None or ranges is None else _decode(ranges, column)
        return self.add(check_id, column is None and holds, witness)

    def extend(self, other: "CheckReport"):
        self.results.extend(other.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failed_ids(self):
        return [r.check_id for r in self.results if not r.passed]

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    def to_dict(self):
        return {"pass": self.passed, "checks": [r.to_dict() for r in self.results]}

    def pretty(self) -> str:
        return "\n".join(pretty_line(r.to_dict()) for r in self.results)
