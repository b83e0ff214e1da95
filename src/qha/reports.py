"""Check reports: named pass/fail results with first-counterexample data.

Every check quantified over basis indices reports the same witness: the
lexicographically first failing index tuple, in the order the check names
its indices (``first_failure``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


def first_failure(ranges, bad):
    """The witness ((name, index), ...) of the lexicographically first tuple
    of range(size_1) x range(size_2) x ... at which bad(*indices) holds, for
    ranges ((name_1, size_1), (name_2, size_2), ...), or None."""
    names = [name for name, _ in ranges]
    for idx in itertools.product(*(range(size) for _, size in ranges)):
        if bad(*idx):
            return tuple(zip(names, idx))
    return None


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


@dataclass
class CheckReport:
    """Ordered list of check results; passes iff every check passes."""

    results: list = field(default_factory=list)

    def add(self, check_id: str, passed: bool, counterexample=None):
        if passed:
            counterexample = None
        elif counterexample is not None:
            counterexample = tuple(counterexample)
        self.results.append(CheckResult(check_id, bool(passed), counterexample))

    def search(self, check_id: str, ranges, bad, holds: bool = True):
        """Add check_id, failed at the first_failure of bad over ranges, or
        failed without a witness when the extra condition holds is false."""
        witness = first_failure(ranges, bad)
        self.add(check_id, witness is None and holds, witness)

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
        lines = []
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            extra = ""
            if r.counterexample:
                extra = "  at " + ", ".join("%s=%s" % kv for kv in r.counterexample)
            lines.append("%s %s%s" % (mark, r.check_id, extra))
        return "\n".join(lines)
