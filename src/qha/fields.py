"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Every scalar in this package is either a ``fractions.Fraction`` (rationals,
always stored reduced) or a plain ``int`` in ``range(p)`` (GF(p)).  There are
no floats anywhere; equality of scalars is exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# the shared constants of Q: one object each, so that comparing two zeros
# (or two ones) can stop at identity
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class FieldError(ValueError):
    """Bad field specification (non-prime characteristic, etc.)."""


class ScalarParseError(ValueError):
    """A scalar string does not parse in the declared field."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """An exact coefficient field, either Q or GF(p) for a prime p < 2**31.

    Elements are not wrapped: Q uses Fraction, GF(p) uses ints in [0, p).
    All methods are pure; instances are immutable and hashable.
    """

    kind: str  # "Q" or "GFp"
    p: int = 0

    def __post_init__(self):
        if self.kind == "Q":
            if self.p:
                raise FieldError("rationals take no characteristic")
        elif self.kind == "GFp":
            if not is_prime(self.p):
                raise FieldError("non-prime characteristic %r" % (self.p,))
            if self.p >= 2**31:
                raise FieldError("characteristic too large: %d" % self.p)
        else:
            raise FieldError("unknown field kind %r" % (self.kind,))

    # -- constants ---------------------------------------------------------

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "Q" else 1 % self.p

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Q":
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == self.one

    # -- conversions -------------------------------------------------------

    def from_int(self, n: int):
        return Fraction(n) if self.kind == "Q" else n % self.p

    def parse(self, s: str):
        """Parse a scalar string: "3", "-1/2" over Q; a plain residue over GF(p)."""
        s = s.strip()
        # most scalars of a structure file are "0" or "1": skip the parser
        # and return the shared constants
        if s == "0":
            return self.zero
        if s == "1":
            return self.one
        if self.kind == "Q":
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError) as e:
                raise ScalarParseError("bad rational %r: %s" % (s, e)) from None
        try:
            n = int(s)
        except ValueError:
            raise ScalarParseError("bad GF(%d) residue %r" % (self.p, s)) from None
        return n % self.p

    def format(self, a) -> str:
        # "0" and "1" are most scalars of a structure file; the literals are
        # shared objects, where str() would make a new string for each
        if not a:
            return "0"
        return "1" if a == 1 else str(a)

    def elements(self):
        """Iterate all field elements; only available for GF(p)."""
        if self.kind == "Q":
            raise FieldError("rationals are not enumerable")
        return range(self.p)

    def __str__(self):
        return "Q" if self.kind == "Q" else "GF(%d)" % self.p


def rationals() -> Field:
    return Field("Q")


def prime_field(p: int) -> Field:
    return Field("GFp", p)
