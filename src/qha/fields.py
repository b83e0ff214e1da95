"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Every scalar in this package is a plain ``int`` or a ``fractions.Fraction``.
Over Q an integral value is an ``int`` wherever this module makes it (the
constants, ``from_int``, ``parse``, ``inv`` and ``nonzero_map``), and a
``Fraction`` (always reduced) holds the values whose denominator is not 1:
the structure constants of most inputs are 0, 1 and -1, and an ``int``
product or comparison runs in C where a ``Fraction`` one is a Python call.
An ``int`` equals, hashes and prints like the equal ``Fraction``, so either
form of a value gives the same results.  Over GF(p) a scalar is an ``int``
in ``range(p)``.  There are no floats anywhere; equality of scalars is exact
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress


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

    Elements are not wrapped: Q uses ints for integral values and Fractions
    for the rest, GF(p) uses ints in [0, p).  All methods are pure;
    instances are immutable and hashable.
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

    # the same in every field; small ints are shared objects, so a product
    # with one can stop at identity
    zero = 0
    one = 1

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
            # 1 and -1 are their own inverses: most pivots are one of them
            if type(a) is int and (a == 1 or a == -1):
                return a
            return _integral(Fraction(1, a))
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == self.one

    # -- conversions -------------------------------------------------------

    def from_int(self, n: int):
        return n if self.kind == "Q" else n % self.p

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
                return _integral(Fraction(s))
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


def _integral(r):
    """r, a Fraction, as an int when its denominator is 1."""
    return r.numerator if r.denominator == 1 else r


def nonzero_map(values) -> dict:
    """{position: value} of the nonzero scalars of the sequence values, each
    integral Fraction as its int: how a dense row or column enters a sparse
    matrix.  The zeros are skipped in C, and the nonzeros are visited again
    only when one of them is a Fraction."""
    out = dict(compress(enumerate(values), values))
    for a in out.values():
        if type(a) is Fraction:
            return {j: _integral(b) if type(b) is Fraction else b for j, b in out.items()}
    return out


def rationals() -> Field:
    return Field("Q")


def prime_field(p: int) -> Field:
    return Field("GFp", p)
