"""The Q scalar layer: integral rationals are ints, the rest Fractions.

Over Q an integral value may reach the package as an ``int`` or as an
integral ``Fraction``; both must give the same matrices, modules, hashes
and reports.  No float may enter: the field never divides two ints with
``/``, and nothing outside ``qha.fields`` divides or imports ``fractions``.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import qha
from qha.linalg import Matrix
from qha.quasihopf import HModule, cyclic_group_table, group_algebra
from qha.structures import content_hash

from conftest import QQ

SRC = Path(qha.__file__).resolve().parent
KC2 = group_algebra(QQ, cyclic_group_table(2), "kC2")

# ints, integral Fractions and proper Fractions, zero included
RATIONALS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
NONZERO = RATIONALS.filter(bool)


def exact(x) -> bool:
    return type(x) is int or type(x) is Fraction


def integral_is_int(x) -> bool:
    """An integral value is an int, any other a Fraction."""
    return type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(a=RATIONALS, b=RATIONALS, c=NONZERO)
def test_field_ops_stay_exact(a, b, c):
    for r in (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a),
              QQ.div(a, c), QQ.inv(c)):
        assert exact(r)
    assert QQ.mul(c, QQ.inv(c)) == 1 and QQ.div(c, c) == 1
    assert QQ.inv(c) == 1 / Fraction(c) and integral_is_int(QQ.inv(c))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-10**20, 10**20), r=RATIONALS)
def test_integral_results_are_ints(n, r):
    assert type(QQ.from_int(n)) is int and QQ.from_int(n) == n
    for s in (str(r), " %s " % r, "%d/1" % n, "%d/2" % (2 * n)):
        parsed = QQ.parse(s)
        assert integral_is_int(parsed) and parsed == Fraction(s.strip())
    assert QQ.zero == 0 and type(QQ.zero) is int and QQ.one == 1 and type(QQ.one) is int


SIGNS_AND_HALVES = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def as_int_where_integral(x):
    return int(x) if Fraction(x).denominator == 1 else x


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_fraction_built_matrices_equal_int_built(d, data):
    entries = data.draw(st.lists(st.sampled_from(SIGNS_AND_HALVES),
                                 min_size=d * d, max_size=d * d))
    rows = [entries[i * d:(i + 1) * d] for i in range(d)]
    cols = [tuple(r[j] for r in rows) for j in range(d)]
    built = {}
    for form in (Fraction, as_int_where_integral):
        dense = [[form(x) for x in r] for r in rows]
        by_form = [Matrix(QQ, d, d, [x for r in dense for x in r]),
                   Matrix.from_rows(QQ, dense),
                   Matrix.from_cols(QQ, [tuple(map(form, c)) for c in cols])]
        for m in by_form:
            assert all(integral_is_int(a) for i in range(d) for a in m.row_map(i).values())
        built[form] = by_form
    for frac, ints in zip(built[Fraction], built[as_int_where_integral]):
        assert frac == ints and hash(frac) == hash(ints)
        assert frac.pretty() == ints.pretty()
    # a module with these action matrices: the same module, hash and document
    eye = Matrix.identity(QQ, d)
    frac = HModule(KC2, [eye, built[Fraction][0]], name="V")
    ints = HModule(KC2, [eye, built[as_int_where_integral][0]], name="V")
    assert frac == ints and hash(frac) == hash(ints)
    assert content_hash(frac) == content_hash(ints)


def float_hazards(path: Path):
    """(line, what) for every '/' division, float() call and import of
    fractions in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float"))
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "fractions" for a in node.names):
            out.append((node.lineno, "fractions"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            out.append((node.lineno, "fractions"))
    return out


def test_no_float_can_enter():
    """Only qha.fields divides scalars or makes Fractions; no module calls
    float().  An int / int anywhere else would be a float."""
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "fields.py" in sources
    found = []
    for path in sources:
        allowed = ("division", "fractions") if path.name == "fields.py" else ()
        found += ["%s:%d %s" % (path.name, line, what)
                  for line, what in float_hazards(path) if what not in allowed]
    assert found == []


def test_the_float_guard_sees_each_hazard(tmp_path):
    src = tmp_path / "mutant.py"
    src.write_text("import fractions\nfrom fractions import Fraction\n"
                   "def inv(a):\n    x = 1 / a\n    x /= 2\n    return float(x)\n")
    assert [what for _, what in sorted(float_hazards(src))] == \
        ["fractions", "fractions", "division", "division", "float"]
