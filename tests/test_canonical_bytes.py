"""canonical_bytes writes exactly what json.dumps writes.

It joins each large array of plain strings itself and gives everything
else to json; the content hash of every input depends on the bytes being
the same, so they are compared with json.dumps(doc, sort_keys=True,
separators=(",", ":")) on the serialisation of every fixture, under drawn
names, and on drawn nested documents, large arrays among them.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qha.coefficients import Contramodule, QUASI_I, evaluation_at_unit
from qha.cyclic import unit_algebra
from qha.quasihopf import QuasiHopfAlgebra, regular_module, trivial_module
from qha.structures import canonical_bytes, serialize

from test_stored_tensors import FIELDS, parents


def reference(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def fixtures():
    """Every parent of test_stored_tensors over Q, GF(5) and GF(7), its
    regular module and unit algebra, and over a quasi-Hopf parent the
    evaluation-at-unit contramodule."""
    out = []
    for f in FIELDS:
        for H in parents(f).values():
            out += [H, regular_module(H), unit_algebra(H)]
            if isinstance(H, QuasiHopfAlgebra):
                k = trivial_module(H)
                out.append(Contramodule(k, evaluation_at_unit(k), QUASI_I))
    return out


DOCS = [serialize(obj) for obj in fixtures()]

# quotes, backslashes, non-ASCII, control characters and DEL among them
NAMES = (st.text(alphabet=st.sampled_from('ab0/-" \\\x00\x1f\x7f\té€\U0001f600'), max_size=12)
         | st.text())
SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "", " ", '"', "\\", "\x7f", "\n", "é", "a\"b"])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOCS), NAMES, NAMES)
def test_every_fixture_under_any_name(doc, name, parent_name):
    doc = dict(doc, name=name)
    if "parent" in doc:
        doc["parent"] = dict(doc["parent"], name=parent_name)
    assert canonical_bytes(doc) == reference(doc)


def test_every_fixture_as_serialised():
    for doc in DOCS:
        assert canonical_bytes(doc) == reference(doc)


LEAVES = st.none() | st.booleans() | st.integers() | st.text() | SCALARS
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=5)
                      | st.dictionaries(st.text(max_size=4) | SCALARS, inner, max_size=5),
                      max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=4), NESTED, max_size=6))
def test_drawn_nested_documents(doc):
    assert canonical_bytes(doc) == reference(doc)


@st.composite
def large_arrays(draw):
    """A rectangular array of at least 256 strings, nested 1 to 3 deep,
    with at most a few items changed to another string, a non-string, an
    empty list or a row of another length."""
    widths = draw(st.sampled_from([[300], [16, 16], [4, 8, 9], [1, 256], [256, 1]]))
    array = draw(SCALARS)
    for w in reversed(widths):
        array = [array] * w
    array = json.loads(json.dumps(array))
    for _ in range(draw(st.integers(0, 3))):
        # an item at a drawn depth, reached through lists of the array's widths
        holder = array
        for level in range(draw(st.integers(0, len(widths) - 1))):
            child = holder[draw(st.integers(0, len(holder) - 1))]
            if not (isinstance(child, list) and len(child) == widths[level + 1]):
                break
            holder = child
        holder[draw(st.integers(0, len(holder) - 1))] = draw(
            SCALARS | st.integers() | st.none() | st.just([]) | st.lists(SCALARS, max_size=3))
    return array


@settings(max_examples=100, deadline=None)
@given(large_arrays(), NAMES)
def test_large_arrays_with_any_items(array, name):
    doc = {"name": name, "mult": array, "parent": {"unit": array}}
    assert canonical_bytes(doc) == reference(doc)


@pytest.mark.parametrize("s", ["0", "", " ", '"', "\\", "\x7f", "\x1f", "\n", "é", "a\"b"])
def test_large_arrays_of_one_string(s):
    """The strings JSON escapes, once among plain ones and as every item."""
    for array in ([s] * 300, [["0"] * 15 + [s]] * 20,
                  [[["1"] * 9] * 8] * 3 + [[["1"] * 9] * 7 + [[s] * 9]]):
        doc = {"a": array}
        assert canonical_bytes(doc) == reference(doc)
