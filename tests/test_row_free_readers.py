"""Structure files read without a Python step per dense entry.

Every array is read by one reader, ``_array``, given its shape: it maps
every string of the array through one table and builds the rows of its
matrix from the nonzero positions; on any bad item it walks the array
item by item, so each error keeps its code, message and the path of the
first bad item.  An embedded parent that is written exactly as the
supplied parent serialises, its name aside, is not parsed, and any other
embedded parent is parsed and compared.
"""

from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qha import structures
from qha.algebroid import BaseRing, base_ring_scalars, enveloping_algebroid
from qha.fields import ScalarParseError
from qha.linalg import Matrix
from qha.quasihopf import cyclic_group_table, group_algebra, regular_module, symmetric_group_table
from qha.structures import StructureFileError, _array, parse_document, serialize

from conftest import F5, QQ
from test_stored_tensors import FIELDS, parents

# strings that parse in Q and in GF(5), some with spaces or signs
STRINGS = ["0", "1", "-1", "0", "2", " 3", "+1", "-0", "0", "6", "1 ", "0"]
Q_ONLY = ["1/2", "-2/4", "3/7"]


def dense(f, array):
    """The scalars of a nested list of strings, row-major, each parsed alone."""
    if isinstance(array, str):
        return [f.parse(array)]
    return [a for item in array for a in dense(f, item)]


@pytest.mark.parametrize("f, name", [(f, name) for f in FIELDS for name in parents(f)])
def test_every_array_of_a_parent_reads_as_its_dense_matrix(f, name):
    H = parents(f)[name]
    doc = serialize(H)
    if "base" in doc:
        r = H.base.dim
        assert _array(f, doc["base"]["mult"], (r, r, r), "$") == Matrix(
            f, r * r, r, dense(f, doc["base"]["mult"]))
    n = H.dim
    assert _array(f, doc["mult"], (n, n, n), "$") == Matrix(f, n * n, n, dense(f, doc["mult"]))
    for key, array in doc.items():
        if key != "mult" and isinstance(array, list) and isinstance(array[0], list):
            rows, cols = len(array), len(array[0])
            assert _array(f, array, (rows, cols), "$") == Matrix(f, rows, cols, dense(f, array))
    if "phi" in doc:
        assert _array(f, doc["phi"], (n ** 3,), "$") == Matrix(f, 1, n ** 3, dense(f, doc["phi"]))


def nested(flat, shape):
    """flat, a list of prod(shape) items, as the nested list of shape."""
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat


def item_at(array, index):
    for i in index:
        array = array[i]
    return array


# what the reader says of a list of the wrong length at each depth above the scalars
LENGTHS = {1: "expected a list of %d scalars", 2: "expected %d rows", 3: "expected %d slices"}


@st.composite
def corruptions(draw, f, shape):
    """An edit of a valid array of shape, and the code, path and message of
    the one error it makes: a list of a wrong length or no list at some
    level, an item that is not a string, or a string that does not parse."""
    what = draw(st.sampled_from(["length", "not_a_list", "not_a_string", "no_parse"]))
    if what in ("length", "not_a_list"):
        depth = draw(st.integers(0, len(shape) - 1))
        index = tuple(draw(st.integers(0, size - 1)) for size in shape[:depth])
        size = shape[depth]
        # the length is checked before any item of the list is read
        bad = ("0" * size if what == "not_a_list"
               else ["0"] * draw(st.integers(0, 5).filter(lambda k: k != size)))
        want = ("dimension_mismatch", LENGTHS[len(shape) - depth] % size)
    else:
        index = tuple(draw(st.integers(0, size - 1)) for size in shape)
        if what == "not_a_string":
            bad = draw(st.sampled_from([1, 0, None, True, 2.5, ["0"], {"0": "1"}]))
            want = ("scalar_parse", "scalars must be strings, got %r" % (bad,))
        else:
            bad = draw(st.sampled_from(["x", "1//2", "1/0", "", "two", "0x"]
                                       + ([] if f is QQ else ["1/2"])))
            try:
                f.parse(bad)
            except ScalarParseError as e:
                want = ("scalar_parse", str(e))
    path = "$" + "".join("[%d]" % i for i in index)

    def edit(array):
        if not index:
            return bad
        item_at(array, index[:-1])[index[-1]] = bad
        return array
    return edit, (want[0], path, want[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F5]), st.integers(1, 4), st.integers(1, 4), st.data())
def test_drawn_arrays_read_as_their_dense_matrices(f, rows, cols, data):
    pool = STRINGS + (Q_ONLY if f is QQ else [])
    size = max(rows * cols, rows ** 3)
    flat = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    matrix = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    assert _array(f, matrix, (rows, cols), "$") == Matrix(f, rows, cols, dense(f, matrix))
    assert _array(f, flat[:cols], (cols,), "$") == Matrix(f, 1, cols, dense(f, flat[:cols]))
    n = rows
    cube = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    assert _array(f, cube, (n, n, n), "$") == Matrix(f, n * n, n, dense(f, cube))
    # a drawn shape of depth 1 to 3, its sizes unequal in general
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    flat = data.draw(st.lists(st.sampled_from(pool), min_size=prod(shape),
                              max_size=prod(shape)))
    array = nested(flat, shape)
    assert _array(f, array, shape, "$") == Matrix(
        f, prod(shape[:-1]), shape[-1], dense(f, flat))
    # one corruption of it, reported as the item-by-item walk reports it
    edit, want = data.draw(corruptions(f, shape))
    with pytest.raises(StructureFileError) as info:
        _array(f, edit(array), shape, "$")
    assert (info.value.code, info.value.where, info.value.message) == want


KS3 = group_algebra(QQ, symmetric_group_table(3), "kS3")


def refusal(doc):
    with pytest.raises(StructureFileError) as info:
        parse_document(doc)
    return info.value.code, info.value.where


@pytest.mark.parametrize("where, bad", [
    ((0, 2, 1), "x"), ((3, 0, 5), "1//2"), ((5, 5, 0), "two"), ((5, 5, 5), 1),
    ((2, 4, 3), None), ((1, 1, 1), ["0"])])
def test_a_bad_scalar_of_mult_is_reported_at_its_path(where, bad):
    """In the first slab, a middle slab and the last row of mult: the code
    and path that the row-by-row reader gives."""
    doc = serialize(KS3)
    i, j, k = where
    doc["mult"][i][j][k] = bad
    assert refusal(doc) == ("scalar_parse", "$.mult[%d][%d][%d]" % where)


def test_the_first_of_two_bad_items_is_reported():
    doc = serialize(KS3)
    doc["mult"][4][0][0] = "y"
    doc["mult"][1][3][3] = 7
    doc["comult"][0][0] = "z"
    assert refusal(doc) == ("scalar_parse", "$.mult[1][3][3]")


@pytest.mark.parametrize("edit, want", [
    (lambda d: d["mult"][2].pop(), ("dimension_mismatch", "$.mult[2]")),
    (lambda d: d["mult"][4][1].append("0"), ("dimension_mismatch", "$.mult[4][1]")),
    (lambda d: d["mult"].__setitem__(5, "0" * 6), ("dimension_mismatch", "$.mult[5]")),
    (lambda d: d["comult"][3].__setitem__(7, "x"), ("scalar_parse", "$.comult[3][7]")),
    (lambda d: d["comult"].__setitem__(2, "0" * 36), ("dimension_mismatch", "$.comult[2]")),
    (lambda d: d["phi"].__setitem__(100, "1/0"), ("scalar_parse", "$.phi[100]")),
    (lambda d: d["antipode"][5].__setitem__(0, True), ("scalar_parse", "$.antipode[5][0]")),
])
def test_shape_and_scalar_errors_keep_their_codes_and_paths(edit, want):
    doc = serialize(KS3)
    edit(doc)
    assert refusal(doc) == want


# -- embedded parents ------------------------------------------------------------

def half_base(f):
    """Q[x]/(x^2 - 1/2), basis (1, x): a base ring with the scalar 1/2."""
    half = f.parse("1/2")
    mult = Matrix.from_rows(f, [(1, 0), (0, 1), (0, 1), (half, 0)])
    return BaseRing(f, 2, mult, (1, 0), name="Q(sqrt 1/2)")


PARENTS = {"kC2": group_algebra(QQ, cyclic_group_table(2), "kC2"),
           "env_half": enveloping_algebroid(half_base(QQ)),
           "env_k": enveloping_algebroid(base_ring_scalars(QQ))}


@pytest.fixture()
def parent_parses(monkeypatch):
    calls = []
    real = structures._parse_parent

    def counting(f, doc, where):
        calls.append(where)
        return real(f, doc, where)
    monkeypatch.setattr(structures, "_parse_parent", counting)
    return calls


@pytest.mark.parametrize("name", sorted(PARENTS))
def test_an_embedded_parent_written_as_the_supplied_one_is_not_parsed(name, parent_parses):
    H = PARENTS[name]
    doc = serialize(regular_module(H))
    doc["parent"]["name"] = "another name"
    M = parse_document(doc, parent=H)
    assert parent_parses == []
    assert M.parent is H and M == regular_module(H)
    del doc["parent"]["name"]
    assert parse_document(doc, parent=H) == M
    assert parent_parses == []


def test_an_embedded_parent_spelled_otherwise_is_parsed_and_compared(parent_parses):
    """"2/4" is the scalar 1/2 of the supplied parent: parsed, equal, read."""
    H = PARENTS["env_half"]
    doc = serialize(regular_module(H))
    assert doc["parent"]["base"]["mult"][1][1] == ["1/2", "0"]
    doc["parent"]["base"]["mult"][1][1] = ["2/4", "0"]
    assert parse_document(doc, parent=H) == regular_module(H)
    assert parent_parses == ["$.parent"]
    # a value that differs is still refused
    doc["parent"]["base"]["mult"][1][1] = ["3/4", "0"]
    with pytest.raises(StructureFileError) as info:
        parse_document(doc, parent=H)
    assert (info.value.code, info.value.where) == ("incompatible_kinds", "$.parent")


@pytest.mark.parametrize("name, edit, want", [
    ("kC2", lambda p: p.__setitem__("name", 3), ("schema", "$.parent.name")),
    # each equal to the serialised dim under ==, but no int of the file format
    ("kC2", lambda p: p.__setitem__("dim", 2.0), ("schema", "$.parent.dim")),
    ("env_k", lambda p: p.__setitem__("dim", True), ("schema", "$.parent.dim")),
    ("env_k", lambda p: p["base"].__setitem__("dim", True), ("schema", "$.parent.base.dim")),
    ("env_half", lambda p: p["mult"][0][0].__setitem__(0, "x"),
     ("scalar_parse", "$.parent.mult[0][0][0]")),
    ("kC2", lambda p: p.__setitem__("kind", "module"), ("schema", "$.parent")),
])
def test_a_bad_embedded_parent_is_refused_at_its_path(name, edit, want):
    H = PARENTS[name]
    doc = serialize(regular_module(H))
    edit(doc["parent"])
    with pytest.raises(StructureFileError) as info:
        parse_document(doc, parent=H)
    assert (info.value.code, info.value.where) == want
