"""Structure-file scalars are read once per distinct string.

Each reader of a structure file keeps a {string: scalar} table for its
call, over the one field it reads in, and parses a string only when it is
not in the table yet.  These tests show that the table gives exactly what
``Field.parse`` gives in each field, and that an item that is not in it (a
bad string, or not a string at all) is reported at its own path as before.
"""

from fractions import Fraction

import pytest

from qha.fields import ScalarParseError
from qha.quasihopf import cyclic_group_table, group_algebra, symmetric_group_table
from qha.structures import StructureFileError, parse_document, serialize

from conftest import F5, QQ

KC3 = group_algebra(QQ, cyclic_group_table(3), "kC3")
FIELD_DOCS = {QQ: {"type": "Q"}, F5: {"type": "GFp", "p": 5}}


def kc3_doc(field):
    """kC3 (all of its scalars 0 or 1) as a document over field."""
    doc = serialize(KC3, "kC3")
    doc["field"] = FIELD_DOCS[field]
    return doc


def typed(values):
    return [(type(a), a) for a in values]


def parse(field, doc):
    with_field = dict(doc, field=FIELD_DOCS[field])
    return parse_document(with_field)


# strings that parse over Q and over GF(5), to different values in each
SHARED = ["6", " 1", "+1", "-0", "-1", "7", "10", "1 ", "6", "-6", "0", "1"]


@pytest.mark.parametrize("key", ["phi", "mult"])
def test_the_same_strings_read_as_each_field_s_values(key):
    """The strings of SHARED in phi (one vector) or across the rows of mult
    (one table for the whole tensor), read over Q, GF(5) and Q again."""
    doc = kc3_doc(QQ)
    strings = SHARED + ["0"] * (27 - len(SHARED))
    if key == "phi":
        doc["phi"] = strings
    else:
        doc["mult"] = [[strings[(i * 3 + j) * 3:(i * 3 + j + 1) * 3] for j in range(3)]
                       for i in range(3)]
    for f in (QQ, F5, QQ):
        got = getattr(parse(f, doc), key).entries
        assert typed(got) == typed(f.parse(s) for s in strings)
    assert getattr(parse(QQ, doc), key).entries[:3] == (6, 1, 1)
    assert getattr(parse(F5, doc), key).entries[:3] == (1, 1, 1)


def test_rationals_read_exactly_as_field_parse():
    doc = kc3_doc(QQ)
    strings = ["2/4", "-0", "+1", " 1", "4/2", "-3/6", "2/4", "1/3", "0/7"]
    doc["phi"] = strings + ["0"] * (27 - len(strings))
    got = parse(QQ, doc).phi.entries[:len(strings)]
    assert typed(got) == typed(QQ.parse(s) for s in strings)
    assert typed(got[:5]) == typed([Fraction(1, 2), 0, 1, 1, 2])


# (key, index): a place after rows or items whose strings are all in the table
PLACES = [("mult", (2, 1, 0)), ("comult", (2, 5)), ("antipode", (2, 0)),
          ("phi", (20,))]


def put(doc, key, index, item):
    target = doc[key]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = item


def where(key, index):
    return "$.%s%s" % (key, "".join("[%d]" % i for i in index))


@pytest.mark.parametrize("item", [1, True, 0.0, None, ["1"]], ids=repr)
@pytest.mark.parametrize("key, index", PLACES, ids=[k for k, _ in PLACES])
def test_a_non_string_after_known_strings_is_refused_at_its_path(key, index, item):
    for f in (QQ, F5):
        doc = kc3_doc(f)
        put(doc, key, index, item)
        with pytest.raises(StructureFileError) as err:
            parse_document(doc)
        assert (err.value.code, err.value.where, err.value.message) == (
            "scalar_parse", where(key, index), "scalars must be strings, got %r" % (item,))


def _message(f, s):
    with pytest.raises(ScalarParseError) as err:
        f.parse(s)
    return str(err.value)


@pytest.mark.parametrize("f, bad", [(QQ, "x"), (QQ, "1/0"), (F5, "1/2"), (F5, "x")],
                         ids=str)
@pytest.mark.parametrize("key, index", PLACES, ids=[k for k, _ in PLACES])
def test_a_bad_string_first_seen_late_is_refused_at_its_own_index(f, bad, key, index):
    """The bad string also stands at a later place, and a new good string
    stands just before it: the first place of the bad string is reported."""
    doc = kc3_doc(f)
    later = index[:-1] + (index[-1] + 1,)
    put(doc, key, later, bad)
    put(doc, key, index, bad)
    if index[-1]:
        put(doc, key, index[:-1] + (index[-1] - 1,), "3")
    with pytest.raises(StructureFileError) as err:
        parse_document(doc)
    assert (err.value.code, err.value.where, err.value.message) == (
        "scalar_parse", where(key, index), _message(f, bad))


def test_a_string_bad_over_one_field_only():
    """"1/2" is a rational but no residue: the same document parses over Q
    and is refused over GF(5), at the place of the string."""
    doc = kc3_doc(QQ)
    doc["phi"][26] = "1/2"
    assert parse(QQ, doc).phi.get(0, 26) == Fraction(1, 2)
    with pytest.raises(StructureFileError) as err:
        parse(F5, doc)
    assert (err.value.code, err.value.where) == ("scalar_parse", "$.phi[26]")


# Strings missing from the table are found as one set and parsed once each;
# an item that is not a string or does not parse sends the whole vector
# through the ordered reader, which reports the first bad item.

KS3_DOC = serialize(group_algebra(QQ, symmetric_group_table(3), "kS3"), "kS3")


@pytest.mark.parametrize("f", [QQ, F5], ids=str)
@pytest.mark.parametrize("items, first", [
    ({215: "x"}, 215),                      # a bad scalar at the last index of phi
    ({100: 3}, 100),                        # a non-string in the middle
    ({50: ["1"]}, 50),                      # an unhashable item
    ({10: None, 200: "x"}, 10),             # the first bad item, whatever its kind
    ({10: "x", 200: ["1"]}, 10),
    ({7: "2", 150: "x", 151: 2.5}, 150),    # after a new good string
], ids=["bad_last", "int_middle", "list", "none_then_bad", "bad_then_list", "new_then_bad"])
def test_the_first_bad_item_of_kS3_phi_keeps_its_code_and_path(f, items, first):
    doc = dict(KS3_DOC, field=FIELD_DOCS[f], phi=list(KS3_DOC["phi"]))
    for k, item in items.items():
        doc["phi"][k] = item
    with pytest.raises(StructureFileError) as err:
        parse_document(doc)
    item = items[first]
    message = (_message(f, item) if isinstance(item, str)
               else "scalars must be strings, got %r" % (item,))
    assert (err.value.code, err.value.where, err.value.message) == (
        "scalar_parse", "$.phi[%d]" % first, message)
