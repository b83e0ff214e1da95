"""The JSON structure-file format: parsing, validation, serialisation.

Files carry a field declaration ({"type": "Q"} or {"type": "GFp", "p": p}),
a kind tag, and kind-specific tensor arrays with scalars written as strings
("3", "-1/2", or a plain residue mod p).  Parsing is strict: every failure
carries a distinct error code and the JSON path it happened at.  Parsing
then serialising then parsing again is the identity on in-memory objects.

Every array of every file is read by one reader, _array, given its shape
(sizes, outermost first), as the sparse matrix whose rows are its
innermost lists: mult (n, n, n) is the n^2 x n matrix with row i*n + j
the product e_i e_j, comult (n, n^2) its n rows, phi (n^3,) one row, a
module action (n, d, d) and a contraaction (d, d, n) one stack of slices.
It maps all the strings of an array through one table in C; on a bad
item it walks the array item by item, so the first list of a wrong
length or bad scalar is reported at its own path.  One writer, _json_array,
is its inverse: it fills each row with "0", formats only the stored
nonzeros and nests the rows by the shape.

Each parent kind is one ordered table of keys and shapes, which _read and
_write walk; the elements (unit, counit, alpha, beta) are kept as tuples.
One parent reader serves whole parent files and the parents embedded in
module, contramodule and algebra files, at their paths.  An embedded
parent is the supplied one when their canonical JSON agree, names aside.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from math import prod

from .fields import Field, FieldError, ScalarParseError, rationals, prime_field
from .linalg import Matrix, vstack
from .quasihopf import QuasiHopfAlgebra, HModule, shared
from .algebroid import BaseRing, HopfAlgebroid, tensor_over_base
from .coefficients import Contramodule, FLAVORS, ALGEBROID_MU
from .cyclic import ModuleAlgebra


class StructureFileError(ValueError):
    """A structure file failed to parse or validate."""

    def __init__(self, code: str, message: str, where: str = "$"):
        super().__init__("%s at %s: %s" % (code, where, message))
        self.code = code
        self.where = where
        self.message = message


def _want(doc, key, typ, where):
    """doc[key], refused unless it is a typ; a bool is not an int."""
    if key not in doc:
        raise StructureFileError("schema", "missing key %r" % key, where)
    val = doc[key]
    if not isinstance(val, typ) or (typ is int and isinstance(val, bool)):
        raise StructureFileError("schema", "key %r must be %s" % (key, typ.__name__),
                                 where + "." + key)
    return val


def parse_field(doc, where="$.field") -> Field:
    typ = _want(doc, "type", str, where)
    if typ == "Q":
        return rationals()
    if typ == "GFp":
        p = _want(doc, "p", int, where)
        try:
            return prime_field(p)
        except FieldError as e:
            raise StructureFileError("non_prime_characteristic", str(e), where) from None
    raise StructureFileError("schema", "unknown field type %r" % typ, where)


def _at(where, *index):
    """The location ``where[i][j]...``, formatted only when an error needs it."""
    return where + "".join("[%d]" % i for i in index)


def _scalar(f: Field, s, where, *index):
    if not isinstance(s, str):
        raise StructureFileError("scalar_parse", "scalars must be strings, got %r" % (s,),
                                 _at(where, *index))
    try:
        return f.parse(s)
    except ScalarParseError as e:
        raise StructureFileError("scalar_parse", str(e), _at(where, *index)) from None


def _dim(doc, where) -> int:
    """The dim key of doc, refused unless it is a positive integer."""
    n = _want(doc, "dim", int, where)
    if n <= 0:
        raise StructureFileError("dimension_mismatch", "dim must be positive", where + ".dim")
    return n


def _dense(f, doc, shape):
    """The scalars over f of the nested list doc of the given shape,
    flattened row-major and mapped in C through a table of the strings,
    each distinct one parsed once; None when some level is not lists of
    its size or some item is not a string that parses (the caller then
    walks doc item by item, reporting the first bad one at its path)."""
    rows = [doc]
    for level, size in enumerate(shape):
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {size}:
            return None
        if level < len(shape) - 1:
            rows = list(chain.from_iterable(rows))
    # "0" and "1", most strings of a file, need no parse in any field
    known = {"0": f.zero, "1": f.one}
    try:
        try:
            return list(map(known.__getitem__, chain.from_iterable(rows)))
        except KeyError:
            strings = set(chain.from_iterable(rows)).difference(known)
            if set(map(type, strings)) != {str}:
                return None
            known.update({s: f.parse(s) for s in strings})
            return list(map(known.__getitem__, chain.from_iterable(rows)))
    except (TypeError, ScalarParseError):
        return None


# the message for a list of the wrong length, by its depth above the scalars
_LENGTHS = ("expected a list of %d scalars", "expected %d rows", "expected %d slices")


def _walk(f, doc, shape, where, index=()):
    """The scalars of doc read item by item, in order: the first list of
    the wrong length, or item that is not a string that parses, is
    reported at its own path."""
    size, *inner = shape
    if not isinstance(doc, list) or len(doc) != size:
        raise StructureFileError("dimension_mismatch", _LENGTHS[len(inner)] % size,
                                 _at(where, *index))
    if not inner:
        return [_scalar(f, s, where, *index, i) for i, s in enumerate(doc)]
    return [a for i, item in enumerate(doc) for a in _walk(f, item, inner, where, (*index, i))]


def _array(f, doc, shape, where) -> Matrix:
    """The nested list doc at where of the given shape (its sizes,
    outermost first) as the matrix whose rows are its innermost lists:
    shape (n, n, n) gives the n^2 x n matrix with row i*n + j doc[i][j],
    and a flat list one row.  Only the nonzeros of the one row of its
    scalars are moved into the rows (``Matrix.reshaped``)."""
    values = _dense(f, doc, shape)
    if values is None:
        values = _walk(f, doc, shape, where)
    return Matrix.from_rows(f, [values]).reshaped(len(values) // shape[-1], shape[-1])


def _json_array(f, m: Matrix, shape):
    """The nested list of the given shape that _array reads as m: each row
    starts as the shared "0" (which Field.format gives for a zero), only
    the stored nonzeros are formatted, and the rows are nested by shape."""
    rows = []
    for i in range(m.rows):
        row = ["0"] * m.cols
        for j, a in m.row_map(i).items():
            row[j] = f.format(a)
        rows.append(row)
    for size in reversed(shape[1:-1]):
        rows = [rows[i:i + size] for i in range(0, len(rows), size)]
    return rows if len(shape) > 1 else rows[0]


# -- parents: one ordered table of keys and shapes per kind ------------------------
#
# A table lists, for the dims n of a structure and r of its base, the keys
# after "dim" in file order, each with the shape of its array.  The values
# come in the order of the constructor's arguments, and errors are reported
# at the first bad key in table order.  An element key's value is a tuple,
# every other key's the matrix that _array reads.

_PARENT_KINDS = ("quasi_hopf", "hopf_algebroid")
_ELEMENTS = frozenset(("unit", "counit", "alpha", "beta"))


def _base_keys(r, _):
    return (("mult", (r, r, r)), ("unit", (r,)))


def _quasi_hopf_keys(n, _):
    return (("mult", (n, n, n)), ("unit", (n,)), ("comult", (n, n * n)), ("counit", (n,)),
            ("antipode", (n, n)), ("antipode_inv", (n, n)), ("phi", (n ** 3,)),
            ("phi_inv", (n ** 3,)), ("alpha", (n,)), ("beta", (n,)))


def _hopf_algebroid_keys(n, r):
    return (("mult", (n, n, n)), ("unit", (n,)),
            ("s_l", (n, r)), ("t_l", (n, r)), ("s_r", (n, r)), ("t_r", (n, r)),
            ("delta_l_lift", (n * n, n)), ("delta_r_lift", (n * n, n)),
            ("eps_l", (r, n)), ("eps_r", (r, n)), ("antipode", (n, n)), ("antipode_inv", (n, n)))


def _read(f: Field, doc, keys, where, r=None):
    """The dim of doc at where and the values of the table keys(dim, r)."""
    n = _dim(doc, where)
    values = []
    for key, shape in keys(n, r):
        m = _array(f, _want(doc, key, list, where), shape, where + "." + key)
        values.append(m.row(0) if key in _ELEMENTS else m)
    return n, values


def _write(obj, keys, r=None) -> dict:
    """The dim of obj and the arrays of the table keys(dim, r), read back by _read."""
    f, doc = obj.field, {"dim": obj.dim}
    for key, shape in keys(obj.dim, r):
        value = getattr(obj, key)
        doc[key] = _json_array(f, Matrix.from_rows(f, [value]) if key in _ELEMENTS else value,
                               shape)
    return doc


def _parse_base(f: Field, doc, where) -> BaseRing:
    """A base ring {"dim", "mult", "unit"} at the location where."""
    r, values = _read(f, doc, _base_keys, where)
    return BaseRing(f, r, *values)


def _name(doc, where) -> str:
    """The optional name of doc, refused unless it is a string."""
    return _want(doc, "name", str, where) if "name" in doc else ""


def _parse_parent(f: Field, doc, where):
    """The quasi_hopf or hopf_algebroid structure of doc at where, a whole
    document or an embedded parent, over the field f."""
    kind = _want(doc, "kind", str, where)
    name = _name(doc, where)
    if kind == "quasi_hopf":
        n, values = _read(f, doc, _quasi_hopf_keys, where)
        return QuasiHopfAlgebra(f, n, *values, name=name)
    if kind == "hopf_algebroid":
        base = _parse_base(f, _want(doc, "base", dict, where), where + ".base")
        n, values = _read(f, doc, _hopf_algebroid_keys, where, base.dim)
        return HopfAlgebroid(base, n, *values, name=name)
    raise StructureFileError("schema", "embedded parent has bad kind %r" % kind, where)


def _write_parent(H):
    """The kind of a quasi-Hopf or algebroid parent and the keys of its
    document that _parse_parent reads."""
    if isinstance(H, QuasiHopfAlgebra):
        return "quasi_hopf", _write(H, _quasi_hopf_keys)
    return "hopf_algebroid", {"base": _write(H.base, _base_keys),
                              **_write(H, _hopf_algebroid_keys, H.base.dim)}


# -- modules, coefficients, algebras --------------------------------------------------

def _write_module(M) -> dict:
    """The dim and action of a module payload, read back by _parse_module_payload."""
    n, d = M.parent.dim, M.dim
    return {"dim": d, "action": _json_array(M.parent.field, vstack(
        M.parent.field, d, [m.transpose() for m in M.mats]), (n, d, d))}


def _parse_module_payload(f, doc, parent, where):
    """action[i][a][b]: coefficient of v_b in e_i . v_a, each slice the
    transpose of a stored matrix."""
    n, d = parent.dim, _dim(doc, where)
    action = _array(f, _want(doc, "action", list, where), (n, d, d), where + ".action")
    return HModule(parent, [m.transpose() for m in action.row_blocks(d)],
                   name=_name(doc, where))


def serialize(obj, name: str = "") -> dict:
    """Canonical JSON document for any supported in-memory structure."""
    out, parent = _document(obj, name)
    if parent is not None:
        out["parent"] = serialize(parent, parent.name)
    return out


def _name_of(obj, name: str) -> str:
    return name or getattr(obj, "name", "") or "unnamed"


def _document(obj, name: str):
    """The document of obj but its embedded parent, and that parent (None
    for a parent kind)."""
    if isinstance(obj, (QuasiHopfAlgebra, HopfAlgebroid)):
        kind, doc = _write_parent(obj)
    elif isinstance(obj, Contramodule):
        n, d = obj.parent.dim, obj.carrier.dim
        kind, doc = "contramodule", {
            "flavor": obj.flavor,
            "module": _write_module(obj.carrier),
            # slice i is row i of mu read as d x n
            "contraaction": _json_array(obj.field, obj.mu.reshaped(d * d, n), (d, d, n)),
        }
    elif isinstance(obj, ModuleAlgebra):
        rel = obj.parent.tensor_relations(obj.carrier, obj.carrier)
        d = obj.carrier.dim
        kind, doc = "module_algebra", {
            "module": _write_module(obj.carrier),
            "mult": _json_array(obj.field, obj.mult * rel.projector, (d, d * d)),
            "unit": _json_array(obj.field, obj.unit, (d, obj.unit.cols)),
        }
    elif isinstance(obj, HModule):
        kind, doc = "module", _write_module(obj)
    else:
        raise TypeError("cannot serialise %r" % type(obj))
    parent = None if kind in _PARENT_KINDS else obj.parent
    field = (obj if parent is None else parent).field
    out = {"kind": kind, "name": _name_of(obj, name),
           "field": {"type": "Q"} if field.kind == "Q" else {"type": "GFp", "p": field.p}}
    out.update(doc)
    return out, parent


@shared
def _parent_json(parent) -> dict:
    """The canonical JSON of each key of the document of parent but its
    name: made once per build scope, so that a command serialises and
    encodes its parent once for every embedded parent it compares and
    every content hash it takes."""
    doc, _ = _document(parent, "")
    del doc["name"]
    return {key: _Json(_canonical(value)) for key, value in doc.items()}


def _named_parent_json(parent, name: str) -> str:
    """The canonical JSON of the document of parent under name."""
    return _canonical({**_parent_json(parent), "name": name})


def _written_as(pdoc, parent, where) -> bool:
    """Whether the embedded parent document pdoc, its name aside, is the
    JSON that serialize writes for parent: it then parses to parent, so it
    needs no parse.  A name that is not a string is still refused."""
    _name(pdoc, where)
    try:
        mine = _canonical({**pdoc, "name": ""})
    except (TypeError, ValueError):
        return False  # no JSON document: the parse reports it
    return mine == _named_parent_json(parent, "")


def parse_document(doc, parent=None):
    """Parse a loaded JSON document into an in-memory structure.

    ``parent``, a parent structure, overrides (and is checked against) the
    embedded one for module, contramodule and module_algebra kinds."""
    if not isinstance(doc, dict):
        raise StructureFileError("schema", "top level must be an object")
    f = parse_field(_want(doc, "field", dict, "$"))
    kind = _want(doc, "kind", str, "$")
    if kind in _PARENT_KINDS:
        return _parse_parent(f, doc, "$")
    if parent is not None and not isinstance(parent, (QuasiHopfAlgebra, HopfAlgebroid)):
        raise StructureFileError("incompatible_kinds", "the supplied %s is not a parent "
                                 "structure" % type(parent).__name__, "$")
    _name(doc, "$")  # checked, though only a module keeps its name

    embedded = None
    if "parent" in doc:
        pdoc = _want(doc, "parent", dict, "$")
        if parse_field(_want(pdoc, "field", dict, "$.parent"), "$.parent.field") != f:
            raise StructureFileError("incompatible_kinds", "embedded parent field "
                                     "differs from the document's", "$.parent.field")
        if parent is None or not _written_as(pdoc, parent, "$.parent"):
            embedded = _parse_parent(f, pdoc, "$.parent")
    if parent is not None and embedded is not None:
        if _parent_json(embedded) != _parent_json(parent):
            raise StructureFileError(
                "incompatible_kinds",
                "embedded parent differs from the supplied structure", "$.parent")
    use_parent = parent if parent is not None else embedded
    if use_parent is None:
        raise StructureFileError("schema",
                                 "kind %r needs a parent structure" % kind, "$")
    if use_parent.field != f:
        raise StructureFileError("incompatible_kinds",
                                 "field mismatch with parent structure", "$.field")

    if kind == "module":
        return _parse_module_payload(f, doc, use_parent, "$")
    if kind == "contramodule":
        flavor = _want(doc, "flavor", str, "$")
        if flavor not in FLAVORS:
            raise StructureFileError("schema", "unknown flavor %r" % flavor, "$.flavor")
        carrier = _parse_module_payload(f, _want(doc, "module", dict, "$"), use_parent,
                                        "$.module")
        d, n = carrier.dim, use_parent.dim
        # row i of the contraaction is slice i read row-major
        mu = _array(f, _want(doc, "contraaction", list, "$"), (d, d, n),
                    "$.contraaction").reshaped(d, d * n)
        want_algebroid = isinstance(use_parent, HopfAlgebroid)
        if want_algebroid != (flavor == ALGEBROID_MU):
            raise StructureFileError("incompatible_kinds",
                                     "flavor %s does not match parent kind"
                                     % flavor, "$.flavor")
        return Contramodule(carrier, mu, flavor)
    if kind == "module_algebra":
        carrier = _parse_module_payload(f, _want(doc, "module", dict, "$"), use_parent,
                                        "$.module")
        d = carrier.dim
        amb = _array(f, _want(doc, "mult", list, "$"), (d, d * d), "$.mult")
        unit_doc = _want(doc, "unit", list, "$")
        if isinstance(use_parent, HopfAlgebroid):
            _, rel = tensor_over_base(carrier, carrier)
            mult = amb * rel.lift
            if mult * rel.projector != amb:
                raise StructureFileError(
                    "dimension_mismatch",
                    "multiplication is not constant on base-tensor classes",
                    "$.mult")
            shape = (d, use_parent.base.dim)
        else:
            mult = amb
            # a unit of one column may be written as a flat list
            shape = (d,) if unit_doc and not isinstance(unit_doc[0], list) else (d, 1)
        unit = _array(f, unit_doc, shape, "$.unit").reshaped(d, prod(shape) // d)
        return ModuleAlgebra(carrier, mult, unit)
    raise StructureFileError("schema", "unknown kind %r" % kind, "$.kind")


def parse_structure(path, parent=None):
    """Load and validate a structure file.  Returns the in-memory object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise StructureFileError("io", str(e)) from None
    except json.JSONDecodeError as e:
        raise StructureFileError("json", str(e)) from None
    return parse_document(doc, parent=parent)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Json(str):
    """A value already written as canonical JSON, which _canonical copies."""


def _plain_array(x):
    """The JSON of x, a list with an item at the end of its first items,
    when it is a rectangular array (lists of one length at each depth) of
    plain strings, which JSON writes unescaped: printable ASCII with no
    quote or backslash.  Its strings are checked in one pass and each
    innermost list written by one join; None otherwise."""
    widths, flat = [], [x]
    while type(flat[0]) is list:
        if set(map(type, flat)) != {list} or len(set(map(len, flat))) != 1:
            return None
        widths.append(len(flat[0]))
        flat = list(chain.from_iterable(flat))
    try:
        body = "".join(flat)
    except TypeError:
        return None
    if not (widths and body.isascii() and body.isprintable()
            and '"' not in body and "\\" not in body):
        return None
    w = widths.pop()
    parts = ['["%s"]' % '","'.join(flat[i:i + w]) for i in range(0, len(flat), w)]
    for w in reversed(widths):
        parts = ["[%s]" % ",".join(parts[i:i + w]) for i in range(0, len(parts), w)]
    return parts[0]


# json's C encoder writes a small array faster than the Python steps of
# _plain_array: only arrays of at least this many entries are joined
_JOIN_MIN = 256


def _large(x) -> bool:
    """Whether x is a list of at least _JOIN_MIN entries, counted along its
    first items, or written JSON, or a dict that holds one at some depth."""
    if type(x) is dict:
        return any(map(_large, x.values()))
    if type(x) is _Json:
        return True
    n = 1
    while type(x) is list and x:
        n *= len(x)
        x = x[0]
    return n >= _JOIN_MIN


def _canonical(x) -> str:
    """x as json.dumps(x, sort_keys=True, separators=(",", ":")) writes it:
    a large array of plain strings by _plain_array, a dict with string keys
    that holds one key by key, written JSON as it is, and everything else
    by json."""
    if type(x) is _Json:
        return x
    if not _large(x):
        return _encode(x)
    if type(x) is dict and all(type(k) is str for k in x):
        return "{%s}" % ",".join(_encode(k) + ":" + _canonical(x[k]) for k in sorted(x))
    return (type(x) is list and _plain_array(x)) or _encode(x)


def canonical_bytes(doc: dict) -> bytes:
    """The canonical JSON of doc: sorted keys, no spaces, ASCII."""
    return _canonical(doc).encode("utf-8")


def content_hash(obj, name: str = "") -> str:
    """sha256 of the canonicalised JSON serialisation, with the parent's
    keys read from _parent_json."""
    if isinstance(obj, (QuasiHopfAlgebra, HopfAlgebroid)):
        doc = {**_parent_json(obj), "name": _name_of(obj, name)}
    else:
        doc, parent = _document(obj, name)
        doc["parent"] = _Json(_named_parent_json(parent, _name_of(parent, "")))
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def write_structure(path, obj, name: str = ""):
    doc = serialize(obj, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
