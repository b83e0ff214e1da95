"""The JSON structure-file format: parsing, validation, serialisation.

Files carry a field declaration ({"type": "Q"} or {"type": "GFp", "p": p}),
a kind tag, and kind-specific tensor arrays with scalars written as strings
("3", "-1/2", or a plain residue mod p).  Parsing is strict: every failure
carries a distinct error code and the JSON path it happened at.  Parsing
then serialising then parsing again is the identity on in-memory objects.
"""

from __future__ import annotations

import hashlib
import json

from .fields import Field, FieldError, ScalarParseError, rationals, prime_field
from .linalg import Matrix, vstack
from .quasihopf import QuasiHopfAlgebra, HModule
from .algebroid import BaseRing, HopfAlgebroid, AlgebroidModule
from .coefficients import Contramodule, HOPF_MU, QUASI_I, QUASI_II, ALGEBROID_MU
from .cyclic import ModuleAlgebra

FLAVOR_TAGS = {
    "hopf_mu": HOPF_MU,
    "quasi_type_I": QUASI_I,
    "quasi_type_II": QUASI_II,
    "algebroid_mu": ALGEBROID_MU,
}
FLAVOR_NAMES = {v: k for k, v in FLAVOR_TAGS.items()}


class StructureFileError(ValueError):
    """A structure file failed to parse or validate."""

    def __init__(self, code: str, message: str, where: str = "$"):
        super().__init__("%s at %s: %s" % (code, where, message))
        self.code = code
        self.where = where
        self.message = message


def _want(doc, key, typ, where):
    if key not in doc:
        raise StructureFileError("schema", "missing key %r" % key, where)
    val = doc[key]
    if typ is not None and not isinstance(val, typ):
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


def _vector(f, doc, length, where, *index):
    if not isinstance(doc, list) or len(doc) != length:
        raise StructureFileError("dimension_mismatch",
                                 "expected a list of %d scalars" % length, _at(where, *index))
    return tuple(_scalar(f, s, where, *index, i) for i, s in enumerate(doc))


def _matrix(f, doc, rows, cols, where, *index) -> Matrix:
    if not isinstance(doc, list) or len(doc) != rows:
        raise StructureFileError("dimension_mismatch",
                                 "expected %d rows" % rows, _at(where, *index))
    ent = []
    for i, row in enumerate(doc):
        ent.extend(_vector(f, row, cols, where, *index, i))
    return Matrix(f, rows, cols, ent)


def _tensor3(f, doc, n, where):
    """A nested n x n x n array, flattened row-major."""
    if not isinstance(doc, list) or len(doc) != n:
        raise StructureFileError("dimension_mismatch", "expected %d slices" % n, where)
    out = []
    for i, slab in enumerate(doc):
        if not isinstance(slab, list) or len(slab) != n:
            raise StructureFileError("dimension_mismatch", "expected %d rows" % n,
                                     _at(where, i))
        for j, row in enumerate(slab):
            out.extend(_vector(f, row, n, where, i, j))
    return tuple(out)


def _unflatten3(field, flat, n):
    fmt = field.format
    return [[[fmt(flat[(i * n + j) * n + k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _fmt_vec(field, vec):
    return [field.format(a) for a in vec]


def _fmt_matrix(field, m: Matrix):
    return [[field.format(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]


# -- quasi-Hopf algebras -----------------------------------------------------------

def _parse_quasi_hopf(f: Field, doc, name) -> QuasiHopfAlgebra:
    n = _dim(doc, "$")
    mult = _tensor3(f, _want(doc, "mult", list, "$"), n, "$.mult")
    unit = _vector(f, _want(doc, "unit", list, "$"), n, "$.unit")
    comult = _want(doc, "comult", list, "$")
    if len(comult) != n:
        raise StructureFileError("dimension_mismatch", "comult needs %d rows" % n,
                                 "$.comult")
    comult = [_vector(f, row, n * n, "$.comult", i)
              for i, row in enumerate(comult)]
    counit = _vector(f, _want(doc, "counit", list, "$"), n, "$.counit")
    s = _matrix(f, _want(doc, "antipode", list, "$"), n, n, "$.antipode")
    s_inv = _matrix(f, _want(doc, "antipode_inv", list, "$"), n, n, "$.antipode_inv")
    phi = _vector(f, _want(doc, "phi", list, "$"), n ** 3, "$.phi")
    phi_inv = _vector(f, _want(doc, "phi_inv", list, "$"), n ** 3, "$.phi_inv")
    alpha = _vector(f, _want(doc, "alpha", list, "$"), n, "$.alpha")
    beta = _vector(f, _want(doc, "beta", list, "$"), n, "$.beta")
    return QuasiHopfAlgebra(f, n, mult, unit, comult, counit, s, s_inv,
                            phi, phi_inv, alpha, beta, name=name)


def _serialize_quasi_hopf(H: QuasiHopfAlgebra):
    f = H.field
    return {
        "dim": H.dim,
        "mult": _unflatten3(f, H.mult, H.dim),
        "unit": _fmt_vec(f, H.unit),
        "comult": [_fmt_vec(f, row) for row in H.comult],
        "counit": _fmt_vec(f, H.counit),
        "antipode": _fmt_matrix(f, H.antipode),
        "antipode_inv": _fmt_matrix(f, H.antipode_inv),
        "phi": _fmt_vec(f, H.phi),
        "phi_inv": _fmt_vec(f, H.phi_inv),
        "alpha": _fmt_vec(f, H.alpha),
        "beta": _fmt_vec(f, H.beta),
    }


# -- Hopf algebroids ----------------------------------------------------------------

def _parse_base(f: Field, doc, where) -> BaseRing:
    """A base ring {"dim", "mult", "unit"} at the location where."""
    r = _dim(doc, where)
    return BaseRing(f, r, _tensor3(f, _want(doc, "mult", list, where), r, where + ".mult"),
                    _vector(f, _want(doc, "unit", list, where), r, where + ".unit"))


def _parse_hopf_algebroid(f: Field, doc, name) -> HopfAlgebroid:
    base = _parse_base(f, _want(doc, "base", dict, "$"), "$.base")
    r = base.dim
    n = _dim(doc, "$")
    mult = _tensor3(f, _want(doc, "mult", list, "$"), n, "$.mult")
    unit = _vector(f, _want(doc, "unit", list, "$"), n, "$.unit")
    mats = {}
    for key, shape in (("s_l", (n, r)), ("t_l", (n, r)), ("s_r", (n, r)),
                       ("t_r", (n, r)), ("delta_l_lift", (n * n, n)),
                       ("delta_r_lift", (n * n, n)), ("eps_l", (r, n)),
                       ("eps_r", (r, n)), ("antipode", (n, n)),
                       ("antipode_inv", (n, n))):
        mats[key] = _matrix(f, _want(doc, key, list, "$"), shape[0], shape[1],
                            "$." + key)
    return HopfAlgebroid(base, n, mult, unit, mats["s_l"], mats["t_l"],
                         mats["s_r"], mats["t_r"], mats["delta_l_lift"],
                         mats["delta_r_lift"], mats["eps_l"], mats["eps_r"],
                         mats["antipode"], mats["antipode_inv"], name=name)


def _serialize_hopf_algebroid(H: HopfAlgebroid):
    f = H.field
    return {
        "base": {
            "dim": H.base.dim,
            "mult": _unflatten3(f, H.base.mult, H.base.dim),
            "unit": _fmt_vec(f, H.base.unit),
        },
        "dim": H.dim,
        "mult": _unflatten3(f, H.mult, H.dim),
        "unit": _fmt_vec(f, H.unit),
        "s_l": _fmt_matrix(f, H.s_l), "t_l": _fmt_matrix(f, H.t_l),
        "s_r": _fmt_matrix(f, H.s_r), "t_r": _fmt_matrix(f, H.t_r),
        "delta_l_lift": _fmt_matrix(f, H.delta_l_lift),
        "delta_r_lift": _fmt_matrix(f, H.delta_r_lift),
        "eps_l": _fmt_matrix(f, H.eps_l), "eps_r": _fmt_matrix(f, H.eps_r),
        "antipode": _fmt_matrix(f, H.antipode),
        "antipode_inv": _fmt_matrix(f, H.antipode_inv),
    }


# -- modules, coefficients, algebras --------------------------------------------------

def _parse_action(f, doc, n, d, where):
    """action[i][a][b]: coefficient of v_b in e_i . v_a, as stored matrices."""
    if not isinstance(doc, list) or len(doc) != n:
        raise StructureFileError("dimension_mismatch",
                                 "action needs %d slices" % n, where)
    mats = []
    for i, slab in enumerate(doc):
        m = _matrix(f, slab, d, d, where, i)
        mats.append(m.transpose())
    return mats


def _serialize_action(field, mats):
    return [_fmt_matrix(field, m.transpose()) for m in mats]


def _module_cls(parent):
    return HModule if isinstance(parent, QuasiHopfAlgebra) else AlgebroidModule


def _parse_module_payload(f, doc, parent, where):
    d = _dim(doc, where)
    mats = _parse_action(f, _want(doc, "action", list, where), parent.dim, d,
                         where + ".action")
    return _module_cls(parent)(parent, mats, name=doc.get("name", ""))


def _parse_parent(f, doc, where):
    kind = _want(doc, "kind", str, where)
    name = doc.get("name", "")
    if kind == "quasi_hopf":
        return _parse_quasi_hopf(f, doc, name)
    if kind == "hopf_algebroid":
        return _parse_hopf_algebroid(f, doc, name)
    raise StructureFileError("schema", "embedded parent has bad kind %r" % kind, where)


def serialize(obj, name: str = "") -> dict:
    """Canonical JSON document for any supported in-memory structure."""
    if isinstance(obj, QuasiHopfAlgebra):
        doc = _serialize_quasi_hopf(obj)
        kind = "quasi_hopf"
        field = obj.field
    elif isinstance(obj, HopfAlgebroid):
        doc = _serialize_hopf_algebroid(obj)
        kind = "hopf_algebroid"
        field = obj.field
    elif isinstance(obj, Contramodule):
        field = obj.field
        parent = obj.parent
        doc = {
            "flavor": FLAVOR_NAMES[obj.flavor],
            "module": {
                "dim": obj.carrier.dim,
                "action": _serialize_action(field, obj.carrier.mats),
            },
            "contraaction": [
                [[field.format(obj.mu.get(i, j * parent.dim + a))
                  for a in range(parent.dim)]
                 for j in range(obj.carrier.dim)]
                for i in range(obj.carrier.dim)],
            "parent": serialize(parent, parent.name),
        }
        kind = "contramodule"
    elif isinstance(obj, ModuleAlgebra):
        field = obj.field
        parent = obj.parent
        d = obj.carrier.dim
        rel = parent.tensor_relations(obj.carrier, obj.carrier)
        amb = obj.mult if rel is None else obj.mult * rel.projector
        doc = {
            "module": {
                "dim": d,
                "action": _serialize_action(field, obj.carrier.mats),
            },
            "mult": _fmt_matrix(field, amb),
            "unit": _fmt_matrix(field, obj.unit),
            "parent": serialize(parent, parent.name),
        }
        kind = "module_algebra"
    elif isinstance(obj, (HModule, AlgebroidModule)):
        field = obj.parent.field
        doc = {
            "dim": obj.dim,
            "action": _serialize_action(field, obj.mats),
            "parent": serialize(obj.parent, obj.parent.name),
        }
        kind = "module"
    else:
        raise TypeError("cannot serialise %r" % type(obj))
    out = {"kind": kind, "name": name or getattr(obj, "name", "") or "unnamed"}
    if field.kind == "Q":
        out["field"] = {"type": "Q"}
    else:
        out["field"] = {"type": "GFp", "p": field.p}
    out.update(doc)
    return out


def parse_document(doc, parent=None):
    """Parse a loaded JSON document into an in-memory structure.

    ``parent`` overrides (and is checked against) an embedded parent for
    module, contramodule and module_algebra kinds."""
    if not isinstance(doc, dict):
        raise StructureFileError("schema", "top level must be an object")
    f = parse_field(_want(doc, "field", dict, "$"))
    kind = _want(doc, "kind", str, "$")
    name = doc.get("name", "")
    if kind == "quasi_hopf":
        return _parse_quasi_hopf(f, doc, name)
    if kind == "hopf_algebroid":
        return _parse_hopf_algebroid(f, doc, name)

    embedded = None
    if "parent" in doc:
        embedded = _parse_parent(f, _want(doc, "parent", dict, "$"), "$.parent")
    if parent is not None and embedded is not None:
        if serialize(parent, "x") != serialize(embedded, "x"):
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
        flavor_tag = _want(doc, "flavor", str, "$")
        if flavor_tag not in FLAVOR_TAGS:
            raise StructureFileError("schema", "unknown flavor %r" % flavor_tag,
                                     "$.flavor")
        carrier = _parse_module_payload(f, _want(doc, "module", dict, "$"), use_parent,
                                        "$.module")
        d, n = carrier.dim, use_parent.dim
        raw = _want(doc, "contraaction", list, "$")
        if len(raw) != d:
            raise StructureFileError("dimension_mismatch",
                                     "contraaction needs %d slices" % d,
                                     "$.contraaction")
        # row i of the contraaction is slice i read row-major
        mu = vstack(f, d * n, [_matrix(f, slab, d, n, "$.contraaction", i).reshaped(1, d * n)
                               for i, slab in enumerate(raw)])
        flavor = FLAVOR_TAGS[flavor_tag]
        want_algebroid = isinstance(use_parent, HopfAlgebroid)
        if want_algebroid != (flavor == ALGEBROID_MU):
            raise StructureFileError("incompatible_kinds",
                                     "flavor %s does not match parent kind"
                                     % flavor_tag, "$.flavor")
        return Contramodule(carrier, mu, flavor)
    if kind == "module_algebra":
        carrier = _parse_module_payload(f, _want(doc, "module", dict, "$"), use_parent,
                                        "$.module")
        d = carrier.dim
        amb = _matrix(f, _want(doc, "mult", list, "$"), d, d * d, "$.mult")
        unit_doc = _want(doc, "unit", list, "$")
        if isinstance(use_parent, HopfAlgebroid):
            from .algebroid import tensor_over_base
            _, rel = tensor_over_base(carrier, carrier)
            mult = amb * rel.lift
            if mult * rel.projector != amb:
                raise StructureFileError(
                    "dimension_mismatch",
                    "multiplication is not constant on base-tensor classes",
                    "$.mult")
            unit = _matrix(f, unit_doc, d, use_parent.base.dim, "$.unit")
        else:
            mult = amb
            if unit_doc and not isinstance(unit_doc[0], list):
                unit = Matrix.from_cols(
                    f, [_vector(f, unit_doc, d, "$.unit")], ambient=d)
            else:
                unit = _matrix(f, unit_doc, d, 1, "$.unit")
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


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def content_hash(obj, name: str = "") -> str:
    """sha256 of the canonicalised JSON serialisation."""
    return hashlib.sha256(canonical_bytes(serialize(obj, name))).hexdigest()


def write_structure(path, obj, name: str = ""):
    doc = serialize(obj, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
