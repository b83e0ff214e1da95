"""The derived maps of seven Hopf algebroids, pinned by digest.

Each algebroid pins its content hash (every stored structure map), the
base module, both unitors on the base and on the regular module, the
relation subspaces rel_l and rel_r, and the four axiom reports.  The
digests were recorded when these maps were still built entry by entry, so
any change in how they are built must leave every matrix, subspace and
report as it was.  Matrices are digested through their dense entries,
which do not depend on the order in which a row stores its nonzeros.
"""

import hashlib
import json

import pytest

from qha.fields import prime_field
from qha.quasihopf import group_algebra, cyclic_group_table, sweedler_h4, regular_module
from qha.algebroid import (base_ring_dual_numbers, base_ring_scalars, enveloping_algebroid,
                           algebroid_from_hopf, base_module,
                           check_algebroid_structure, check_left_bialgebroid,
                           check_right_bialgebroid, check_hopf_algebroid)
from qha.structures import content_hash

from conftest import QQ, F5, base_ring_t2

F7 = prime_field(7)

ALGEBROIDS = {
    "env-Q": lambda: enveloping_algebroid(base_ring_dual_numbers(QQ)),
    "env-F5": lambda: enveloping_algebroid(base_ring_dual_numbers(F5)),
    "T2e-Q": lambda: enveloping_algebroid(base_ring_t2(QQ)),
    "T2e-F5": lambda: enveloping_algebroid(base_ring_t2(F5)),
    "ke-F7": lambda: enveloping_algebroid(base_ring_scalars(F7)),
    "H4-Q": lambda: algebroid_from_hopf(sweedler_h4(QQ)),
    "kC3-F7": lambda: algebroid_from_hopf(group_algebra(F7, cyclic_group_table(3), "kC3")),
}

# recorded from the entry-by-entry construction: the content hash, then
# the first 16 hex digits of the sha256 of each group of derived objects
PINNED = {
    "env-Q": (
        "1ee3360e22172b143a83ec6e3ad176103b3fa6c0e0afef043741aeb7b7df62b5",
        {"base_module": "1e15658e01fbbfe7",
         "unitors_base": "9e3a856e0a33b399",
         "unitors_regular": "5e5b8b9005b51664",
         "rel_l": "c4be70d52d3abd95",
         "rel_r": "c4be70d52d3abd95",
         "reports": "424a2019858b5c0a"}),
    "env-F5": (
        "96a171337ce120f41abb5fce91a23e1db4f1f267bc95700f88f5cd0b91728222",
        {"base_module": "1e15658e01fbbfe7",
         "unitors_base": "9e3a856e0a33b399",
         "unitors_regular": "5e5b8b9005b51664",
         "rel_l": "89f807a05be9e0ee",
         "rel_r": "89f807a05be9e0ee",
         "reports": "424a2019858b5c0a"}),
    "T2e-Q": (
        "7c7e7379063decfb6c8f60f77b9b83952534265cacbead376472440e0d4fc9ad",
        {"base_module": "f07a4cdeac2ebfde",
         "unitors_base": "a9495ad073f15ac9",
         "unitors_regular": "e8c2f3bfca9b5da6",
         "rel_l": "6b601901be596e6c",
         "rel_r": "4d914f143c5a0140",
         "reports": "424a2019858b5c0a"}),
    "T2e-F5": (
        "ce4e06a283dee7d6524885423f5dbe2424dd560dbdbd8ec8a6a52144aea6dc45",
        {"base_module": "f07a4cdeac2ebfde",
         "unitors_base": "a9495ad073f15ac9",
         "unitors_regular": "e8c2f3bfca9b5da6",
         "rel_l": "80b03cab9918d134",
         "rel_r": "65cdd7e5484b142d",
         "reports": "424a2019858b5c0a"}),
    "ke-F7": (
        "2fd1313e4fa881050ee815db6a1c2bfdad45eae8c793e635e4db8d965f03bd00",
        {"base_module": "b52d3fe441758d2c",
         "unitors_base": "912ef78c47e9b8a3",
         "unitors_regular": "912ef78c47e9b8a3",
         "rel_l": "ae9bff6b495276c2",
         "rel_r": "ae9bff6b495276c2",
         "reports": "424a2019858b5c0a"}),
    "H4-Q": (
        "87e8c6438bfae8cba7a8e954f2fa9e64aad7c5b742142f110b7ef402deaada96",
        {"base_module": "412af31d54061b24",
         "unitors_base": "912ef78c47e9b8a3",
         "unitors_regular": "5e5b8b9005b51664",
         "rel_l": "f88ff090fe6b7104",
         "rel_r": "f88ff090fe6b7104",
         "reports": "424a2019858b5c0a"}),
    "kC3-F7": (
        "effb0079396f3942c44ca8fca1bff52fb677b9e0b983acbddb36950b9a95fb73",
        {"base_module": "56c84ba2bdcb6914",
         "unitors_base": "912ef78c47e9b8a3",
         "unitors_regular": "a9495ad073f15ac9",
         "rel_l": "cb63a0febf9464f7",
         "rel_r": "cb63a0febf9464f7",
         "reports": "424a2019858b5c0a"}),
}


def _canonical(obj, fmt):
    """A JSON-ready form of a matrix, a subspace or a report."""
    if hasattr(obj, "basis_matrix"):
        obj = obj.basis_matrix()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return [obj.rows, obj.cols, [fmt(a) for a in obj.entries]]


def _digest(fmt, *objs):
    text = json.dumps([_canonical(o, fmt) for o in objs], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def derived_digests(H):
    fmt = H.field.format
    R, reg = base_module(H), regular_module(H)
    return {
        "base_module": _digest(fmt, *R.mats),
        "unitors_base": _digest(fmt, H.left_unitor(R), H.right_unitor(R)),
        "unitors_regular": _digest(fmt, H.left_unitor(reg), H.right_unitor(reg)),
        "rel_l": _digest(fmt, H.rel_l),
        "rel_r": _digest(fmt, H.rel_r),
        "reports": _digest(fmt, check_algebroid_structure(H), check_left_bialgebroid(H),
                           check_right_bialgebroid(H), check_hopf_algebroid(H)),
    }


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_derived_maps_are_pinned(name):
    H = ALGEBROIDS[name]()
    want_hash, want = PINNED[name]
    assert content_hash(H, name) == want_hash
    assert derived_digests(H) == want
