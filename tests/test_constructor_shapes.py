"""The constructors refuse data of the wrong shape with a StructureError.

One case per data argument of each parent: that argument alone is
truncated (a tuple loses its last entry, a matrix its last row), the
others are taken from a valid parent.  The cases are read from the
constructors' signatures, so a new data argument gets a case of its own.
"""

import inspect

import pytest

from qha.linalg import Matrix
from qha.quasihopf import (QuasiHopfAlgebra, HModule, StructureError, group_algebra,
                           cyclic_group_table, trivial_module)
from qha.algebroid import BaseRing, HopfAlgebroid, base_ring_dual_numbers, enveloping_algebroid
from qha.coefficients import Contramodule, HOPF_MU

from conftest import QQ

# constructor arguments that are not structure data
NOT_DATA = {"self", "field", "base", "dim", "name"}


def _data_args(cls):
    return [p for p in inspect.signature(cls.__init__).parameters if p not in NOT_DATA]


def _valid(cls):
    if cls is QuasiHopfAlgebra:
        return group_algebra(QQ, cyclic_group_table(2))
    R = base_ring_dual_numbers(QQ)
    return R if cls is BaseRing else enveloping_algebroid(R)


def _truncated(value):
    if isinstance(value, Matrix):
        return Matrix.zeros(value.field, value.rows - 1, value.cols)
    return tuple(value)[:-1]


@pytest.mark.parametrize("cls, arg", [(cls, arg)
                                      for cls in (QuasiHopfAlgebra, HopfAlgebroid, BaseRing)
                                      for arg in _data_args(cls)],
                         ids=lambda x: getattr(x, "__name__", x))
def test_a_parent_refuses_a_truncated_argument(cls, arg):
    H = _valid(cls)
    kwargs = {p: getattr(H, p) for p in inspect.signature(cls.__init__).parameters
              if p != "self"}
    cls(**kwargs)
    kwargs[arg] = _truncated(kwargs[arg])
    with pytest.raises(StructureError):
        cls(**kwargs)


@pytest.mark.parametrize("mats, message", [
    ([Matrix.identity(QQ, 2)], "^need 2 action matrices$"),
    ([Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 3)],
     "^action matrices must be square of equal size$"),
    ([Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)],
     "^action matrices must be square of equal size$"),
], ids=["count", "not-square", "unequal-sizes"])
def test_a_module_refuses_malformed_action_matrices(mats, message):
    with pytest.raises(StructureError, match=message):
        HModule(_valid(QuasiHopfAlgebra), mats)


def test_a_contramodule_refuses_a_contraaction_of_the_wrong_shape():
    k = trivial_module(_valid(QuasiHopfAlgebra))
    Contramodule(k, Matrix.zeros(QQ, 1, 2), HOPF_MU)
    with pytest.raises(StructureError, match="^contraaction must be 1x2$"):
        Contramodule(k, Matrix.zeros(QQ, 1, 1), HOPF_MU)
