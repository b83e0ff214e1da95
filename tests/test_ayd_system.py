"""The linear aYD system and the aYD checks read the same sides.

At any contraaction mu, solution or not, ayd_compatibility_system(M, flavor)
applied to the row-major vec(mu) vanishes exactly when the flavor's aYD
entry passes, and its first nonzero row, read as (h, f_row, f_col, coord),
names that entry's witness (h, f_row, f_col).
"""

import pytest
from hypothesis import given, settings, strategies as st

from qha.linalg import Matrix
from qha.coefficients import (Contramodule, HOPF_MU, QUASI_I, QUASI_II, ayd_compatibility_system,
                              check_ayd_hopf, check_ayd_quasi_I, check_ayd_quasi_II)

from conftest import random_module

# flavor -> (the check holding the system's equation, that entry's id)
ENTRIES = {HOPF_MU: (check_ayd_hopf, "ayd_eq_two"),
           QUASI_I: (check_ayd_quasi_I, "ayd_type_I"),
           QUASI_II: (check_ayd_quasi_II, "ayd_type_II")}


@pytest.mark.parametrize("parent, flavor", [("h4", HOPF_MU), ("h4", QUASI_I), ("h4", QUASI_II),
                                            ("twisted", QUASI_I), ("twisted", QUASI_II)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_system_rows_are_the_check_instances(h4_q, twisted_q, parent, flavor, data):
    H = {"h4": h4_q, "twisted": twisted_q}[parent]
    f, n = H.field, H.dim
    M = random_module(H, data.draw(st.integers(1, 3), "dim"), data.draw(st.integers(0, 99), "seed"))
    d = M.dim
    S = ayd_compatibility_system(M, flavor)
    assert (S.rows, S.cols) == (n * d * n * d, d * d * n)
    # a solution or a fully random mu, then a few entries moved
    if data.draw(st.booleans(), "from a solution"):
        vec = [f.zero] * S.cols
        for b in S.kernel().basis:
            c = f.from_int(data.draw(st.integers(-2, 2)))
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, b)]
    else:
        vec = [f.from_int(data.draw(st.integers(-2, 2))) for _ in range(S.cols)]
    for k, c in data.draw(st.dictionaries(st.integers(0, S.cols - 1), st.integers(-2, 2),
                                          max_size=3), "moved").items():
        vec[k] = f.add(vec[k], f.from_int(c))
    check, check_id = ENTRIES[flavor]
    entry = check(Contramodule(M, Matrix(f, d, d * n, vec), flavor)).result(check_id)
    image = S.apply(vec)
    assert entry.passed == (not any(image))
    if not entry.passed:
        row = next(i for i, x in enumerate(image) if x)
        h, rest = divmod(row, d * n * d)
        f_row, rest = divmod(rest, n * d)
        assert entry.counterexample == (("h", h), ("f_row", f_row), ("f_col", rest // d))
