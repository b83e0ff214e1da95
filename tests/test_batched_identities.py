"""The cocyclic identities checked by row blocks agree with a per-identity loop.

``verify_cocyclic_identities`` makes every product that shares a right
factor Y as one product of the stacked left factors with Y and compares
each identity as two tuples of rows.  The reference below is the loop it
replaced: one pair of matrix products per identity, compared as matrices,
in the same order.  On a built cocyclic module with any one entry of any
coface, codegeneracy or cyclic operator changed, both must name the same
first failing relation with the same indices.
"""

import pytest

from qha.cyclic import CocyclicModule, build_cocyclic, verify_cocyclic_identities
from qha.linalg import Matrix

from test_cyclic import _stacked_build_inputs, _with_entries


def reference_identities(cc):
    """(relation, indices, lhs, rhs) of every identity, each side one matrix
    product, in the order verify_cocyclic_identities walks them."""
    d, s, t = cc.cofaces, cc.codegens, cc.cyclics
    for n in range(cc.n_max - 1):
        for j in range(n + 3):
            for i in range(j):
                yield ("coface relation", dict(n=n, i=i, j=j),
                       d[n + 1][j] * d[n][i], d[n + 1][i] * d[n][j - 1])
    for n in range(cc.n_max - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield ("codegeneracy relation", dict(n=n, i=i, j=j),
                       s[n][i] * s[n + 1][j + 1], s[n][j] * s[n + 1][i])
    for n in range(cc.n_max):
        eye = Matrix.identity(cc.field, cc.dim(n))
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = s[n][j] * d[n][i]
                if i in (j, j + 1):
                    yield "mixed identity relation", dict(n=n, i=i, j=j), lhs, eye
                else:
                    yield "mixed relation", dict(n=n, i=i, j=j), lhs, (
                        d[n - 1][i] * s[n - 1][j - 1] if i < j
                        else d[n - 1][i - 1] * s[n - 1][j])
    for n in range(cc.n_max + 1):
        power = t[n]
        for _ in range(n):
            power = power * t[n]
        yield "t^(n+1) != id", dict(n=n), power, Matrix.identity(cc.field, cc.dim(n))
    for n in range(cc.n_max):
        yield "cyclic coface wrap", dict(n=n), t[n + 1] * d[n][0], d[n][n + 1]
        for i in range(1, n + 2):
            yield ("cyclic coface relation", dict(n=n, i=i),
                   t[n + 1] * d[n][i], d[n][i - 1] * t[n])
        for i in range(1, n + 1):
            yield ("cyclic codegeneracy relation", dict(n=n, i=i),
                   t[n] * s[n][i], s[n][i - 1] * t[n + 1])
        yield ("cyclic codegeneracy wrap", dict(n=n),
               t[n] * s[n][0], s[n][n] * (t[n + 1] * t[n + 1]))


def reference_verdict(cc):
    for relation, indices, lhs, rhs in reference_identities(cc):
        if lhs != rhs:
            return relation, indices
    return None


def verdict(cc):
    problem = verify_cocyclic_identities(cc)
    return None if problem is None else (problem.relation, dict(problem.indices))


def perturbed(cc):
    """Every copy of cc with one entry of one structure map raised by one:
    (where, copy) for each coface, codegeneracy and cyclic operator and
    each of its entries, zero or not."""
    f = cc.field
    places = ([("cofaces", n, k) for n in range(cc.n_max) for k in range(n + 2)]
              + [("codegens", n, k) for n in range(cc.n_max) for k in range(n + 1)]
              + [("cyclics", n, None) for n in range(cc.n_max + 1)])
    for family, n, k in places:
        m = getattr(cc, family)[n] if k is None else getattr(cc, family)[n][k]
        for i in range(m.rows):
            for j in range(m.cols):
                changed = _with_entries(m, {(i, j): f.add(m.get(i, j), f.one)})
                maps = {"cofaces": [list(row) for row in cc.cofaces],
                        "codegens": [list(row) for row in cc.codegens],
                        "cyclics": list(cc.cyclics)}
                if k is None:
                    maps[family][n] = changed
                else:
                    maps[family][n][k] = changed
                yield (family, n, k, i, j), CocyclicModule(
                    cc.n_max, cc.spaces, maps["cofaces"], maps["codegens"], maps["cyclics"],
                    cc.field)


@pytest.mark.parametrize("name, n_max", [("twisted-Q", 3), ("kC3-GF7", 3), ("env-GF5", 6)])
def test_every_single_entry_change_gives_the_reference_witness(name, n_max):
    A, M, _ = _stacked_build_inputs()[name]
    cc = build_cocyclic(A, M, n_max)
    assert verdict(cc) is None and reference_verdict(cc) is None
    for where, bad in perturbed(cc):
        want = reference_verdict(bad)
        # on these builds every such change breaks some identity
        assert want is not None, where
        assert verdict(bad) == want, where
