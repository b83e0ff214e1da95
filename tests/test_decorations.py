"""The decoration maps alpha-hat and beta-hat, and the action matrix rho_V,
against element products.

alpha-hat sends e_p (x) e_q to S(e_p) alpha e_q and beta-hat sends it to
e_p beta S(e_q); every Phi-decoration is Phi or Phi^-1 with two legs
contracted by one of them.  The references build each element term by
term with ``prod`` and the ``apply`` of the stored antipode pair.
"""

import random

import pytest

from qha.linalg import Matrix, slot_apply
from qha.quasihopf import regular_module, tensor_module, element_legs

from conftest import random_module


def term_sum(H, terms):
    """sum c a (x) b over the terms (c, a, b) of dense elements, as one row of H (x) H."""
    f, n = H.field, H.dim
    out = [f.zero] * (n * n)
    for c, a, b in terms:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i * n + j] = f.add(out[i * n + j], f.mul(c, f.mul(x, y)))
    return Matrix(f, 1, n * n, out)


def dense_act(V, vec):
    f = V.parent.field
    out = Matrix.zeros(f, V.dim, V.dim)
    for i, c in enumerate(vec):
        out = out + V.mats[i].scale(c)
    return out


@pytest.mark.parametrize("name", ["twisted_h4_q", "twisted_z3_skew_f7"])
def test_decoration_maps_and_contracted_elements_match_term_sums(request, name):
    H = request.getfixturevalue(name)
    n, e, s, s_inv = H.dim, H.basis, H.antipode.apply, H.antipode_inv.apply
    assert H.alpha != H.unit or H.beta != H.unit
    for p in range(n):
        for q in range(n):
            assert H.alpha_hat.col(p * n + q) == H.prod(s(e(p)), H.alpha, e(q))
            assert H.beta_hat.col(p * n + q) == H.prod(e(p), H.beta, s(e(q)))
    phi, phi_inv = H.phi_terms().items(), element_legs(H.phi_inv, n, 3).items()
    # X (x) S(Y) alpha Z, the evaluation
    assert slot_apply(H.alpha_hat, H.phi, n, 1) == term_sum(
        H, [(c, e(x), H.prod(s(e(y)), H.alpha, e(z))) for (x, y, z), c in phi])
    # P (x) Q beta S(R), the zeta^l decoration
    assert slot_apply(H.beta_hat, H.phi_inv, n, 1) == term_sum(
        H, [(c, e(p), H.prod(e(q), H.beta, s(e(r)))) for (p, q, r), c in phi_inv])
    # S^-1(Q) S^-1(alpha) P (x) R, the type I to type II conversion
    assert slot_apply(H.antipode_inv * H.alpha_hat, H.phi_inv, 1, n) == term_sum(
        H, [(c, H.prod(s_inv(e(q)), s_inv(H.alpha), e(p)), e(r)) for (p, q, r), c in phi_inv])
    # Y S^-1(beta) S^-1(X) (x) Z, the type II to type I conversion
    assert slot_apply(H.antipode_inv * H.beta_hat, H.phi, 1, n) == term_sum(
        H, [(c, H.prod(e(y), s_inv(H.beta), s_inv(e(x))), e(z)) for (x, y, z), c in phi])


@pytest.mark.parametrize("name", ["twisted_h4_q", "twisted_f5"])
def test_acts_matches_act_column_by_column(request, name):
    H = request.getfixturevalue(name)
    f, rng = H.field, random.Random(11)
    V = random_module(H, 5, seed=4)
    X = Matrix(f, H.dim, 6, [f.from_int(rng.randrange(-3, 4)) for _ in range(H.dim * 6)])
    assert V.acts(X) == [V.act(X.col(j)) for j in range(X.cols)]
    assert V.acts(X) == [dense_act(V, X.col(j)) for j in range(X.cols)]


def test_action_matrix_has_one_row_per_basis_element(twisted_q):
    reg = regular_module(twisted_q)
    V = reg
    for _ in range(5):
        V = tensor_module(V, reg)
    assert V.dim == 64
    assert (V.action.rows, V.action.cols) == (twisted_q.dim, 64 * 64)
    assert [row.reshaped(64, 64) for row in V.action.row_blocks(1)] == list(V.mats)
