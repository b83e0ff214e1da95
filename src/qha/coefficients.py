"""Contramodules and anti-Yetter-Drinfeld structures.

A contramodule datum is a left module M together with a linear map
mu : Hom_k(H, M) -> M, stored as the matrix sending the matrix unit
E_ja (e_a |-> m_j, flattened at index j*dim(H) + a) to mu(E_ja).

Four flavors are supported: the Hopf contraaction, the two quasi-Hopf
unravelings (type I fed by the naive evaluation, type II by the categorical
one), and the algebroid contraaction whose domain carries a base-linearity
constraint.  Every check rejects data of the wrong flavor.

A failed check reports the lexicographically first failing index tuple, in
the order the check names its indices (``CheckReport.search``): basis
elements h of H, vectors m of M, base indices r, matrix units E_ja of
Hom(H, M) as (f_row, f_col) = (j, a), and f_index for the canonical basis
of the base-linear maps.
"""

from __future__ import annotations

import itertools
import operator

from .linalg import (Matrix, Subspace, basis_vec, block_matrix, vec_scale,
                     intertwiner_space, kron_sum, quotient_section)
from .reports import AydReport, first_failure
from .quasihopf import (HModule, QuasiHopfAlgebra, IntertwinerError, StructureError,
                        left_hom, right_hom, regular_module, is_intertwiner,
                        eps_p_q_beta_s_r)

HOPF_MU = "HopfMu"
QUASI_I = "QuasiTypeI"
QUASI_II = "QuasiTypeII"
ALGEBROID_MU = "AlgebroidMu"

_FLAVORS = (HOPF_MU, QUASI_I, QUASI_II, ALGEBROID_MU)


class FlavorError(ValueError):
    """A contramodule check received data of the wrong flavor."""


class Contramodule:
    """A module plus contraaction tensor; flavor tags which axioms apply."""

    def __init__(self, carrier, mu: Matrix, flavor: str):
        if flavor not in _FLAVORS:
            raise FlavorError("unknown flavor %r" % (flavor,))
        n = carrier.parent.dim
        if mu.rows != carrier.dim or mu.cols != carrier.dim * n:
            raise StructureError("contraaction must be %dx%d" % (carrier.dim, carrier.dim * n))
        self.carrier = carrier
        self.mu = mu
        self.flavor = flavor

    @property
    def parent(self):
        return self.carrier.parent

    @property
    def field(self):
        return self.carrier.parent.field

    def mu_apply(self, g: Matrix):
        """mu of the map H -> M with matrix g (dM x dim H)."""
        return (self.mu * g.reshaped(g.rows * g.cols, 1)).col(0)

    def with_flavor(self, flavor: str) -> "Contramodule":
        return Contramodule(self.carrier, self.mu, flavor)

    def scaled(self, c) -> "Contramodule":
        return Contramodule(self.carrier, self.mu.scale(c), self.flavor)

    def __repr__(self):
        return "Contramodule(%s, dim %d, %s)" % (self.flavor, self.carrier.dim,
                                                 self.parent.name)


def evaluation_at_unit(carrier) -> Matrix:
    """The contraaction tensor of mu(f) = f(1)."""
    H = carrier.parent
    f = H.field
    d = carrier.dim
    cols = []
    for j in range(d):
        for a in range(H.dim):
            cols.append(vec_scale(f, H.unit[a], basis_vec(f, d, j)))
    return Matrix.from_cols(f, cols, ambient=d)


def _require(C: Contramodule, flavor: str):
    if C.flavor != flavor:
        raise FlavorError("expected flavor %s, got %s" % (flavor, C.flavor))


# -- Hopf flavor ---------------------------------------------------------------

def check_contramodule_hopf(C: Contramodule) -> AydReport:
    """Contraassociativity and counitality of mu over a Hopf algebra.

    Coassociativity reads mu(h |-> mu(f(h))) = mu(h |-> f(h^1)(h^2)) for f
    ranging over the matrix units of Hom(H, Hom(H, M)); the counit diagram
    reads mu(h |-> eps(h) m) = m.
    """
    _require(C, HOPF_MU)
    if not C.parent.is_hopf():
        raise FlavorError("HopfMu checks need a Hopf parent (trivial Phi, alpha, beta)")
    rep = AydReport()
    rep.extend(_contra_coassoc_hopf(C))
    rep.extend(_contra_counit(C, "contra_counit", use_beta=False))
    return rep


def _contra_coassoc_hopf(C: Contramodule) -> AydReport:
    H = C.parent
    f = C.field
    n, d = H.dim, C.carrier.dim
    zero_col = tuple([f.zero] * d)

    def fails(b, j, a):
        # the matrix unit of Hom(H, Hom(H, M)) at outer source b, row j, column a
        mu_col = C.mu.col(j * n + a)
        lhs = C.mu_apply(Matrix.from_cols(
            f, [mu_col if c == b else zero_col for c in range(n)], ambient=d))
        rhs_cols = []
        for c in range(n):
            s = f.zero
            for coef, p, q in H.delta_terms(c):
                if p == b and q == a:
                    s = f.add(s, coef)
            rhs_cols.append(vec_scale(f, s, basis_vec(f, d, j)))
        return lhs != C.mu_apply(Matrix.from_cols(f, rhs_cols, ambient=d))

    rep = AydReport()
    rep.search("contra_coassoc", (("f_outer", n), ("f_row", d), ("f_col", n)), fails)
    return rep


def _contra_counit(C: Contramodule, check_id: str, use_beta: bool) -> AydReport:
    """mu(h |-> eps(h) m) = m, or with the extra eps(beta) factor for type II."""
    H = C.parent
    f = C.field
    d = C.carrier.dim
    scale = H.eps(H.beta) if use_beta else f.one
    rep = AydReport()
    rep.search(check_id, (("m", d),), lambda m: C.mu_apply(Matrix.from_cols(
        f, [vec_scale(f, f.mul(scale, H.counit[c]), basis_vec(f, d, m))
            for c in range(H.dim)], ambient=d)) != basis_vec(f, d, m))
    return rep


def check_ayd_hopf(C: Contramodule) -> AydReport:
    """The aYD compatibility over a Hopf algebra, in both equivalent forms.

    Form one: h mu(f) = mu(h^2 f(S(h^3) - h^1)).  Form two:
    h^2 mu(f(- S^-1(h^1))) = mu(h^1 f(S(h^2) -)).  Their statuses agree for
    genuine module/contramodule data.
    """
    _require(C, HOPF_MU)
    if not C.parent.is_hopf():
        raise FlavorError("HopfMu checks need a Hopf parent (trivial Phi, alpha, beta)")
    rep = AydReport()
    rep.extend(_ayd_report("ayd_eq_one", C, _ayd_sides_one(C.carrier)))
    rep.extend(_ayd_report("ayd_eq_two", C, _ayd_sides_two(C.carrier)))
    return rep


def _sweedler3(H: QuasiHopfAlgebra, c: int):
    """(id (x) Delta) Delta(e_c) as (coef, leg1, leg2, leg3) tuples."""
    out = []
    f = H.field
    for coef, p, q in H.delta_terms(c):
        for coef2, q1, q2 in H.delta_terms(q):
            out.append((f.mul(coef, coef2), p, q1, q2))
    return out


def _ayd_sides_one(M: HModule):
    """mu |-> the two sides of h mu(f) = mu(h^2 f(S(h^3) - h^1)) per basis
    element h, as a list of (lhs_h, rhs_h); column j*dim(H) + a of both is
    the instance at the matrix unit f = E_ja, and h^1 (x) h^2 (x) h^3 =
    (id (x) Delta) Delta(h).  This is aYD form one, and the type II
    equation for nu.  Everything that does not depend on mu is built here,
    once per carrier."""
    H = M.parent
    f = H.field
    n, d = H.dim, M.dim
    # f |-> (y |-> h^2 f(S(h^3) y h^1)), as a map on the carrier of Hom(H, M)
    pre = [kron_sum(f, d * n, d * n, [
        (coef, [M.mats[h2],
                (H.left_mult_matrix(H.apply_s(H.basis(h3)))
                 * H.right_mult_matrix(H.basis(h1))).transpose()])
        for coef, h1, h2, h3 in _sweedler3(H, h)]) for h in range(n)]
    return lambda mu: [(M.mats[h] * mu, mu * pre[h]) for h in range(n)]


def _ayd_sides_two(M: HModule):
    """mu |-> the two sides of h^2 mu(f(- S^-1(h^1))) = mu(h^1 f(S(h^2) -)) per
    basis element h, in the layout of _ayd_sides_one."""
    H = M.parent
    f = H.field
    n, d = H.dim, M.dim
    eye = Matrix.identity(f, d)
    legs = [H.delta_terms(h) for h in range(n)]
    # f |-> f(- S^-1(h^1)), and f |-> h^1 f(S(h^2) -), on the carrier of Hom(H, M)
    lhs_terms = [[(coef, M.mats[h2], eye.kron(
        H.right_mult_matrix(H.apply_s_inv(H.basis(h1))).transpose())) for coef, h1, h2 in t]
        for t in legs]
    post = [kron_sum(f, d * n, d * n, [
        (coef, [M.mats[h1], H.left_mult_matrix(H.apply_s(H.basis(h2))).transpose()])
        for coef, h1, h2 in t]) for t in legs]

    def sides(mu):
        return [(kron_sum(f, d, d * n, [(coef, [act * mu * pre]) for coef, act, pre in terms]),
                 mu * post[h]) for h, terms in enumerate(lhs_terms)]
    return sides


def _ayd_report(check_id: str, C: Contramodule, sides) -> AydReport:
    """One aYD check: the first instance (h, f_row, f_col) whose two sides
    differ, for the sides built by _ayd_sides_one or _ayd_sides_two."""
    n, d = C.parent.dim, C.carrier.dim
    pairs = sides(C.mu)
    rep = AydReport()
    rep.search(check_id, (("h", n), ("f_row", d), ("f_col", n)), lambda h, j, a:
               pairs[h][0].col(j * n + a) != pairs[h][1].col(j * n + a))
    return rep


def ayd_compatibility_system(carrier: HModule, flavor: str) -> Matrix:
    """Matrix whose kernel is the space of contraaction tensors satisfying the
    flavor's aYD compatibility equation (which is linear in the tensor).

    For HopfMu and type I this is the S/S^-1-twisted equation above; for
    type II it is the nu-form with doubled Sweedler legs.  The remaining
    contramodule axioms are quadratic and are not part of this system.
    Column t holds both sides' difference at the unit tensor t, in the
    order (h, f_row, f_col, coordinate) of the checks.
    """
    f = carrier.parent.field
    d, n = carrier.dim, carrier.parent.dim
    if flavor in (HOPF_MU, QUASI_I):
        sides = _ayd_sides_two(carrier)
    elif flavor == QUASI_II:
        sides = _ayd_sides_one(carrier)
    else:
        raise FlavorError("no linear aYD system for flavor %s" % flavor)
    size = d * d * n
    cols = []
    for t in range(size):
        mu = Matrix(f, d, d * n, [f.one if i == t else f.zero for i in range(size)])
        cols.append(tuple(x for lhs, rhs in sides(mu)
                          for x in (lhs - rhs).transpose().entries))
    return Matrix.from_cols(f, cols)


def check_stability_hopf(C: Contramodule) -> AydReport:
    """mu(r_m) = m with r_m(h) = h m, for every basis vector m."""
    _require(C, HOPF_MU)
    rep = AydReport()
    rep.extend(_stability_plain(C))
    return rep


def _stability_plain(C: Contramodule) -> AydReport:
    H = C.parent
    f = C.field
    d = C.carrier.dim
    rep = AydReport()
    rep.search("stability", (("m", d),), lambda m: C.mu_apply(Matrix.from_cols(
        f, [C.carrier.mats[x].col(m) for x in range(H.dim)], ambient=d)) != basis_vec(f, d, m))
    return rep


# -- tau / theta ---------------------------------------------------------------

def tau_matrix(C: Contramodule, V: HModule) -> Matrix:
    """tau_V(f)(v) = mu(x |-> f(x v)) on all of Hom_k(V, M).

    This is the weak-center contraction of the Hopf, type I and algebroid
    flavors; type II uses the Phi-decorated tau_matrix_type_II.  tau_raw
    reads either on the hom carriers of the parent.
    """
    return _mu_contraction(C.mu, V.mats, V.dim)


def theta_matrix(C: Contramodule, V: HModule) -> Matrix:
    """theta_V(f)(v) = mu(h |-> f(S^-1(h) v)), inverse to tau in the Hopf case."""
    H = C.parent
    return _mu_contraction(C.mu, [V.act(H.apply_s_inv(H.basis(x))) for x in range(H.dim)],
                           V.dim)


def _mu_contraction(mu: Matrix, mats, dv: int) -> Matrix:
    """f |-> (v |-> mu(x |-> f(mats[x] v))) on the carrier of Hom(V, M), for
    a d x (d*n) contraaction mu and n matrices acting on V (dv x dv)."""
    d, n = mu.rows, len(mats)
    acts = block_matrix(mu.field, n, dv * dv,
                        [(x, 0, m.reshaped(1, dv * dv)) for x, m in enumerate(mats)])
    # (mu read as (d*d) x n) * acts holds sum_x mu[i, a*n + x] mats[x][b, c] at
    # (i*d + a, b*dv + c); the map has it at (i*dv + c, a*dv + b)
    return (mu.reshaped(d * d, n) * acts).reindexed(
        d * dv, d * dv, lambda r, k: (r // d * dv + k % dv, r % d * dv + k // dv))


def tau_matrix_type_II(C: Contramodule, V: HModule) -> Matrix:
    """Type II reconstruction: tau(f)(v) = nu(x |-> Z^1 f(S(Z^2) x Y S^-1(b) S^-1(X) v))."""
    H = C.parent
    f = C.field
    d, dv, n = C.carrier.dim, V.dim, H.dim
    eye_n = Matrix.identity(f, n)
    terms = []
    for (x, y, z), coef in H.phi_terms().items():
        w = H.prod(H.basis(y), H.apply_s_inv(H.beta), H.apply_s_inv(H.basis(x)))
        v_w = V.act(w)
        for cz, z1, z2 in H.delta_terms(z):
            c2 = f.mul(coef, cz)
            v_pre = V.act(H.apply_s(H.basis(z2)))
            post = C.carrier.mats[z1]
            chain = [v_pre * V.mats[xx] * v_w for xx in range(n)]
            terms.append((c2, [_mu_contraction(C.mu * post.kron(eye_n), chain, dv)]))
    return kron_sum(f, d * dv, d * dv, terms)


def tau_theta_hopf(C: Contramodule, V: HModule):
    """(tau_V, theta_V) with tau an H-morphism Hom^l(V,M) -> Hom^r(V,M) and
    theta its two-sided inverse; raises IntertwinerError when aYD fails."""
    _require(C, HOPF_MU)
    tau = tau_matrix(C, V)
    theta = theta_matrix(C, V)
    hl, hr = left_hom(V, C.carrier), right_hom(V, C.carrier)
    if not is_intertwiner(tau, hl, hr):
        raise IntertwinerError("tau is not H-linear; aYD condition fails")
    if not (tau * theta).is_identity() or not (theta * tau).is_identity():
        raise IntertwinerError("theta does not invert tau")
    return tau, theta


def tau_raw(C: Contramodule, V: HModule) -> Matrix:
    """tau_V on the hom carriers of the parent, without the intertwiner
    verification (used inside equation checks, which must report failures
    rather than raise)."""
    H, M = C.parent, C.carrier
    return _tau_on_carriers(C, V, H.hom_l(V, M)[1], H.hom_r(V, M)[1])


def _tau_on_carriers(C: Contramodule, V: HModule, src, dst) -> Matrix:
    """The flavor's contraction read from the carrier src of Hom^l(V, M) to
    the carrier dst of Hom^r(V, M)."""
    contraction = tau_matrix_type_II if C.flavor == QUASI_II else tau_matrix
    tau = _restricted(contraction(C, V), src, dst)
    if tau is None:
        raise IntertwinerError("tau image is not left base-linear "
                               "(the left mu axiom fails)")
    return tau


def _restricted(op: Matrix, src, dst):
    """op read from the carrier src to the carrier dst, in their canonical
    coordinates, or None when its image leaves dst.  A carrier is a
    Subspace of the full k-linear carrier, or None for all of it; between
    full carriers this is op itself, with no product and no solve."""
    if src is not None:
        op = op * src.basis_matrix()
    return op if dst is None else dst.coordinate_matrix(op)


def tau_from_contramodule(C: Contramodule, V: HModule) -> Matrix:
    """The weak-center map tau_V : Hom^l(V, M) -> Hom^r(V, M) for any flavor,
    on the hom carriers of the parent, verified to be a module morphism."""
    H, M = C.parent, C.carrier
    hl, hl_carrier = H.hom_l(V, M)
    hr, hr_carrier = H.hom_r(V, M)
    tau = _tau_on_carriers(C, V, hl_carrier, hr_carrier)
    if not is_intertwiner(tau, hl, hr):
        raise IntertwinerError("tau is not H-linear; aYD condition fails")
    return tau


def mu_from_tau(C_carrier: HModule, tau_h: Matrix) -> Matrix:
    """Extract mu(f) = tau_H(f)(1) from tau on the regular module."""
    H = C_carrier.parent
    unit = Matrix(H.field, 1, H.dim, H.unit)
    return Matrix.identity(H.field, C_carrier.dim).kron(unit) * tau_h


# -- the weak-center hexagon ------------------------------------------------------

def _nested(outer, inner, dim: int):
    """The carrier of Hom(U, X) inside Hom_k(U, Hom_k(W, M)), for U of the
    given dimension, the carrier outer of X in Hom_k(W, M) and the carrier
    inner of Hom(U, X) in Hom_k(U, X).

    (outer (x) id) inner is already in reduced echelon form, so its columns
    are the canonical basis: coordinates on the nested carrier are those
    on inner.  When outer is all of Hom_k(W, M) (None) this is inner."""
    if outer is None:
        return inner
    emb = outer.basis_matrix().kron(Matrix.identity(outer.field, dim)) * inner.basis_matrix()
    return Subspace.row_space(emb.transpose())


def hexagon_sides(C: Contramodule, V: HModule, W: HModule, tau):
    """The two composite maps around the weak-center hexagon, as matrices
    from the carrier of V <| (W <| M) to the carrier of (M |> V) |> W.

    ``tau`` maps a module X to tau_X on the hom carriers of the parent: a
    center element's cached (possibly perturbed) family, or tau_raw.  The
    parent supplies the hom carriers and the three hom associativity maps
    between full carriers; the hexagon reads those maps, and tau (x) id,
    between the carriers.  Over a quasi-Hopf algebra every carrier is full,
    so the sides are the plain products of the decorated maps and the taus.
    """
    H = C.parent
    f = C.field
    M = C.carrier
    tau_w, tau_v = tau(W), tau(V)
    vw = H.tensor(V, W)[0]
    tau_vw = tau(vw)
    x1_mod, x1 = H.hom_l(W, M)
    x2_mod, x2 = H.hom_r(W, M)
    x3_mod, x3 = H.hom_l(V, M)
    x4_mod, x4 = H.hom_r(V, M)
    d1, d2 = H.hom_l(V, x1_mod)[1], H.hom_l(V, x2_mod)[1]
    d3, d4 = H.hom_r(W, x3_mod)[1], H.hom_r(W, x4_mod)[1]
    left, swap, right = H.hom_associativity(V, W, M)

    def leg(op, src, dst):
        out = _restricted(op, src, dst)
        if out is None:
            raise ValueError("hexagon leg left its canonical carrier")
        return out

    lhs = (leg(tau_v.kron(Matrix.identity(f, W.dim)), d3, d4)
           * leg(swap, _nested(x2, d2, V.dim), _nested(x3, d3, W.dim))
           * leg(tau_w.kron(Matrix.identity(f, V.dim)), d1, d2))
    rhs = (leg(right, H.hom_r(vw, M)[1], _nested(x4, d4, W.dim)) * tau_vw
           * leg(left, _nested(x1, d1, V.dim), H.hom_l(vw, M)[1]))
    return lhs, rhs


# -- quasi-Hopf flavors ---------------------------------------------------------

def _eval_at_unit_unit(H, d: int) -> Matrix:
    """Hom(H, Hom(H, M)) -> M, g |-> g(1)(1), both slots the regular module."""
    f = H.field
    unit = Matrix(f, 1, H.dim, H.unit)
    return kron_sum(f, d, d * H.dim * H.dim, [(f.one, [Matrix.identity(f, d), unit, unit])])


def _quasi_contra_check(C: Contramodule, check_id: str) -> AydReport:
    """The hexagon specialised to V = W = H and evaluated at the unit.

    This is the contraaction replacement for quasi-Hopf algebras; for
    trivial Phi it reduces to the Hopf contraassociativity diagram.
    """
    H = C.parent
    reg = regular_module(H)
    lhs, rhs = hexagon_sides(C, reg, reg, lambda X: tau_raw(C, X))
    ev = _eval_at_unit_unit(H, C.carrier.dim)
    a, b = ev * lhs, ev * rhs
    # column j = (f_row * n + f_col) * n + f_outer of the evaluated sides
    wit = first_failure((("j", a.cols), ("coord", a.rows)), lambda j, i:
                        a.get(i, j) != b.get(i, j))
    if wit is not None:
        (_, j), coord = wit
        n = H.dim
        wit = (("f_outer", j % n), ("f_row", j // n // n), ("f_col", j // n % n), coord)
    rep = AydReport()
    rep.add(check_id, wit is None, wit)
    return rep


def check_ayd_quasi_I(C: Contramodule) -> AydReport:
    """Type I anti-Yetter-Drinfeld contramodule equations."""
    _require(C, QUASI_I)
    rep = AydReport()
    rep.extend(_ayd_report("ayd_type_I", C, _ayd_sides_two(C.carrier)))
    rep.extend(_quasi_contra_check(C, "quasi_contra_I"))
    rep.extend(_contra_counit(C, "contra_unit_I", use_beta=False))
    return rep


def check_ayd_quasi_II(C: Contramodule) -> AydReport:
    """Type II anti-Yetter-Drinfeld contramodule equations."""
    _require(C, QUASI_II)
    rep = AydReport()
    rep.extend(_ayd_report("ayd_type_II", C, _ayd_sides_one(C.carrier)))
    rep.extend(_quasi_contra_check(C, "quasi_contra_II"))
    rep.extend(_contra_counit(C, "contra_unit_II", use_beta=True))
    return rep


def convert_I_to_II(C: Contramodule) -> Contramodule:
    """nu(f) = R mu(h |-> f(h S^-1(Q) S^-1(alpha) P)); module action unchanged."""
    _require(C, QUASI_I)
    H = C.parent
    f = C.field
    d, n = C.carrier.dim, H.dim
    terms = []
    for (p, q, r), coef in H.phi_inv_terms().items():
        w = H.prod(H.apply_s_inv(H.basis(q)), H.apply_s_inv(H.alpha), H.basis(p))
        rw = H.right_mult_matrix(w)
        post = C.carrier.mats[r]
        cols = []
        for j in range(d):
            for a in range(n):
                g = Matrix.from_rows(
                    f, [[rw.get(a, x) if i == j else f.zero for x in range(n)]
                        for i in range(d)])
                cols.append(post.apply(C.mu_apply(g)))
        terms.append((coef, [Matrix.from_cols(f, cols, ambient=d)]))
    return Contramodule(C.carrier, kron_sum(f, d, d * n, terms), QUASI_II)


def convert_II_to_I(C: Contramodule) -> Contramodule:
    """mu(f) = nu(h |-> Z^1 f(S(Z^2) h Y S^-1(beta) S^-1(X))); action unchanged."""
    _require(C, QUASI_II)
    H = C.parent
    f = C.field
    d, n = C.carrier.dim, H.dim
    terms = []
    for (x, y, z), coef in H.phi_terms().items():
        w = H.prod(H.basis(y), H.apply_s_inv(H.beta), H.apply_s_inv(H.basis(x)))
        for cz, z1, z2 in H.delta_terms(z):
            c2 = f.mul(coef, cz)
            post = C.carrier.mats[z1]
            chain_cols = [H.prod(H.apply_s(H.basis(z2)), H.basis(h), w) for h in range(n)]
            cols = []
            for j in range(d):
                pj = post.col(j)
                for a in range(n):
                    g_rows = [[f.zero] * n for _ in range(d)]
                    for h in range(n):
                        s = chain_cols[h][a]
                        if s != 0:
                            for i in range(d):
                                if pj[i] != 0:
                                    g_rows[i][h] = f.add(g_rows[i][h], f.mul(s, pj[i]))
                    cols.append(C.mu_apply(Matrix.from_rows(f, g_rows)))
            terms.append((c2, [Matrix.from_cols(f, cols, ambient=d)]))
    return Contramodule(C.carrier, kron_sum(f, d, d * n, terms), QUASI_I)


# -- algebroid flavor ------------------------------------------------------------

def _require_algebroid(C: Contramodule):
    from .algebroid import HopfAlgebroid
    _require(C, ALGEBROID_MU)
    if not isinstance(C.parent, HopfAlgebroid):
        raise FlavorError("AlgebroidMu coefficients need a HopfAlgebroid parent")


def _constrained_hom_basis(C: Contramodule):
    """Canonical basis of Hom(H, M)_{R_l} inside the full hom carrier."""
    from .algebroid import regular_algebroid_module, right_linear_hom_basis
    return right_linear_hom_basis(regular_algebroid_module(C.parent), C.carrier)


def check_contramodule_algebroid(C: Contramodule) -> AydReport:
    """Def-of-contramodule axioms over a left bialgebroid.

    Contraassociativity is quantified over a basis of the right-base-linear
    maps H (x)_{R_l} H -> M (evaluated through the stored Delta_l lift and
    the canonical quotient section); the counit axiom reads
    mu(x |-> m . eps_l(x)) = m with m . r = t_l(r) m.
    """
    _require_algebroid(C)
    H = C.parent
    f = C.field
    n, d = H.dim, C.carrier.dim
    M = C.carrier
    rep = AydReport()

    rel = H.rel_l
    proj, lift = quotient_section(f, n * n, rel)
    q = proj.rows
    # right R-action on the quotient: (x (x) y) . r = x (x) t_l(r) y
    pairs = []
    for b in range(H.base.dim):
        tl_h = H.left_mult_matrix(H.t_l.col(b))
        eye = Matrix.identity(f, n)
        pairs.append((proj * eye.kron(tl_h) * lift, M.act(H.t_l.col(b))))
    phi_basis = intertwiner_space(f, pairs, d, q)

    def assoc_fails(t):
        amb = Matrix(f, d, q, phi_basis.basis[t]) * proj     # d x n^2
        outer = []
        for x in range(n):
            gx = Matrix.from_cols(f, [amb.col(x * n + y) for y in range(n)],
                                  ambient=d)
            outer.append(C.mu_apply(gx))
        lhs = C.mu_apply(Matrix.from_cols(f, outer, ambient=d))
        rhs_cols = []
        for h in range(n):
            acc = tuple([f.zero] * d)
            for c, p, qq in H.delta_l_terms(h):
                col = amb.col(p * n + qq)
                acc = tuple(f.add(x2, f.mul(c, y2)) for x2, y2 in zip(acc, col))
            rhs_cols.append(acc)
        return lhs != C.mu_apply(Matrix.from_cols(f, rhs_cols, ambient=d))

    rep.search("contra_assoc_algebroid", (("phi_index", phi_basis.dim),), assoc_fails)
    rep.search("contra_unit_algebroid", (("m", d),), lambda m: C.mu_apply(Matrix.from_cols(
        f, [M.act(H.t_l.apply(H.eps_l.apply(H.basis(x)))).col(m) for x in range(n)],
        ambient=d)) != basis_vec(f, d, m))
    return rep


def _ayd_algebroid_sides(C: Contramodule, delta_r_lift: Matrix, maps):
    """(h, t) |-> the two sides of h^2 mu(f(- S^-1(h^1))) = mu(h^1 f(S(h^2) -))
    at the basis element h and f = maps[t], with Delta_r legs read from the
    given lift."""
    H = C.parent
    f = C.field
    n, d = H.dim, C.carrier.dim
    M = C.carrier
    legs = [tuple((c, *divmod(k, n)) for k, c in col.items())
            for col in delta_r_lift.col_maps()]

    def sides(h, t):
        fm = maps[t]
        lhs = tuple([f.zero] * d)
        for coef, h1, h2 in legs[h]:
            rm = H.right_mult_matrix(H.apply_s_inv(H.basis(h1)))
            term = M.act(H.basis(h2)).apply(C.mu_apply(fm * rm))
            lhs = tuple(f.add(x, f.mul(coef, v)) for x, v in zip(lhs, term))
        rhs = C.mu_apply(kron_sum(f, d, n, [
            (coef, [M.mats[h1] * fm * H.left_mult_matrix(H.apply_s(H.basis(h2)))])
            for coef, h1, h2 in legs[h]]))
        return lhs, rhs
    return sides


def check_ayd_algebroid(C: Contramodule) -> AydReport:
    """The algebroid aYD compatibility plus the base-linearity of mu.

    Checks the S/S^-1-twisted equation (with Delta_r legs and its
    independence of the stored lift), the coincidence of the induced left
    base action with s_l, and the right/left base-linearity of mu, with f
    over the canonical basis of the constrained maps Hom(H, M)_{R_l}."""
    _require_algebroid(C)
    H = C.parent
    f = C.field
    n, d, r = H.dim, C.carrier.dim, H.base.dim
    M = C.carrier
    rep = AydReport()
    maps = [Matrix(f, d, n, vec) for vec in _constrained_hom_basis(C).basis]
    ranges = (("h", n), ("f_index", len(maps)))

    sides = _ayd_algebroid_sides(C, H.delta_r_lift, maps)
    baseline = {idx: sides(*idx) for idx in itertools.product(range(n), range(len(maps)))}
    rep.search("ayd_algebroid", ranges, lambda h, t: operator.ne(*baseline[h, t]))

    # perturb the Delta_r lift by a relation element; residuals must not move
    same = True
    if H.rel_r.dim > 0:
        perturbed = H.delta_r_lift + block_matrix(
            f, n * n, n, [(0, 0, Matrix.from_cols(f, [H.rel_r.basis[0]]))])
        moved = _ayd_algebroid_sides(C, perturbed, maps)
        same = first_failure(ranges, lambda h, t: moved(h, t) != baseline[h, t]) is None
    rep.add("ayd_lift_independent", same)

    s_l = [H.s_l.col(b) for b in range(r)]
    rep.search("bimodule_compatible", (("r", r), ("m", d)), lambda b, m: C.mu_apply(
        Matrix.from_cols(f, [M.act(H.t_l.apply(H.eps_l.apply(H.mult_vec(H.basis(x), s_l[b]))))
                             .col(m) for x in range(n)], ambient=d)) != M.act(s_l[b]).col(m))

    # mu(f(s_l(r) -)) = t_l(r) mu(f) and mu(f(- s_l(r))) = s_l(r) mu(f)
    for check_id, mult, post in (("mu_right_linear", H.left_mult_matrix, H.t_l),
                                 ("mu_left_linear", H.right_mult_matrix, H.s_l)):
        pres = [mult(s_l[b]) for b in range(r)]
        posts = [M.act(post.col(b)) for b in range(r)]
        rep.search(check_id, (("r", r), ("f_index", len(maps))), lambda b, t:
                   C.mu_apply(maps[t] * pres[b]) != posts[b].apply(C.mu_apply(maps[t])))
    return rep


def check_stability_algebroid(C: Contramodule) -> AydReport:
    """mu(r_m) = m with r_m(h) = h m, per basis vector of the carrier."""
    _require_algebroid(C)
    return _stability_plain(C)


def check_stability_quasi(C: Contramodule) -> AydReport:
    """Type I stability R mu(r'_m) = m with r'_m(x) = beta x S^-1(Q) S^-1(alpha) P m,
    plus the helper identity eps(P) Q beta S(R) = beta checked once."""
    _require(C, QUASI_I)
    H = C.parent
    f = C.field
    d, n = C.carrier.dim, H.dim
    M = C.carrier
    rep = AydReport()

    rep.add("helper_eps_p_q_beta_s_r", eps_p_q_beta_s_r(H))
    tails = [(coef, r, H.prod(H.apply_s_inv(H.basis(q)), H.apply_s_inv(H.alpha), H.basis(p)))
             for (p, q, r), coef in H.phi_inv_terms().items()]

    def fails(m):
        total = tuple([f.zero] * d)
        for coef, r, tail in tails:
            g = Matrix.from_cols(
                f, [M.act(H.prod(H.beta, H.basis(x), tail)).col(m) for x in range(n)],
                ambient=d)
            term = M.mats[r].apply(C.mu_apply(g))
            total = tuple(f.add(t0, f.mul(coef, t)) for t0, t in zip(total, term))
        return total != basis_vec(f, d, m)

    rep.search("stability_type_I", (("m", d),), fails)
    return rep


def check_stability(C: Contramodule) -> AydReport:
    """The stability check of C's flavor; a type II coefficient is checked
    on its type I form."""
    if C.flavor == HOPF_MU:
        return check_stability_hopf(C)
    if C.flavor == QUASI_I:
        return check_stability_quasi(C)
    if C.flavor == QUASI_II:
        return check_stability_quasi(convert_II_to_I(C))
    return check_stability_algebroid(C)
