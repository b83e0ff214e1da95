"""Contramodules and anti-Yetter-Drinfeld structures.

A contramodule datum is a left module M together with a linear map
mu : Hom_k(H, M) -> M, stored as the matrix sending the matrix unit
E_ja (e_a |-> m_j, flattened at index j*dim(H) + a) to mu(E_ja).

Four flavors are supported: the Hopf contraaction, the two quasi-Hopf
unravelings (type I fed by the naive evaluation, type II by the categorical
one), and the algebroid contraaction whose domain carries a base-linearity
constraint.  Every check rejects data of the wrong flavor.

Every equation is written once as two matrices, one per side, each a sum
of terms c A mu B: A acts on M, and B is a fixed map into the carrier of
Hom(H, M) whose columns are the check's instances.  The checks and the
type I -> II conversion evaluate such a sum at mu, and the linear aYD
system is the aYD sums as one matrix on the entries of mu; the type II tau
is the type I tau of the converted coefficient.  A failed check reports the
first column at which the sides differ, read as the lexicographically first
failing index tuple in the order the check names its indices: basis
elements h of H, vectors m of M, base indices r, matrix units E_ja of
Hom(H, M) as (f_row, f_col) = (j, a), and f_index for the canonical basis
of the base-linear maps.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import (Matrix, Subspace, block_matrix, hstack, intertwiner_space, kron_sum,
                     slot_apply, stack_of_maps, swap_factors, vstack)
from .reports import CheckReport
from .quasihopf import (HModule, IntertwinerError, StructureError, regular_module, is_intertwiner,
                        eps_p_q_beta_s_r, left_hom, right_hom, hom_carriers, right_hom_carrier,
                        element_legs, lift_legs, _restricted)
from .algebroid import HopfAlgebroid, right_linear_hom_basis

# the flavors, each named by its tag in structure files
HOPF_MU = "hopf_mu"
QUASI_I = "quasi_type_I"
QUASI_II = "quasi_type_II"
ALGEBROID_MU = "algebroid_mu"

FLAVORS = (HOPF_MU, QUASI_I, QUASI_II, ALGEBROID_MU)


class FlavorError(ValueError):
    """A contramodule check received data of the wrong flavor."""


class Contramodule:
    """A module plus contraaction tensor; flavor tags which axioms apply."""

    def __init__(self, carrier, mu: Matrix, flavor: str):
        if flavor not in FLAVORS:
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

    @cached_property
    def type_I(self) -> "Contramodule":
        """This coefficient in type I form: the conversion of a type II
        coefficient, made once; any other flavor is its own."""
        return convert_II_to_I(self) if self.flavor == QUASI_II else self

    @cached_property
    def stability_passed(self) -> bool:
        """Whether check_stability passes.  Decided at most once per object:
        each call of check_stability records its verdict here."""
        return check_stability(self).passed

    def scaled(self, c) -> "Contramodule":
        return Contramodule(self.carrier, self.mu.scale(c), self.flavor)

    def __repr__(self):
        return "Contramodule(%s, dim %d, %s)" % (self.flavor, self.carrier.dim,
                                                 self.parent.name)


def evaluation_at_unit(carrier) -> Matrix:
    """The contraaction tensor of mu(f) = f(1): I (x) unit^T."""
    H = carrier.parent
    return Matrix.identity(H.field, carrier.dim).kron(Matrix(H.field, 1, H.dim, H.unit))


def _require(C: Contramodule, flavor: str):
    if C.flavor != flavor:
        raise FlavorError("expected flavor %s, got %s" % (flavor, C.flavor))


def _require_hopf(C: Contramodule):
    _require(C, HOPF_MU)
    if not C.parent.is_hopf():
        raise FlavorError("hopf_mu checks need a Hopf parent (trivial Phi, alpha, beta)")


# -- every equation as two matrices ----------------------------------------------

def _identity_check(check_id: str, lhs: Matrix) -> CheckReport:
    """check_id: the square matrix lhs is the identity, failed at the first
    basis vector m that it moves."""
    return CheckReport().compare(check_id, (("m", lhs.rows),), lhs,
                                 Matrix.identity(lhs.field, lhs.rows))


def _action_map(M: HModule, X: Matrix) -> Matrix:
    """m |-> (e_x |-> X_x m) on M, for the elements X_x of H in the columns of
    X, as a map into the carrier of Hom(H, M): the coordinate i of the value
    at e_x sits at i*n + x.  Its entries are those of X^T rho_M."""
    d, n = M.dim, X.cols
    return (X.transpose() * M.action).reindexed(d * n, d, lambda x, k: (k // d * n + x, k % d))


def _terms_at(terms, mu: Matrix, inst: Matrix) -> Matrix:
    """sum c A mu B inst over the terms (c, A, B), A on M and B on the
    carrier of Hom(H, M): column k is the instance at column k of inst."""
    return kron_sum(mu.field, mu.rows, inst.cols,
                    [(c, [A * (mu * B * inst)]) for c, A, B in terms])


def _contra_assoc_sides(C: Contramodule, delta: Matrix, inst: Matrix):
    """The two sides of contraassociativity, mu(h |-> mu(F(h))) and
    mu(h |-> F(h^1)(h^2)), as mu (mu (x) I) inst and mu (I (x) D) inst.

    The columns of inst are maps F : H -> Hom(H, M) on the carrier of
    Hom(H, Hom(H, M)), with F(e_x)(e_y) = m_j at (j*n + y)*n + x; delta
    holds the coproduct of e_c at (c, p*n + q), and D reads F off along it."""
    f, mu = C.field, C.mu
    n, d = C.parent.dim, C.carrier.dim
    return (mu * (mu.kron(Matrix.identity(f, n)) * inst),
            mu * (Matrix.identity(f, d).kron(swap_factors(delta, n, n)) * inst))


# -- Hopf flavor ---------------------------------------------------------------

def check_contramodule_hopf(C: Contramodule) -> CheckReport:
    """Contraassociativity and counitality of mu over a Hopf algebra.

    Coassociativity reads mu(h |-> mu(f(h))) = mu(h |-> f(h^1)(h^2)) for f
    ranging over the matrix units of Hom(H, Hom(H, M)); the counit diagram
    reads mu(h |-> eps(h) m) = m.
    """
    _require_hopf(C)
    H = C.parent
    n, d = H.dim, C.carrier.dim
    size = d * n * n
    # the matrix unit at outer source b, row j, column a, in that order
    units = Matrix.identity(C.field, size).reindexed(
        size, size, lambda i, k: (i % (d * n) * n + i // (d * n), k))
    rep = CheckReport().compare(
        "contra_coassoc", (("f_outer", n), ("f_row", d), ("f_col", n)),
        *_contra_assoc_sides(C, H.comult, units))
    rep.extend(_contra_counit(C, "contra_counit", C.field.one))
    return rep


def _contra_counit(C: Contramodule, check_id: str, scale) -> CheckReport:
    """mu(h |-> scale eps(h) m) = m: mu (I (x) scale eps) is the identity."""
    H = C.parent
    counit = Matrix(C.field, H.dim, 1, H.counit).scale(scale)
    return _identity_check(check_id, C.mu * Matrix.identity(C.field, C.carrier.dim).kron(counit))


def check_ayd_hopf(C: Contramodule) -> CheckReport:
    """The aYD compatibility over a Hopf algebra, in both equivalent forms.

    Form one: h mu(f) = mu(h^2 f(S(h^3) - h^1)).  Form two:
    h^2 mu(f(- S^-1(h^1))) = mu(h^1 f(S(h^2) -)).  Their statuses agree for
    genuine module/contramodule data.
    """
    _require_hopf(C)
    rep = _ayd_report("ayd_eq_one", C, _ayd_sides_one(C.carrier))
    rep.extend(_ayd_report("ayd_eq_two", C, _ayd_sides_two(C.carrier, C.parent.delta_legs)))
    return rep


# An aYD equation is given per basis element h of H by its two sides, each
# a list of terms (c, A, B) standing for sum c A mu B: A acts on M, B on the
# carrier of Hom(H, M), and column j*dim(H) + a of a side is its instance at
# the matrix unit f = E_ja.  The checks evaluate each side at mu; the
# linear system is lhs - rhs as one matrix on the entries of mu.

def _ayd_sides_one(M: HModule):
    """h mu(f) = mu(h^2 f(S(h^3) - h^1)) per basis element h, where
    h^1 (x) h^2 (x) h^3 = (id (x) Delta) Delta(h): aYD form one, and the
    type II equation for nu."""
    H = M.parent
    f = H.field
    n, d = H.dim, M.dim
    eye, eye_dn = Matrix.identity(f, d), Matrix.identity(f, d * n)
    l_s = H.antipode_mults[0]
    # f |-> (y |-> h^2 f(S(h^3) y h^1)), as a map on the carrier of Hom(H, M)
    return [([(f.one, M.mats[h], eye_dn)],
             [(f.one, eye, kron_sum(f, d * n, d * n, [
                 (f.mul(c1, c2), [M.mats[h2], (l_s[h3] * H.right_mults[h1]).transpose()])
                 for c1, h1, q in H.delta_legs[h] for c2, h2, h3 in H.delta_legs[q]]))])
            for h in range(n)]


def _ayd_sides_two(M: HModule, legs):
    """h^2 mu(f(- S^-1(h^1))) = mu(h^1 f(S(h^2) -)) per basis element h, for
    the Sweedler legs (coef, h1, h2) of every h: aYD form two."""
    H = M.parent
    f = H.field
    n, d = H.dim, M.dim
    eye = Matrix.identity(f, d)
    l_s, r_s_inv = H.antipode_mults
    # f |-> f(- S^-1(h^1)), and f |-> h^1 f(S(h^2) -), on the carrier of Hom(H, M)
    return [([(coef, M.mats[h2], eye.kron(r_s_inv[h1].transpose())) for coef, h1, h2 in t],
             [(f.one, eye, kron_sum(f, d * n, d * n, [
                 (coef, [M.mats[h1], l_s[h2].transpose()]) for coef, h1, h2 in t]))])
            for t in legs]


def _ayd_at(sides, mu: Matrix, inst: Matrix):
    """The two sides of an aYD equation at mu and at the maps given as the
    columns of inst, the instances of every h side by side: (h, instance)."""
    return tuple(hstack(mu.field, mu.rows, [_terms_at(pair[k], mu, inst) for pair in sides])
                 for k in (0, 1))


def _ayd_report(check_id: str, C: Contramodule, sides) -> CheckReport:
    """One aYD check at the matrix units: the first instance (h, f_row, f_col)
    whose two sides differ."""
    n, d = C.parent.dim, C.carrier.dim
    return CheckReport().compare(check_id, (("h", n), ("f_row", d), ("f_col", n)),
                                 *_ayd_at(sides, C.mu, Matrix.identity(C.field, d * n)))


def ayd_compatibility_system(carrier: HModule, flavor: str) -> Matrix:
    """Matrix whose kernel is the space of contraaction tensors satisfying the
    flavor's aYD compatibility equation (which is linear in the tensor).

    For hopf_mu and type I this is the S/S^-1-twisted equation above; for
    type II it is the nu-form with doubled Sweedler legs.  The remaining
    contramodule axioms are quadratic and are not part of this system.
    It is the checks' lhs - rhs as an operator at the matrix units, on the
    row-major vec(mu), with rows (h, f_row, f_col, coordinate).
    """
    H = carrier.parent
    if flavor in (HOPF_MU, QUASI_I):
        sides = _ayd_sides_two(carrier, H.delta_legs)
    elif flavor == QUASI_II:
        sides = _ayd_sides_one(carrier)
    else:
        raise FlavorError("no linear aYD system for flavor %s" % flavor)
    f, d, dn = H.field, carrier.dim, carrier.dim * H.dim
    # mu |-> sum c A mu B on the row-major vec(mu^T) is sum c B^T (x) A, one
    # block per h below the other, with rows (h, column of B, coordinate)
    return swap_factors(vstack(f, dn * d, [kron_sum(f, dn * d, dn * d, [
        (c, [B.transpose(), A]) for c, A, B in lhs] + [
        (f.neg(c), [B.transpose(), A]) for c, A, B in rhs]) for lhs, rhs in sides]), dn, d)


def check_stability_hopf(C: Contramodule) -> CheckReport:
    """mu(r_m) = m with r_m(h) = h m, for every basis vector m."""
    return _regular_stability(C, _require_hopf)


def _regular_stability(C: Contramodule, require) -> CheckReport:
    """The stability of the Hopf and algebroid flavors, once require(C) holds."""
    require(C)
    return _identity_check("stability", C.mu * _action_map(
        C.carrier, Matrix.identity(C.field, C.parent.dim)))


# -- tau / theta ---------------------------------------------------------------

def tau_matrix(C: Contramodule, V: HModule) -> Matrix:
    """tau_V(f)(v) = mu(x |-> f(x v)) on all of Hom_k(V, M).

    This is the weak-center contraction of the Hopf, type I and algebroid
    flavors; the type II tau is this one of the type I conversion.  tau_raw
    reads it on the hom carriers of the parent.
    """
    return _mu_contraction(C.mu, V.action, V.dim)


def _mu_contraction(mu: Matrix, acts: Matrix, dv: int) -> Matrix:
    """f |-> (v |-> mu(x |-> f(A_x v))) on the carrier of Hom(V, M), for a
    d x (d*n) contraaction mu and the dv x dv matrices A_x read row-major as
    the n rows of acts (X^T rho_V for a family X)."""
    d, n = mu.rows, acts.rows
    # (mu read as (d*d) x n) * acts holds sum_x mu[i, a*n + x] A_x[b, c] at
    # (i*d + a, b*dv + c); the map has it at (i*dv + c, a*dv + b)
    return (mu.reshaped(d * d, n) * acts).reindexed(
        d * dv, d * dv, lambda r, k: (r // d * dv + k % dv, r % d * dv + k // dv))


def tau_theta_hopf(C: Contramodule, V: HModule):
    """(tau_V, theta_V) with tau an H-morphism Hom^l(V,M) -> Hom^r(V,M) and
    theta its two-sided inverse, theta_V(f)(v) = mu(h |-> f(S^-1(h) v));
    raises IntertwinerError when aYD fails."""
    _require(C, HOPF_MU)
    tau = tau_from_contramodule(C, V)
    theta = _mu_contraction(C.mu, C.parent.antipode_inv.transpose() * V.action, V.dim)
    if not (tau * theta).is_identity() or not (theta * tau).is_identity():
        raise IntertwinerError("theta does not invert tau")
    return tau, theta


def tau_raw(C: Contramodule, V: HModule) -> Matrix:
    """tau_V on the hom carriers of the parent, without the intertwiner
    verification (used inside equation checks, which must report failures
    rather than raise)."""
    return _tau_on_carriers(C, V, *hom_carriers(V, C.carrier))


def _tau_on_carriers(C: Contramodule, V: HModule, src, dst) -> Matrix:
    """tau_matrix of C's type I form, read from the carrier src of
    Hom^l(V, M) to the carrier dst of Hom^r(V, M)."""
    tau = _restricted(tau_matrix(C.type_I, V), src, dst)
    if tau is None:
        raise IntertwinerError("tau image is not left base-linear "
                               "(the left mu axiom fails)")
    return tau


def tau_from_contramodule(C: Contramodule, V: HModule) -> Matrix:
    """The weak-center map tau_V : Hom^l(V, M) -> Hom^r(V, M) for any flavor,
    on the hom carriers of the parent, verified to be a module morphism."""
    (hl, src), (hr, dst) = left_hom(V, C.carrier), right_hom(V, C.carrier)
    tau = _tau_on_carriers(C, V, src, dst)
    if not is_intertwiner(stack_of_maps(tau, hr.dim), hl, hr):
        raise IntertwinerError("tau is not H-linear; aYD condition fails")
    return tau


# -- the weak-center hexagon ------------------------------------------------------

def _nested(outer, inner, dim: int):
    """The carrier of Hom(U, X) inside Hom_k(U, Hom_k(W, M)), for U of the
    given dimension, the carrier outer of X in Hom_k(W, M) and the carrier
    inner of Hom(U, X) in Hom_k(U, X).

    (outer (x) id) inner is already in reduced echelon form, so its columns
    are the canonical basis: coordinates on the nested carrier are those
    on inner."""
    emb = outer.basis_matrix().kron(Matrix.identity(outer.field, dim)) * inner.basis_matrix()
    return Subspace.row_space(emb.transpose())


def hexagon_sides(C: Contramodule, V: HModule, W: HModule, tau):
    """The two composite maps around the weak-center hexagon, as matrices
    from the carrier of V <| (W <| M) to the carrier of (M |> V) |> W.

    ``tau`` maps a module X to tau_X on the hom carriers of the parent: a
    center element's cached (possibly perturbed) family, or tau_raw.  The
    hom carriers come from the biclosed layer and the three hom
    associativity maps between full carriers from the parent; the hexagon
    reads those maps, and tau (x) id, between the carriers.  Over a
    quasi-Hopf algebra every carrier is the full subspace, so every leg is
    its map itself.
    """
    H = C.parent
    f = C.field
    M = C.carrier
    tau_w, tau_v = tau(W), tau(V)
    vw = H.tensor(V, W)[0]
    tau_vw = tau(vw)
    cvw = hom_carriers(vw, M)
    left, swap, right = H.hom_associativity(V, W, M)

    # the carriers of Hom(W, M) and Hom(V, M), read off their hom modules,
    # and inside those the carriers of Hom^l(V, -) and Hom^r(W, -)
    (hlw, cwl), (hrw, cwr) = left_hom(W, M), right_hom(W, M)
    (hlv, cvl), (hrv, cvr) = left_hom(V, M), right_hom(V, M)
    d1, d2 = H.hom_carrier(V, hlw), H.hom_carrier(V, hrw)
    d3, d4 = right_hom_carrier(W, hlv), right_hom_carrier(W, hrv)

    def leg(op, src, dst):
        out = _restricted(op, src, dst)
        if out is None:
            raise ValueError("hexagon leg left its canonical carrier")
        return out

    lhs = (leg(tau_v.kron(Matrix.identity(f, W.dim)), d3, d4)
           * leg(swap, _nested(cwr, d2, V.dim), _nested(cvl, d3, W.dim))
           * leg(tau_w.kron(Matrix.identity(f, V.dim)), d1, d2))
    rhs = (leg(right, cvw[1], _nested(cvr, d4, W.dim)) * tau_vw
           * leg(left, _nested(cwl, d1, V.dim), cvw[0]))
    return lhs, rhs


# -- quasi-Hopf flavors ---------------------------------------------------------

def _quasi_contra_check(C: Contramodule, check_id: str) -> CheckReport:
    """The hexagon specialised to V = W = H and evaluated at the unit.

    This is the contraaction replacement for quasi-Hopf algebras; for
    trivial Phi it reduces to the Hopf contraassociativity diagram.
    """
    H = C.parent
    reg = regular_module(H)
    lhs, rhs = hexagon_sides(C, reg, reg, lambda X: tau_raw(C, X))
    # Hom(H, Hom(H, M)) -> M, g |-> g(1)(1)
    ev = evaluation_at_unit(C.carrier).kron(Matrix(H.field, 1, H.dim, H.unit))
    # instance ((f_row * n + f_col) * n + f_outer) * d + coord: the evaluated
    # sides read column after column
    d, n = C.carrier.dim, H.dim
    return CheckReport().compare(
        check_id, (("f_row", d), ("f_col", n), ("f_outer", n), ("coord", d)),
        *((ev * side).transpose().reshaped(1, n * n * d * d) for side in (lhs, rhs)))


def check_ayd_quasi_I(C: Contramodule) -> CheckReport:
    """Type I anti-Yetter-Drinfeld contramodule equations."""
    _require(C, QUASI_I)
    rep = _ayd_report("ayd_type_I", C, _ayd_sides_two(C.carrier, C.parent.delta_legs))
    rep.extend(_quasi_contra_check(C, "quasi_contra_I"))
    rep.extend(_contra_counit(C, "contra_unit_I", C.field.one))
    return rep


def check_ayd_quasi_II(C: Contramodule) -> CheckReport:
    """Type II anti-Yetter-Drinfeld contramodule equations."""
    _require(C, QUASI_II)
    rep = _ayd_report("ayd_type_II", C, _ayd_sides_one(C.carrier))
    rep.extend(_quasi_contra_check(C, "quasi_contra_II"))
    rep.extend(_contra_counit(C, "contra_unit_II", C.parent.eps(C.parent.beta)))
    return rep


def convert_I_to_II(C: Contramodule) -> Contramodule:
    """nu(f) = R mu(h |-> f(h S^-1(Q) S^-1(alpha) P)); module action unchanged.

    nu = sum c M(e_r) mu (I (x) R_(e_w)^T) over the terms c e_w (x) e_r of
    (S^-1 alpha-hat (x) id)(Phi^-1) = S^-1(Q) S^-1(alpha) P (x) R, since
    S^-1(S(P) alpha Q) = S^-1(Q) S^-1(alpha) P."""
    _require(C, QUASI_I)
    H, M = C.parent, C.carrier
    eye, n = Matrix.identity(C.field, M.dim), H.dim
    terms = element_legs(slot_apply(H.antipode_inv * H.alpha_hat, H.phi_inv, 1, n), n, 2)
    return Contramodule(M, _terms_at([(c, M.mats[r], eye.kron(H.right_mults[w].transpose()))
                                      for (w, r), c in terms.items()],
                                     C.mu, Matrix.identity(C.field, M.dim * n)), QUASI_II)


def convert_II_to_I(C: Contramodule) -> Contramodule:
    """mu(f) = nu(h |-> Z^1 f(S(Z^2) h Y S^-1(beta) S^-1(X))); action unchanged.

    mu = nu sum c (M(Z^1) (x) (L_S(Z^2) R_(e_w))^T) over the terms c e_w (x) e_z
    of (S^-1 beta-hat (x) id)(Phi) = Y S^-1(beta) S^-1(X) (x) Z."""
    _require(C, QUASI_II)
    H, f = C.parent, C.field
    d, n, l_s = C.carrier.dim, H.dim, H.antipode_mults[0]
    wz = element_legs(slot_apply(H.antipode_inv * H.beta_hat, H.phi, 1, n), n, 2)
    terms = [(f.mul(c, cz), [C.carrier.mats[z1], (l_s[z2] * H.right_mults[w]).transpose()])
             for (w, z), c in wz.items() for cz, z1, z2 in H.delta_legs[z]]
    return Contramodule(C.carrier, C.mu * kron_sum(f, d * n, d * n, terms), QUASI_I)


# -- algebroid flavor ------------------------------------------------------------

def _require_algebroid(C: Contramodule):
    _require(C, ALGEBROID_MU)
    if not isinstance(C.parent, HopfAlgebroid):
        raise FlavorError("algebroid_mu coefficients need a HopfAlgebroid parent")


def check_contramodule_algebroid(C: Contramodule) -> CheckReport:
    """Def-of-contramodule axioms over a left bialgebroid.

    Contraassociativity is quantified over a basis of the right-base-linear
    maps H (x)_{R_l} H -> M (read on H (x) H through the canonical quotient
    projector, with Delta_l legs from the stored lift); the counit axiom
    reads mu(x |-> m . eps_l(x)) = m with m . r = t_l(r) m.
    """
    _require_algebroid(C)
    H = C.parent
    f = C.field
    n, d = H.dim, C.carrier.dim
    M = C.carrier
    proj, lift = H.rel_l.projector, H.rel_l.lift
    # right R-action on the quotient: (x (x) y) . r = x (x) t_l(r) y
    eye = Matrix.identity(f, n)
    phi_basis = intertwiner_space(
        f, [(proj * eye.kron(L) * lift, A) for L, A in zip(H.mults_of(H.t_l), M.acts(H.t_l))],
        d, proj.rows)
    # phi |-> F with F(e_x)(e_y) = phi(e_x (x) e_y), on the carrier of Hom(H, Hom(H, M))
    inst = Matrix.identity(f, d).kron(swap_factors(proj, n, n).transpose()) \
        * phi_basis.basis_matrix()
    rep = CheckReport().compare("contra_assoc_algebroid", (("phi_index", phi_basis.dim),),
                                *_contra_assoc_sides(C, H.delta_l_lift.transpose(), inst))
    rep.extend(_identity_check("contra_unit_algebroid", C.mu * _action_map(M, H.t_l * H.eps_l)))
    return rep


def check_ayd_algebroid(C: Contramodule) -> CheckReport:
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
    # the canonical basis of Hom(H, M)_{R_l}, the carrier of Hom^l(H, M)
    maps = right_linear_hom_basis(regular_module(H), M).basis_matrix()
    ranges = (("h", n), ("f_index", maps.cols))

    sides = _ayd_at(_ayd_sides_two(M, lift_legs(H.delta_r_lift)), C.mu, maps)
    rep = CheckReport().compare("ayd_algebroid", ranges, *sides)
    # the sides must not move when the Delta_r lift moves by a relation element
    same = True
    if H.rel_r.dim > 0:
        moved = H.delta_r_lift + block_matrix(
            f, n * n, n, [(0, 0, Matrix.from_cols(f, [H.rel_r.basis[0]]))])
        same = _ayd_at(_ayd_sides_two(M, lift_legs(moved)), C.mu, maps) == sides
    rep.add("ayd_lift_independent", same)

    # mu(x |-> t_l(eps_l(x s_l(r))) m) = s_l(r) m, column (r, m)
    rep.compare("bimodule_compatible", (("r", r), ("m", d)), C.mu * hstack(f, d * n, [
        _action_map(M, H.t_l * H.eps_l * R) for R in H.mults_of(H.s_l, right=True)]),
        hstack(f, d, M.acts(H.s_l)))

    # mu(f(s_l(r) -)) = t_l(r) mu(f) and mu(f(- s_l(r))) = s_l(r) mu(f)
    eye, mu_maps, w = Matrix.identity(f, d), C.mu * maps, maps.cols
    for check_id, right, post in (("mu_right_linear", False, H.t_l),
                                  ("mu_left_linear", True, H.s_l)):
        rep.compare(check_id, (("r", r), ("f_index", w)), C.mu * hstack(f, d * n, [
            eye.kron(x.transpose()) * maps for x in H.mults_of(H.s_l, right)]),
            hstack(f, d, [A * mu_maps for A in M.acts(post)]))
    return rep


def check_stability_algebroid(C: Contramodule) -> CheckReport:
    """mu(r_m) = m with r_m(h) = h m, per basis vector of the carrier."""
    return _regular_stability(C, _require_algebroid)


def check_stability_quasi(C: Contramodule) -> CheckReport:
    """Type I stability R mu(r'_m) = m with r'_m(x) = beta x S^-1(Q) S^-1(alpha) P m,
    which is nu(y |-> beta y m) = m for nu the type II form of C, plus the
    helper identity eps(P) Q beta S(R) = beta checked once."""
    _require(C, QUASI_I)
    H = C.parent
    rep = CheckReport().add("helper_eps_p_q_beta_s_r", eps_p_q_beta_s_r(H))
    l_beta = H.mults_of(Matrix.from_cols(C.field, [H.beta]))[0]
    rep.extend(_identity_check("stability_type_I",
                               convert_I_to_II(C).mu * _action_map(C.carrier, l_beta)))
    return rep


def check_ayd(C: Contramodule) -> CheckReport:
    """The contramodule and aYD checks of C's flavor."""
    if C.flavor == QUASI_I:
        return check_ayd_quasi_I(C)
    if C.flavor == QUASI_II:
        return check_ayd_quasi_II(C)
    if C.flavor == HOPF_MU:
        rep = check_contramodule_hopf(C)
        rep.extend(check_ayd_hopf(C))
    else:
        rep = check_contramodule_algebroid(C)
        rep.extend(check_ayd_algebroid(C))
    return rep


def check_stability(C: Contramodule) -> CheckReport:
    """The stability check of C's flavor; a type II coefficient is checked
    on its type I form.  The verdict is recorded on C."""
    if C.flavor == HOPF_MU:
        rep = check_stability_hopf(C)
    elif C.flavor in (QUASI_I, QUASI_II):
        rep = check_stability_quasi(C.type_I)
    else:
        rep = check_stability_algebroid(C)
    C.stability_passed = rep.passed
    return rep
