"""Weak-center machinery: tau families, hexagon, stability, contratraces.

A center element packages a coefficient contramodule with its family of
maps tau_V : Hom^l(V, M) -> Hom^r(V, M), materialised lazily per module
and cached by structural hash.  Stability of the coefficient makes every
tau_V invertible (checked as an exact rank condition), which is what turns
the weak-center datum into an honest center element.

The contratrace, unitality and central stability are written once against
the biclosed primitives both parents provide (``tensor``, ``unit_object``,
the unitors, zeta^l, zeta^r and eta^r).  Only the hexagon still differs by
flavor: over a quasi-Hopf algebra it runs on full hom carriers with
Phi-decorated associativity maps, over a Hopf algebroid on base-linear
sub-carriers with strict requotient maps.
"""

from __future__ import annotations

from .linalg import Matrix, lmul_blocks
from .reports import CheckReport
from .coefficients import (Contramodule, tau_from_contramodule, hexagon_sides,
                           tau_sub_raw_algebroid, ALGEBROID_MU, _perm_mwv_to_mvw)
from .quasihopf import hom_module_morphisms
from . import algebroid as alg


class CenterElement:
    """A contramodule together with its cached weak-center maps."""

    def __init__(self, coefficient: Contramodule):
        self.coefficient = coefficient
        self._tau_cache = {}

    @property
    def parent(self):
        return self.coefficient.parent

    @property
    def carrier(self):
        return self.coefficient.carrier

    def tau(self, V) -> Matrix:
        """tau_V, computed once per structurally distinct module."""
        key = V.structural_key()
        cached = self._tau_cache.get(key)
        if cached is None:
            # idempotent fill: concurrent computations produce equal matrices
            cached = tau_from_contramodule(self.coefficient, V)
            self._tau_cache[key] = cached
        return cached

    def set_tau(self, V, mat: Matrix):
        """Override a cached tau (used to probe failure modes in tests)."""
        self._tau_cache[V.structural_key()] = mat


def check_hexagon(E: CenterElement, V, W) -> CheckReport:
    """The hexagon for the cached taus at V, W and V (x) W."""
    rep = CheckReport()
    if E.coefficient.flavor == ALGEBROID_MU:
        lhs, rhs = hexagon_sides_algebroid(E.coefficient, V, W,
                                           tau_override=lambda X: E.tau(X))
    else:
        lhs, rhs = hexagon_sides(E.coefficient, V, W,
                                 tau_override=lambda X: E.tau(X))
    if lhs == rhs:
        rep.add("hexagon", True)
    else:
        j = next(i for i in range(lhs.cols) if lhs.col(i) != rhs.col(i))
        rep.add("hexagon", False, (("f_index", j),))
    return rep


def check_unitality(E: CenterElement) -> CheckReport:
    """tau on the unit object matches the two unitors:
    tau_1 . zeta^l(rho_M) = zeta^r(lambda_M) in Hom_H(M, Hom^r(1, M)).

    Over a quasi-Hopf algebra both unitors are identities and this says
    tau_k = id on Hom(k, M) = M; over an algebroid it says tau_R sends
    r |-> t_l(r) m to r |-> s_l(r) m."""
    H = E.parent
    M = E.carrier
    unit = H.unit_object()
    lhs = E.tau(unit) * H.zeta_l(H.right_unitor(M), M, unit, M)
    rep = CheckReport()
    rep.add("unitality", lhs == H.zeta_r(H.left_unitor(M), unit, M, M))
    return rep


def check_stability_central(E: CenterElement) -> CheckReport:
    """Stability as in the center definition: the identity of M survives the
    chain Hom(M,M) ~ Hom(1, M <| M) -> Hom(1, M |> M) ~ Hom(M,M), that is
    eta^r(tau_M . zeta^l(lambda_M)) = rho_M."""
    H = E.parent
    M = E.carrier
    unit = H.unit_object()
    g = E.tau(M) * H.zeta_l(H.left_unitor(M), unit, M, M)
    rep = CheckReport()
    rep.add("stability_central", H.eta_r(g, M, unit, M) == H.right_unitor(M))
    return rep


def check_weakstrong(E: CenterElement, V) -> CheckReport:
    """Stability forces invertibility: tau_V must have full rank."""
    rep = CheckReport()
    tau = E.tau(V)
    rep.add("tau_invertible", tau.rank() == tau.rows)
    return rep


def iota_apply(E: CenterElement, T, V, f_mat: Matrix) -> Matrix:
    """The contratrace map Hom_H(T (x) V, M) -> Hom_H(V (x) T, M),
    f |-> eta^r(tau_V o zeta^l(f)).

    f_mat is a vertical stack of intertwiners (row blocks of dim M rows) and
    the result the stack of their images, so every module behind zeta^l,
    tau_V and eta^r is built once for the whole stack; one intertwiner is
    a stack of one."""
    H = E.parent
    M = E.carrier
    g = H.zeta_l(f_mat, T, V, M)
    return H.eta_r(lmul_blocks(E.tau(V), g), V, T, M)


def contratrace_iota(E: CenterElement, T, V) -> Matrix:
    """iota as a matrix between the canonical bases of the two intertwiner
    subspaces Hom_H(T (x) V, M) and Hom_H(V (x) T, M)."""
    H = E.parent
    M = E.carrier
    tv, _ = H.tensor(T, V)
    vt, _ = H.tensor(V, T)
    dom = hom_module_morphisms(tv, M)
    cod = hom_module_morphisms(vt, M)
    out = cod.stack_coordinates(iota_apply(E, T, V, dom.basis_stack(tv.dim)))
    if out is None:
        raise ValueError("iota image left the intertwiner subspace")
    return out


# -- algebroid hexagon ---------------------------------------------------------

def hexagon_sides_algebroid(C: Contramodule, V, W, tau_override=None):
    """Hexagon composites for an algebroid coefficient, in the canonical
    coordinates of the nested base-linear hom carriers.

    All associativity maps are the strict currying/requotient isomorphisms,
    built by passing through the full k-linear carriers."""
    H = C.parent
    f = H.field
    M = C.carrier
    get_tau = tau_override if tau_override is not None else \
        (lambda X: tau_sub_raw_algebroid(C, X))

    x1_mod, x1_b = alg.left_hom_algebroid(W, M)
    x2_mod, x2_b = alg.right_hom_algebroid(W, M)
    x3_mod, x3_b = alg.left_hom_algebroid(V, M)
    x4_mod, x4_b = alg.right_hom_algebroid(V, M)
    _, d1_b = alg.left_hom_algebroid(V, x1_mod)
    _, d2_b = alg.left_hom_algebroid(V, x2_mod)
    _, d3_b = alg.right_hom_algebroid(W, x3_mod)
    _, d4_b = alg.right_hom_algebroid(W, x4_mod)
    tvw, rel = alg.tensor_over_base(V, W)
    _, d5_b = alg.left_hom_algebroid(tvw, M)
    _, d6_b = alg.right_hom_algebroid(tvw, M)

    tau_w = get_tau(W)
    tau_v = get_tau(V)
    tau_vw = get_tau(tvw)

    eye_v = Matrix.identity(f, V.dim)
    eye_w = Matrix.identity(f, W.dim)
    eye_m = Matrix.identity(f, M.dim)

    # step 1: post-compose the inner hom with tau_W, in coordinates
    m1 = _sub_coords_map(d1_b, d2_b, tau_w.kron(eye_v))
    # step 3: post-compose with tau_V
    m3 = _sub_coords_map(d3_b, d4_b, tau_v.kron(eye_w))

    perm = _perm_mwv_to_mvw(f, M.dim, W.dim, V.dim)
    e1 = x1_b.basis_matrix().kron(eye_v) * d1_b.basis_matrix()
    e2 = x2_b.basis_matrix().kron(eye_v) * d2_b.basis_matrix()
    e3 = x3_b.basis_matrix().kron(eye_w) * d3_b.basis_matrix()
    e4 = x4_b.basis_matrix().kron(eye_w) * d4_b.basis_matrix()

    a2 = _full_coords_change(e3, perm * e2)
    a1 = _full_coords_change(d5_b.basis_matrix(),
                             eye_m.kron(rel.lift.transpose()) * perm * e1)
    a3 = _full_coords_change(e4, eye_m.kron(rel.projector.transpose())
                             * d6_b.basis_matrix())

    lhs = m3 * a2 * m1
    rhs = a3 * tau_vw * a1
    return lhs, rhs


def _sub_coords_map(src_basis, dst_basis, op: Matrix) -> Matrix:
    out = dst_basis.basis_matrix().solve_matrix(op * src_basis.basis_matrix())
    if out is None:
        raise ValueError("operator does not preserve the canonical carriers")
    return out


def _full_coords_change(target_emb: Matrix, full_mat: Matrix) -> Matrix:
    out = target_emb.solve_matrix(full_mat)
    if out is None:
        raise ValueError("hexagon leg left its canonical carrier")
    return out
