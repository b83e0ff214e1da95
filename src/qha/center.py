"""Weak-center machinery: tau families, hexagon, stability, contratraces.

A center element packages a coefficient contramodule with its family of
maps tau_V : Hom^l(V, M) -> Hom^r(V, M), materialised lazily and cached
per module, where modules compare by parent and action matrices.
Stability of the coefficient makes every tau_V invertible (checked as an
exact rank condition), which is what turns the weak-center datum into an
honest center element.

Every check here is written once, for both parents: the contratrace,
unitality and central stability call the one biclosed layer of
quasihopf.py (zeta^l, zeta^r, eta^r, under the algebroid's names over a
Hopf algebroid), ``tensor_module`` and the parent's ``unit_object`` and
unitors; tau and the hexagon read the hom modules and carriers of that
layer and its one ``hom_associativity``.  Over a quasi-Hopf algebra every
hom carrier is all of Hom_k and those maps carry the Phi-decoration; over
a Hopf algebroid (Phi = 1 (x) 1 (x) 1) the carriers are the base-linear
maps and those maps are the strict currying maps.
"""

from __future__ import annotations

from .linalg import Matrix, stack_lmul, stack_of_maps
from .reports import CheckReport
from .coefficients import Contramodule, tau_from_contramodule, hexagon_sides
from .quasihopf import hom_module_morphisms, tensor_module, zeta_l, zeta_r, eta_r
from .algebroid import HopfAlgebroid, zeta_l_algebroid, zeta_r_algebroid, eta_r_algebroid


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
        """tau_V, computed once per distinct module: equal modules (same
        parent, equal action matrices) share one."""
        cached = self._tau_cache.get(V)
        if cached is None:
            cached = self._tau_cache[V] = tau_from_contramodule(self.coefficient, V)
        return cached

    def set_tau(self, V, mat: Matrix):
        """Override a cached tau (used to probe failure modes in tests)."""
        self._tau_cache[V] = mat


def _adjunctions(H):
    """zeta^l, zeta^r and eta^r: the one body of each, under the
    algebroid's names over a Hopf algebroid."""
    if isinstance(H, HopfAlgebroid):
        return zeta_l_algebroid, zeta_r_algebroid, eta_r_algebroid
    return zeta_l, zeta_r, eta_r


def check_hexagon(E: CenterElement, V, W) -> CheckReport:
    """The hexagon for the cached taus at V, W and V (x) W."""
    lhs, rhs = hexagon_sides(E.coefficient, V, W, E.tau)
    return CheckReport().compare("hexagon", (("f_index", lhs.cols),), lhs, rhs)


def check_unitality(E: CenterElement) -> CheckReport:
    """tau on the unit object matches the two unitors:
    tau_1 . zeta^l(rho_M) = zeta^r(lambda_M) in Hom_H(M, Hom^r(1, M)).

    Over a quasi-Hopf algebra both unitors are identities and this says
    tau_k = id on Hom(k, M) = M; over an algebroid it says tau_R sends
    r |-> t_l(r) m to r |-> s_l(r) m."""
    H = E.parent
    M = E.carrier
    unit = H.unit_object()
    zl, zr, _ = _adjunctions(H)
    lhs = stack_lmul(E.tau(unit), zl(stack_of_maps(H.right_unitor(M), M.dim), M, unit, M))
    rhs = zr(stack_of_maps(H.left_unitor(M), M.dim), unit, M, M)
    return CheckReport().add("unitality", lhs == rhs)


def check_stability_central(E: CenterElement) -> CheckReport:
    """Stability as in the center definition: the identity of M survives the
    chain Hom(M,M) ~ Hom(1, M <| M) -> Hom(1, M |> M) ~ Hom(M,M), that is
    eta^r(tau_M . zeta^l(lambda_M)) = rho_M."""
    H = E.parent
    M = E.carrier
    unit = H.unit_object()
    zl, _, er = _adjunctions(H)
    g = stack_lmul(E.tau(M), zl(stack_of_maps(H.left_unitor(M), M.dim), unit, M, M))
    rho = stack_of_maps(H.right_unitor(M), M.dim)
    return CheckReport().add("stability_central", er(g, M, unit, M) == rho)


def check_weakstrong(E: CenterElement, V) -> CheckReport:
    """Stability forces invertibility: tau_V must have full rank."""
    tau = E.tau(V)
    return CheckReport().add("tau_invertible", tau.rank() == tau.rows)


def iota_apply(E: CenterElement, T, V, S: Matrix) -> Matrix:
    """The contratrace map Hom_H(T (x) V, M) -> Hom_H(V (x) T, M),
    f |-> eta^r(tau_V o zeta^l(f)).

    S is a stack of intertwiners (one map is the one-row stack
    ``stack_of_maps(f, dim M)``) and the result the stack of their images;
    the maps go through together, so every module behind zeta^l, tau_V
    and eta^r is built once for all of them."""
    M = E.carrier
    zl, _, er = _adjunctions(E.parent)
    return er(stack_lmul(E.tau(V), zl(S, T, V, M)), V, T, M)


def contratrace_iota(E: CenterElement, T, V) -> Matrix:
    """iota as a matrix between the canonical bases of the two intertwiner
    subspaces Hom_H(T (x) V, M) and Hom_H(V (x) T, M)."""
    M = E.carrier
    dom = hom_module_morphisms(tensor_module(T, V), M)
    cod = hom_module_morphisms(tensor_module(V, T), M)
    out = cod.stack_coordinates(iota_apply(E, T, V, dom.basis_stack()))
    if out is None:
        raise ValueError("iota image left the intertwiner subspace")
    return out.transpose()
