#!/usr/bin/env python3
"""Contramodule coefficients: aYD checks, stability, conversions, the center.

Run:  python3 demos/demo_coefficients.py
"""

from qha.fields import rationals
from qha.quasihopf import (group_algebra, twisted_dual_group_algebra,
                           cyclic_group_table, z2_nontrivial_cocycle,
                           trivial_module, regular_module)
from qha.coefficients import (Contramodule, evaluation_at_unit, HOPF_MU, QUASI_I,
                              check_contramodule_hopf, check_ayd_hopf,
                              check_stability_hopf, tau_theta_hopf,
                              check_ayd_quasi_I, check_stability_quasi,
                              convert_I_to_II, convert_II_to_I, check_ayd_quasi_II,
                              tau_matrix)
from qha.center import (CenterElement, check_hexagon, check_unitality,
                        check_stability_central, check_weakstrong,
                        contratrace_iota)

F = rationals()

print("== Hopf case: kC2 with M = k and mu(f) = f(1) ==")
H = group_algebra(F, cyclic_group_table(2), "kC2")
k = trivial_module(H)
C = Contramodule(k, evaluation_at_unit(k), HOPF_MU)
print(check_contramodule_hopf(C).pretty())
print(check_ayd_hopf(C).pretty())
print(check_stability_hopf(C).pretty())

reg = regular_module(H)
tau, theta = tau_theta_hopf(C, reg)
print("theta tau = tau theta = id:",
      (theta * tau).is_identity(), (tau * theta).is_identity())

print("\nscaling mu breaks stability (with a witness):")
print(check_stability_hopf(C.scaled(F.from_int(2))).pretty())

print("\n== quasi case: the twisted dual k^Z2_w, type I coefficients ==")
Ht = twisted_dual_group_algebra(F, cyclic_group_table(2), z2_nontrivial_cocycle(F))
kt = trivial_module(Ht)
CI = Contramodule(kt, evaluation_at_unit(kt), QUASI_I)
print(check_ayd_quasi_I(CI).pretty())
print(check_stability_quasi(CI).pretty())

print("\nconversion to type II (and its checks):")
CII = convert_I_to_II(CI)
print(check_ayd_quasi_II(CII).pretty())
regt = regular_module(Ht)
print("tau from type I equals tau from the converted type II:",
      tau_matrix(CI, regt) == tau_matrix(convert_II_to_I(CII), regt))

print("\n== the weak center of the twisted example ==")
E = CenterElement(CI)
print(check_hexagon(E, regt, regt).pretty())
print(check_unitality(E).pretty())
print(check_stability_central(E).pretty())
print(check_weakstrong(E, regt).pretty())
i_fwd = contratrace_iota(E, regt, kt)
i_bwd = contratrace_iota(E, kt, regt)
print("contratrace double swap is the identity:",
      (i_bwd * i_fwd).is_identity() and (i_fwd * i_bwd).is_identity())
