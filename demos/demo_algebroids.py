#!/usr/bin/env python3
"""Hopf algebroids over a noncommutative base: axioms, homs, coefficients.

Run:  python3 demos/demo_algebroids.py
"""

from qha.fields import prime_field
from qha.linalg import Matrix
from qha.quasihopf import check_module, hom_module_morphisms, regular_module
from qha.algebroid import (base_ring_dual_numbers, enveloping_algebroid,
                           base_module,
                           tensor_over_base, left_hom_algebroid,
                           right_hom_algebroid, zeta_l_algebroid,
                           eta_l_algebroid,
                           check_algebroid_structure, check_left_bialgebroid,
                           check_right_bialgebroid, check_hopf_algebroid)
from qha.coefficients import (Contramodule, ALGEBROID_MU,
                              check_contramodule_algebroid, check_ayd_algebroid,
                              check_stability_algebroid, evaluation_at_unit)

F5 = prime_field(5)
A = base_ring_dual_numbers(F5)
H = enveloping_algebroid(A)
print("the enveloping algebroid %s has dim %d over base dim %d"
      % (H.name, H.dim, H.base.dim))

print("\n== axiom suites ==")
print(check_algebroid_structure(H).pretty())
print(check_left_bialgebroid(H).pretty())
print(check_right_bialgebroid(H).pretty())
print(check_hopf_algebroid(H).pretty())

print("\n== modules and base tensors ==")
reg = regular_module(H)
R = base_module(H)
print("regular module valid:", check_module(reg).passed,
      "  unit object valid:", check_module(R).passed)
T, rel = tensor_over_base(reg, reg)
print("H (x)_R H: ambient 16, relations %d, quotient dim %d"
      % (rel.dim, T.dim))

hl, _ = left_hom_algebroid(reg, R)
hr, _ = right_hom_algebroid(reg, R)
print("Hom^l(H, R) dim %d, Hom^r(H, R) dim %d (base-linear carriers)"
      % (hl.dim, hr.dim))

print("\n== an adjunction roundtrip ==")
tens, _ = tensor_over_base(reg, R)
sp = hom_module_morphisms(tens, reg)
# f is a basis row of Hom_H(H (x)_R R, H), that is vec(f): a one-row stack
fm = Matrix(F5, 1, reg.dim * tens.dim, sp.basis[0])
g = zeta_l_algebroid(fm, reg, R, reg)
print("eta^l(zeta^l(f)) = f:", eta_l_algebroid(g, reg, R, reg) == fm)

print("\n== coefficients on M = A ==")
M = base_module(H)
print("the naive mu(f) = f(1) candidate:")
C0 = Contramodule(M, evaluation_at_unit(M), ALGEBROID_MU)
print(check_ayd_algebroid(C0).pretty())
print("\nthe solved stable contraaction:")
mu = Matrix(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])
C = Contramodule(M, mu, ALGEBROID_MU)
print(check_contramodule_algebroid(C).pretty())
print(check_ayd_algebroid(C).pretty())
print(check_stability_algebroid(C).pretty())
