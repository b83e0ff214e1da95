"""The acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line (visible with pytest -s and in the
captured output).  Every comparison is exact; the only tolerances anywhere
are the stated runtime budgets and the 90% mutation-detection floor.
"""

import itertools
import random
import time

from qha.fields import rationals, prime_field
from qha.linalg import Matrix
from qha.quasihopf import (
    QuasiHopfAlgebra, group_algebra, sweedler_h4, twisted_dual_group_algebra,
    cyclic_group_table, symmetric_group_table, z2_nontrivial_cocycle,
    validate_structure, check_quasi_bialgebra, check_quasi_hopf,
    trivial_module, regular_module, tensor_module, HModule,
    zeta_l, eta_l, zeta_r, eta_r, hom_module_morphisms)
from qha.algebroid import (
    enveloping_algebroid, base_ring_dual_numbers, base_module,
    algebroid_from_hopf, tensor_over_base,
    left_hom_algebroid, right_hom_algebroid,
    zeta_l_algebroid, eta_l_algebroid, zeta_r_algebroid, eta_r_algebroid,
    check_algebroid_structure, check_left_bialgebroid, check_right_bialgebroid,
    check_hopf_algebroid)
from qha.coefficients import (
    Contramodule, HOPF_MU, QUASI_I, ALGEBROID_MU,
    evaluation_at_unit, check_contramodule_hopf, check_ayd_hopf,
    check_stability_hopf, tau_theta_hopf, tau_matrix,
    convert_I_to_II, convert_II_to_I, tau_from_contramodule,
    check_contramodule_algebroid, check_ayd_algebroid, check_stability_algebroid,
    ayd_compatibility_system)
from qha.center import (CenterElement, check_hexagon, check_unitality,
                        check_stability_central, check_weakstrong)
from qha.cyclic import (unit_algebra, build_cocyclic, verify_cocyclic_identities,
                        hochschild_cohomology, cyclic_cohomology)

from conftest import random_module, random_invertible, random_stack
from test_cyclic import (trivial_hopf, dual_numbers_algebra, dual_numbers_oracle,
                         functions_algebra)

QQ = rationals()
F5 = prime_field(5)


def record(num, description, ok):
    print("\nACCEPTANCE %2d %s: %s" % (num, "PASS" if ok else "FAIL", description))
    assert ok, "acceptance criterion %d failed: %s" % (num, description)


def four_algebras(field):
    return [
        group_algebra(field, cyclic_group_table(2), "kC2"),
        group_algebra(field, symmetric_group_table(3), "kS3"),
        sweedler_h4(field),
        twisted_dual_group_algebra(field, cyclic_group_table(2),
                                   z2_nontrivial_cocycle(field)),
    ]


def unit_coefficient(H, flavor):
    k = trivial_module(H)
    return Contramodule(k, evaluation_at_unit(k), flavor)


def _is_three_cocycle(field, table, w):
    """Direct cochain-level verification, independent of the pentagon check:
    w(h,k,l) w(g,hk,l) w(g,h,k) = w(gh,k,l) w(g,h,kl) for all g,h,k,l."""
    n = len(table)
    for g in range(n):
        for h in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = field.mul(field.mul(w[h][k][l], w[g][table[h][k]][l]),
                                    w[g][h][k])
                    rhs = field.mul(w[table[g][h]][k][l], w[g][h][table[k][l]])
                    if lhs != rhs:
                        return False
    return True


def test_criterion_1_axiom_suites():
    t0 = time.monotonic()
    ok = True
    for field in (QQ, F5):
        for H in four_algebras(field):
            ok = ok and check_quasi_bialgebra(H).passed and check_quasi_hopf(H).passed
    table = cyclic_group_table(2)
    for field in (QQ, F5):
        ok = ok and _is_three_cocycle(field, table, z2_nontrivial_cocycle(field))
        o, m = field.one, field.neg(field.one)
        non_cocycle = [[[o, o], [o, o]], [[o, o], [m, o]]]   # w(a,a,e) = -1
        ok = ok and not _is_three_cocycle(field, table, non_cocycle)
        bad = twisted_dual_group_algebra(field, table, non_cocycle)
        rep = check_quasi_bialgebra(bad)
        ok = ok and rep.failed_ids() == ["pentagon"] and check_quasi_hopf(bad).passed
    elapsed = time.monotonic() - t0
    record(1, "axiom suites over Q and GF(5), verified non-cocycle fails "
              "exactly the pentagon (%.2fs < 5s)" % elapsed, ok and elapsed < 5.0)


def _single_entry_mutants(H):
    """Every data argument with one scalar moved by 1 to 4 mod 5: the flat
    entries of a matrix (comult last), or of an element."""
    for fname in ("mult", "unit", "counit", "phi", "phi_inv", "alpha", "beta",
                  "antipode", "antipode_inv", "comult"):
        value = getattr(H, fname)
        data = value.entries if isinstance(value, Matrix) else value
        for idx in range(len(data)):
            for delta in range(1, 5):
                vals = list(data)
                vals[idx] = (vals[idx] + delta) % 5
                yield fname, (Matrix(F5, value.rows, value.cols, vals)
                              if isinstance(value, Matrix) else vals)


def test_criterion_2_mutation_sensitivity():
    H = group_algebra(F5, cyclic_group_table(2), "kC2")
    total = flagged = 0
    for key, vals in _single_entry_mutants(H):
        kw = dict(field=H.field, dim=H.dim, mult=H.mult, unit=H.unit,
                  comult=H.comult, counit=H.counit, antipode=H.antipode,
                  antipode_inv=H.antipode_inv, phi=H.phi, phi_inv=H.phi_inv,
                  alpha=H.alpha, beta=H.beta)
        kw[key] = vals
        Hm = QuasiHopfAlgebra(**kw)
        valid = (validate_structure(Hm).passed
                 and check_quasi_bialgebra(Hm).passed
                 and check_quasi_hopf(Hm).passed)
        total += 1
        flagged += 0 if valid else 1
    rate = flagged / total
    record(2, "mutation sensitivity %d/%d = %.3f >= 0.9 (exhaustive sweep)"
              % (flagged, total, rate), rate >= 0.9)


def _random_algebroid_module(H, dim, seed):
    rng = random.Random(seed)
    f = H.field
    R = base_module(H)
    K = HModule(
        H, [Matrix(f, 1, 1, [f.one if i == 0 else f.zero])
            for i in range(H.dim)], name="k0")
    blocks, total = [], 0
    while total < dim:
        if dim - total >= 2 and rng.random() < 0.6:
            blocks.append(R)
            total += 2
        else:
            blocks.append(K)
            total += 1
    mats = []
    for i in range(H.dim):
        ent = [[f.zero] * dim for _ in range(dim)]
        off = 0
        for b in blocks:
            for r_ in range(b.dim):
                for c_ in range(b.dim):
                    ent[off + r_][off + c_] = b.mats[i].get(r_, c_)
            off += b.dim
        mats.append(Matrix.from_rows(f, ent))
    g = random_invertible(f, dim, rng)
    gi = g.inverse()
    return HModule(H, [g * m * gi for m in mats], name="rand%d" % dim)


def test_criterion_3_adjunction_roundtrips():
    t0 = time.monotonic()
    ok = True
    tested = 0
    for H in (group_algebra(F5, cyclic_group_table(2), "kC2"),
              twisted_dual_group_algebra(F5, cyclic_group_table(2),
                                         z2_nontrivial_cocycle(F5))):
        mods = {d: random_module(H, d, 100 + d) for d in (1, 2, 3)}
        for d1, d2, d3 in itertools.product((1, 2, 3), repeat=3):
            M, N, L = mods[d1], mods[d2], mods[d3]
            fm = random_stack(tensor_module(M, N), L, d1 * 9 + d2 * 3 + d3)
            if fm is not None:
                g = zeta_l(fm, M, N, L)
                ok = ok and eta_l(g, M, N, L) == fm
                ok = ok and zeta_l(eta_l(g, M, N, L), M, N, L) == g
                tested += 1
            fm = random_stack(tensor_module(N, M), L,
                                    500 + d1 * 9 + d2 * 3 + d3)
            if fm is not None:
                g = zeta_r(fm, N, M, L)
                ok = ok and eta_r(g, N, M, L) == fm
                ok = ok and zeta_r(eta_r(g, N, M, L), N, M, L) == g
                tested += 1
    H = enveloping_algebroid(base_ring_dual_numbers(F5))
    mods = {d: _random_algebroid_module(H, d, 200 + d) for d in (1, 2, 3)}
    for d1, d2, d3 in itertools.product((1, 2, 3), repeat=3):
        M, N, L = mods[d1], mods[d2], mods[d3]
        tens, _ = tensor_over_base(M, N)
        fm = random_stack(tens, L, d1 * 9 + d2 * 3 + d3)
        if fm is not None:
            g = zeta_l_algebroid(fm, M, N, L)
            ok = ok and eta_l_algebroid(g, M, N, L) == fm
            ok = ok and zeta_l_algebroid(eta_l_algebroid(g, M, N, L), M, N, L) == g
            tested += 1
        tens, _ = tensor_over_base(N, M)
        fm = random_stack(tens, L, 700 + d1 * 9 + d2 * 3 + d3)
        if fm is not None:
            g = zeta_r_algebroid(fm, N, M, L)
            ok = ok and eta_r_algebroid(g, N, M, L) == fm
            ok = ok and zeta_r_algebroid(eta_r_algebroid(g, N, M, L), N, M, L) == g
            tested += 1
    elapsed = time.monotonic() - t0
    record(3, "adjunction roundtrips exact on %d instances, quasi-Hopf and "
              "algebroid, dims <= 3 over GF(5) (%.2fs < 30s)" % (tested, elapsed),
           ok and tested >= 100 and elapsed < 30.0)


def test_criterion_4_hopf_coefficient_suite():
    H = group_algebra(QQ, cyclic_group_table(2), "kC2")
    C = unit_coefficient(H, HOPF_MU)
    ok = check_contramodule_hopf(C).passed
    ayd = check_ayd_hopf(C)
    ok = ok and ayd.passed
    ok = ok and (ayd.result("ayd_eq_one").passed == ayd.result("ayd_eq_two").passed)
    ok = ok and check_stability_hopf(C).passed
    reg = regular_module(H)
    tau, theta = tau_theta_hopf(C, reg)
    ok = ok and (theta * tau).is_identity() and (tau * theta).is_identity()
    E = CenterElement(C)
    ok = ok and check_hexagon(E, reg, reg).passed
    ok = ok and check_unitality(E).passed
    scaled = C.scaled(QQ.from_int(2))
    rep = check_stability_hopf(scaled)
    ok = ok and not rep.passed and rep.results[0].counterexample is not None
    record(4, "Hopf coefficient suite over kC2 (contramodule, aYD with "
              "agreeing forms, stability, theta/tau inverse, hexagon, "
              "unitality, scaled-mu witness)", ok)


def _random_tensor(carrier, seed):
    f = carrier.parent.field
    rng = random.Random(seed)
    n = carrier.dim * carrier.dim * carrier.parent.dim
    return Matrix(f, carrier.dim, carrier.dim * carrier.parent.dim,
                  [f.from_int(rng.randrange(-4, 5)) for _ in range(n)])


def _random_ayd_tensor(carrier, space, seed):
    f = carrier.parent.field
    rng = random.Random(seed)
    n = carrier.dim * carrier.dim * carrier.parent.dim
    vec = [f.zero] * n
    for b in space.basis:
        c = f.from_int(rng.randrange(-4, 5))
        vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, b)]
    return Matrix(f, carrier.dim, carrier.dim * carrier.parent.dim, vec)


def test_criterion_5_conversion_coherence():
    ok = True
    for H in four_algebras(QQ):
        reg = regular_module(H)
        hopf_case = H.is_hopf()
        ayd_space = None
        if not hopf_case:
            ayd_space = ayd_compatibility_system(reg, QUASI_I).kernel()
        for seed in range(50):
            if hopf_case:
                mu = _random_tensor(reg, seed)
            else:
                # tensors of genuine contraactions: the aYD-compatible space
                mu = _random_ayd_tensor(reg, ayd_space, seed)
            CI = Contramodule(reg, mu, QUASI_I)
            CII = convert_I_to_II(CI)
            ok = ok and convert_II_to_I(CII).mu == mu
            ok = ok and convert_I_to_II(convert_II_to_I(CII)).mu == CII.mu
            if hopf_case:
                ok = ok and CII.mu == mu      # conversions are the identity
        # tau built from type I equals tau from the converted type II
        C = unit_coefficient(H, QUASI_I)
        CII = convert_I_to_II(C)
        k = trivial_module(H)
        for V in (k, reg):
            ok = ok and tau_matrix(C, V) == tau_matrix(convert_II_to_I(CII), V)
    record(5, "type I<->II conversion roundtrips tensor-exact on 50 random "
              "contraaction tensors per algebra; identity when Phi trivial; "
              "tau agreement exact", ok)


def test_criterion_6_cyclic_cohomology_of_unit():
    t0 = time.monotonic()
    ok = True
    for field in (QQ, F5):
        H = group_algebra(field, cyclic_group_table(2), "kC2")
        cc = build_cocyclic(unit_algebra(H), unit_coefficient(H, HOPF_MU), 5)
        ok = ok and cyclic_cohomology(cc, 4).dims == [1, 0, 1, 0, 1]
        ok = ok and hochschild_cohomology(cc, 3).dims == [1, 0, 0, 0]
    elapsed = time.monotonic() - t0
    record(6, "HC(unit) = [1,0,1,0,1], HH = [1,0,0,0] over Q and GF(5) "
              "(%.2fs < 10s)" % elapsed, ok and elapsed < 10.0)


def test_criterion_7_classical_oracle():
    H = trivial_hopf(QQ)
    A = dual_numbers_algebra(H, QQ)
    cc = build_cocyclic(A, unit_coefficient(H, HOPF_MU), 4)
    oracle = dual_numbers_oracle(QQ)
    hh_ok = hochschild_cohomology(cc, 3).dims == oracle.hochschild_dims(3)
    hc_ok = cyclic_cohomology(cc, 3).dims == oracle.cyclic_dims(3)
    record(7, "pipeline matches the independently coded classical cyclic "
              "cochain complex for A = k[x]/(x^2) in degrees <= 3",
           hh_ok and hc_ok)


def _suite_cocyclic_modules(n_max=4):
    out = []
    for field in (QQ, F5):
        H = group_algebra(field, cyclic_group_table(2), "kC2")
        out.append(("kC2 unit/%s" % field,
                    build_cocyclic(unit_algebra(H), unit_coefficient(H, HOPF_MU),
                                   n_max)))
    Ht = twisted_dual_group_algebra(QQ, cyclic_group_table(2),
                                    z2_nontrivial_cocycle(QQ))
    out.append(("twisted unit",
                build_cocyclic(unit_algebra(Ht), unit_coefficient(Ht, QUASI_I),
                               n_max)))
    Hk = trivial_hopf(QQ)
    out.append(("dual numbers over k",
                build_cocyclic(dual_numbers_algebra(Hk, QQ),
                               unit_coefficient(Hk, HOPF_MU), n_max)))
    Hc = group_algebra(QQ, cyclic_group_table(2), "kC2")
    out.append(("functions algebra over kC2",
                build_cocyclic(functions_algebra(Hc),
                               unit_coefficient(Hc, HOPF_MU), n_max)))
    He = enveloping_algebroid(base_ring_dual_numbers(F5))
    Me = Contramodule(base_module(He),
                      Matrix(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0,
                                        0, 0, 0, 0, 1, 0, 0, 0]), ALGEBROID_MU)
    out.append(("enveloping algebroid", build_cocyclic(unit_algebra(He), Me, n_max)))
    return out


def test_criterion_8_cocyclic_identity_suite():
    ok = True
    for name, cc in _suite_cocyclic_modules(4):
        problem = verify_cocyclic_identities(cc)
        ok = ok and problem is None
        for n in range(cc.n_max + 1):
            t = cc.cyclics[n]
            acc = Matrix.identity(cc.field, cc.dim(n))
            for _ in range(n + 1):
                acc = acc * t
            ok = ok and acc.is_identity()
            lam = cc.lam(n)
            eye = Matrix.identity(cc.field, cc.dim(n))
            big_n = cc.norm(n)
            ok = ok and (big_n * (eye - lam)).is_zero()
            ok = ok and ((eye - lam) * big_n).is_zero()
    record(8, "all cosimplicial/cocyclic identities, t^(n+1) = id and "
              "(1-lambda)/N exactness on every built example (n_max = 4)", ok)


def test_criterion_9_algebroid_suite():
    H = enveloping_algebroid(base_ring_dual_numbers(QQ))
    ok = (check_algebroid_structure(H).passed
          and check_left_bialgebroid(H).passed
          and check_right_bialgebroid(H).passed)
    hrep = check_hopf_algebroid(H)
    ok = ok and hrep.passed
    ok = ok and hrep.result("kow_identity").passed
    ok = ok and hrep.result("sinv_twisted_linear").passed

    # R = k reduction: every algebroid-path result equals the quasi-Hopf path
    Hq = group_algebra(F5, cyclic_group_table(2), "kC2")
    Ha = algebroid_from_hopf(Hq)
    ok = ok and (check_algebroid_structure(Ha).passed
                 and check_left_bialgebroid(Ha).passed
                 and check_right_bialgebroid(Ha).passed
                 and check_hopf_algebroid(Ha).passed)
    regq, rega = regular_module(Hq), regular_module(Ha)
    kq, ka = trivial_module(Hq), base_module(Ha)
    ok = ok and all(a == b for a, b in zip(kq.mats, ka.mats))
    ok = ok and all(a == b for a, b in zip(regq.mats, rega.mats))
    tq = tensor_module(regq, regq)
    ta, rel = tensor_over_base(rega, rega)
    ok = ok and rel.dim == 0
    ok = ok and all(a == b for a, b in zip(tq.mats, ta.mats))
    from qha.quasihopf import left_hom, right_hom
    hla, _ = left_hom_algebroid(rega, rega)
    hra, _ = right_hom_algebroid(rega, rega)
    ok = ok and all(a == b for a, b in zip(left_hom(regq, regq)[0].mats, hla.mats))
    ok = ok and all(a == b for a, b in zip(right_hom(regq, regq)[0].mats, hra.mats))
    sp = hom_module_morphisms(tq, regq)
    fm = Matrix(F5, 1, regq.dim * tq.dim, sp.basis[0])
    ok = ok and zeta_l(fm, regq, regq, regq) == zeta_l_algebroid(fm, rega, rega, rega)
    ok = ok and zeta_r(fm, regq, regq, regq) == zeta_r_algebroid(fm, rega, rega, rega)
    Cq = Contramodule(kq, evaluation_at_unit(kq), HOPF_MU)
    Ca = Contramodule(ka, evaluation_at_unit(ka), ALGEBROID_MU)
    ok = ok and (check_contramodule_algebroid(Ca).passed
                 == check_contramodule_hopf(Cq).passed == True)  # noqa: E712
    ok = ok and (check_ayd_algebroid(Ca).passed == check_ayd_hopf(Cq).passed)
    ok = ok and (check_stability_algebroid(Ca).passed
                 == check_stability_hopf(Cq).passed)
    ok = ok and tau_from_contramodule(Ca, rega) == tau_from_contramodule(Cq, regq)
    record(9, "enveloping algebroid passes every bialgebroid/Hopf-algebroid "
              "check incl. derived identities; R = k matches the quasi-Hopf "
              "path bit-exactly", ok)


def test_criterion_10_stability_forces_invertibility():
    ok = True
    # Hopf over kC2 (Q and GF(5))
    for field in (QQ, F5):
        H = group_algebra(field, cyclic_group_table(2), "kC2")
        E = CenterElement(unit_coefficient(H, HOPF_MU))
        ok = ok and check_stability_central(E).passed
        for d in (1, 2, 3):
            V = random_module(H, d, 300 + d)
            ok = ok and check_weakstrong(E, V).passed
    # quasi over the twisted dual
    Ht = twisted_dual_group_algebra(QQ, cyclic_group_table(2),
                                    z2_nontrivial_cocycle(QQ))
    E = CenterElement(unit_coefficient(Ht, QUASI_I))
    ok = ok and check_stability_central(E).passed
    for d in (1, 2, 3):
        V = random_module(Ht, d, 310 + d)
        ok = ok and check_weakstrong(E, V).passed
    # algebroid over the enveloping algebroid
    He = enveloping_algebroid(base_ring_dual_numbers(F5))
    Me = Contramodule(base_module(He),
                      Matrix(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0,
                                        0, 0, 0, 0, 1, 0, 0, 0]), ALGEBROID_MU)
    E = CenterElement(Me)
    ok = ok and check_stability_central(E).passed
    for d in (1, 2, 3):
        V = _random_algebroid_module(He, d, 320 + d)
        ok = ok and check_weakstrong(E, V).passed
    record(10, "tau_V has full rank for every stable coefficient in the "
               "suite, all test modules of dim <= 3", ok)
