import pytest

from qha.linalg import Matrix, Subspace, stack_of_maps, stack_rmul
from qha.quasihopf import (trivial_module, regular_module, tensor_module,
                           left_hom, right_hom, zeta_l, eta_l, zeta_r, eta_r, hom_carriers,
                           hom_module_morphisms, check_module, is_intertwiner,
                           group_algebra, cyclic_group_table, sweedler_h4,
                           StructureError)
from qha.algebroid import (
    BaseRing, HopfAlgebroid,
    base_ring_dual_numbers, base_ring_scalars, enveloping_algebroid,
    algebroid_from_hopf, base_module,
    tensor_over_base, left_hom_algebroid, right_hom_algebroid,
    right_linear_hom_basis, left_linear_hom_basis,
    zeta_l_algebroid, eta_l_algebroid, zeta_r_algebroid,
    check_algebroid_structure, check_left_bialgebroid,
    check_right_bialgebroid, check_hopf_algebroid)
from qha.structures import serialize

from conftest import QQ, F5, random_stack, base_ring_t2


def all_pass(H):
    return (check_algebroid_structure(H).passed
            and check_left_bialgebroid(H).passed
            and check_right_bialgebroid(H).passed
            and check_hopf_algebroid(H).passed)


@pytest.mark.parametrize("field", [QQ, F5])
def test_enveloping_algebroid_passes_all_checks(field):
    assert all_pass(enveloping_algebroid(base_ring_dual_numbers(field)))


def test_t2_base_is_noncommutative(t2e_f5):
    R = t2e_f5.base
    assert R.validate().passed
    assert R.prod(R.basis(0), R.basis(1)) != R.prod(R.basis(1), R.basis(0))


REVERSED_INPUTS = [
    pytest.param(lambda: enveloping_algebroid(base_ring_dual_numbers(QQ)), id="env-Q"),
    pytest.param(lambda: enveloping_algebroid(base_ring_dual_numbers(F5)), id="env-F5"),
    pytest.param(lambda: enveloping_algebroid(base_ring_t2(F5)), id="T2e-F5"),
    pytest.param(lambda: algebroid_from_hopf(
        group_algebra(QQ, cyclic_group_table(3), "kC3")), id="kC3-Q"),
    # S has order four, so S and S^-1 differ
    pytest.param(lambda: algebroid_from_hopf(sweedler_h4(QQ)), id="H4-Q"),
]


@pytest.mark.parametrize("make", REVERSED_INPUTS)
def test_reversed_algebroids_pass_every_suite(make):
    H = make()
    for X in (H, H.cop, H.op):
        assert all_pass(X), X.name
    assert H.cop.base.mult == H.op.base.mult == H.base.op.mult
    assert H.cop.cop.base.mult == H.op.op.base.mult == H.base.mult
    assert serialize(H.cop.cop, "x") == serialize(H, "x")
    assert serialize(H.op.op, "x") == serialize(H, "x")
    assert H.cop is H.cop and H.op is H.op


def test_trivial_enveloping_of_scalars():
    H = enveloping_algebroid(base_ring_scalars(QQ))
    assert H.dim == 1
    assert all_pass(H)


def test_base_dim_zero_rejected():
    with pytest.raises(StructureError):
        BaseRing(QQ, 0, [], [])


def test_group_algebra_as_algebroid_passes(kc2_q):
    assert all_pass(algebroid_from_hopf(kc2_q))


def test_algebroid_from_hopf_rejects_quasi(twisted_q):
    with pytest.raises(StructureError):
        algebroid_from_hopf(twisted_q)


def test_corrupt_delta_lift_flagged(env_q):
    H = env_q
    ent = list(H.delta_l_lift.entries)
    ent[0] = QQ.add(ent[0], QQ.one)
    bad = HopfAlgebroid(H.base, H.dim, H.mult, H.unit, H.s_l, H.t_l, H.s_r, H.t_r,
                        Matrix(QQ, H.dim ** 2, H.dim, ent), H.delta_r_lift,
                        H.eps_l, H.eps_r, H.antipode, H.antipode_inv)
    rep = check_left_bialgebroid(bad)
    assert not rep.passed
    failed = set(rep.failed_ids())
    assert failed & {"takeuchi_left", "delta_l_coassoc", "delta_l_bimodule",
                     "delta_l_counital", "delta_l_multiplicative"}


def _replace(H, **changes):
    fields = dict(base=H.base, dim=H.dim, mult=H.mult, unit=H.unit,
                  s_l=H.s_l, t_l=H.t_l, s_r=H.s_r, t_r=H.t_r,
                  delta_l_lift=H.delta_l_lift, delta_r_lift=H.delta_r_lift,
                  eps_l=H.eps_l, eps_r=H.eps_r,
                  antipode=H.antipode, antipode_inv=H.antipode_inv)
    fields.update(changes)
    return HopfAlgebroid(**fields)


# (structure matrix, entry bumped by one) -> failed ids of the right suite,
# recorded with the hand-written right bialgebroid checks
RIGHT_SUITE_CORRUPTIONS = [
    ("delta_r_lift", 0, {"delta_r_bimodule", "delta_r_coassoc", "delta_r_counital",
                         "delta_r_multiplicative"}),
    ("delta_r_lift", 3, {"delta_r_bimodule", "delta_r_counital",
                         "delta_r_multiplicative"}),
    ("delta_r_lift", 36, {"delta_r_coassoc", "delta_r_counital",
                          "delta_r_multiplicative"}),
    ("delta_r_lift", 45, {"delta_r_bimodule", "delta_r_coassoc"}),
    ("delta_r_lift", 24, set()),            # a change inside the relations
    ("eps_r", 0, {"delta_r_counital", "eps_r_bimodule", "eps_r_character"}),
    ("eps_r", 3, {"eps_r_bimodule", "eps_r_character"}),
    ("eps_r", 4, {"delta_r_counital", "eps_r_character"}),
    ("t_r", 0, {"delta_r_counital", "eps_r_bimodule", "eps_r_character"}),
    ("t_r", 2, {"delta_r_bimodule", "delta_r_counital", "eps_r_bimodule",
                "eps_r_character"}),
    ("t_r", 6, {"delta_r_bimodule", "delta_r_counital"}),
]


@pytest.mark.parametrize("attr,k,failed", RIGHT_SUITE_CORRUPTIONS)
def test_corrupt_right_structure_flagged(env_q, attr, k, failed):
    m = getattr(env_q, attr)
    ent = list(m.entries)
    ent[k] = QQ.add(ent[k], QQ.one)
    bad = _replace(env_q, **{attr: Matrix(QQ, m.rows, m.cols, ent)})
    rep = check_right_bialgebroid(bad)
    assert [r.check_id for r in rep.results] == [
        "delta_r_bimodule", "delta_r_coassoc", "delta_r_counital", "eps_r_bimodule",
        "takeuchi_right", "delta_r_multiplicative", "eps_r_character"]
    assert set(rep.failed_ids()) == failed


def test_corrupt_antipode_fails_axiom_3_or_4(env_q):
    H = env_q
    ent = list(H.antipode.entries)
    ent[1] = QQ.add(ent[1], QQ.one)
    bad = HopfAlgebroid(H.base, H.dim, H.mult, H.unit, H.s_l, H.t_l, H.s_r, H.t_r,
                        H.delta_l_lift, H.delta_r_lift, H.eps_l, H.eps_r,
                        Matrix(QQ, H.dim, H.dim, ent), H.antipode_inv)
    rep = check_hopf_algebroid(bad)
    failed = set(rep.failed_ids())
    assert failed & {"antipode_twisted_linear", "antipode_convolution_left",
                     "antipode_convolution_right"}


def test_unitors_are_module_isomorphisms(t2e_f5):
    H = t2e_f5
    unit = H.unit_object()
    for V in (regular_module(H), unit):
        for lam, tens in ((H.left_unitor(V), tensor_module(unit, V)),
                          (H.right_unitor(V), tensor_module(V, unit))):
            assert is_intertwiner(stack_of_maps(lam, V.dim), tens, V)
            assert lam.rows == lam.cols == V.dim == lam.rank()


def test_tensor_over_base_quotient_dims(env_f5):
    H = env_f5
    reg = regular_module(H)
    t, rel = tensor_over_base(reg, reg)
    assert t.dim == 8                       # 16 ambient minus 8 relations
    assert rel.dim == 8
    assert check_module(t).passed
    # relations stable under the diagonal action was verified during the build


def test_base_relations_quotient_is_made_once(env_f5):
    H = env_f5
    assert H.rel_l.projector is H.rel_l.projector
    assert H.rel_l.lift is H.rel_l.lift


def test_tensor_with_base_as_unit(env_f5):
    H = env_f5
    reg = regular_module(H)
    R = base_module(H)
    t, _ = tensor_over_base(reg, R)
    assert t.dim == reg.dim
    t2, _ = tensor_over_base(R, reg)
    assert t2.dim == reg.dim


def test_relations_vanish_over_scalar_base(kc2_f5):
    H = algebroid_from_hopf(kc2_f5)
    reg = regular_module(H)
    t, rel = tensor_over_base(reg, reg)
    assert rel.dim == 0
    assert t.dim == reg.dim ** 2


def test_hom_carriers_and_lemma_right_left(env_f5):
    # Hom(M, N)_{R_l} computed from the t_l constraints coincides with the
    # subspace computed from the equivalent s_r constraints: right
    # base-linearity coincides with left opposite-base-linearity
    H = env_f5
    reg = regular_module(H)
    R = base_module(H)
    for M, N in [(reg, reg), (reg, R), (R, reg)]:
        via_tl = right_linear_hom_basis(M, N)
        from qha.linalg import intertwiner_space
        pairs = [(M.act(H.s_r.col(b)), N.act(H.s_r.col(b)))
                 for b in range(H.base.dim)]
        via_sr = intertwiner_space(H.field, pairs, N.dim, M.dim)
        assert via_tl == via_sr
        via_sl = left_linear_hom_basis(M, N)
        pairs = [(M.act(H.t_r.col(b)), N.act(H.t_r.col(b)))
                 for b in range(H.base.dim)]
        via_tr = intertwiner_space(H.field, pairs, N.dim, M.dim)
        assert via_sl == via_tr


def test_hom_carriers_without_modules(env_f5, t2e_f5, twisted_q):
    # the carrier-only query gives the carriers of the hom modules; the
    # left-linear maps are the carrier of Hom^r, the H^cop carrier
    for H in (env_f5, t2e_f5):
        reg, R = regular_module(H), base_module(H)
        for V, M in [(reg, reg), (reg, R), (R, reg), (R, R)]:
            assert hom_carriers(V, M) == (left_hom(V, M)[1], right_hom(V, M)[1])
            assert hom_carriers(V, M)[1] == left_linear_hom_basis(V, M)
    # over a quasi-Hopf algebra both carriers are all of Hom_k, the one
    # shared full subspace of its size
    reg = regular_module(twisted_q)
    full = Subspace.full(twisted_q.field, reg.dim * reg.dim)
    assert hom_carriers(reg, reg) == (full, full)
    assert left_hom(reg, reg)[1] is full and right_hom(reg, reg)[1] is full


def test_hom_modules_are_unital_actions(env_f5):
    H = env_f5
    reg = regular_module(H)
    R = base_module(H)
    for V, M in [(reg, reg), (reg, R), (R, reg)]:
        hl, _ = left_hom_algebroid(V, M)
        hr, _ = right_hom_algebroid(V, M)
        assert check_module(hl).passed
        assert check_module(hr).passed


def test_hom_action_independent_of_lift(env_f5):
    # perturbing the Delta_r lift by a relation element leaves the induced
    # hom action on the base-linear carrier unchanged
    H = env_f5
    f = H.field
    reg = regular_module(H)
    R = base_module(H)
    hl, _ = left_hom_algebroid(reg, R)
    pert = list(H.delta_r_lift.entries)
    relvec = H.rel_r.basis[0]
    n = H.dim
    for i in range(n * n):
        pert[i * n + 2] = f.add(pert[i * n + 2], relvec[i])
    H2 = HopfAlgebroid(H.base, H.dim, H.mult, H.unit, H.s_l, H.t_l, H.s_r, H.t_r,
                       H.delta_l_lift, Matrix(f, n * n, n, pert),
                       H.eps_l, H.eps_r, H.antipode, H.antipode_inv)
    reg2 = regular_module(H2)
    R2 = base_module(H2)
    hl2, _ = left_hom_algebroid(reg2, R2)
    assert all(a == b for a, b in zip(hl.mats, hl2.mats))


def _reg_and_base(*algebroids):
    for H in algebroids:
        yield H, regular_module(H), base_module(H)


def test_lemma_rights_identities(env_f5, t2e_f5):
    # t_l(r).phi = phi(s_l(r) -) and s_l(r).phi = s_l(r) phi(-) on Hom^l;
    # s_l(r).psi = psi(t_l(r) -) and t_l(r).psi = t_l(r) psi(-) on Hom^r.
    for H, reg, R in _reg_and_base(env_f5, t2e_f5):
        f = H.field
        for V, M in [(reg, R), (R, reg), (reg, reg)]:
            hl, bl = left_hom_algebroid(V, M)
            blm = bl.basis_matrix()
            hr, br = right_hom_algebroid(V, M)
            brm = br.basis_matrix()
            for b in range(H.base.dim):
                tl, sl = H.t_l.col(b), H.s_l.col(b)
                for t in range(bl.dim):
                    phi = Matrix(f, M.dim, V.dim, blm.col(t))
                    acted = Matrix(f, M.dim, V.dim,
                                   blm.apply(hl.act(tl).col(t)))
                    assert acted == phi * V.act(sl)
                    acted = Matrix(f, M.dim, V.dim, blm.apply(hl.act(sl).col(t)))
                    assert acted == M.act(sl) * phi
                for t in range(br.dim):
                    psi = Matrix(f, M.dim, V.dim, brm.col(t))
                    acted = Matrix(f, M.dim, V.dim, brm.apply(hr.act(sl).col(t)))
                    assert acted == psi * V.act(tl)
                    acted = Matrix(f, M.dim, V.dim, brm.apply(hr.act(tl).col(t)))
                    assert acted == M.act(tl) * psi


def _unit_vec(f, n, i):
    return tuple(f.one if k == i else f.zero for k in range(n))


def _image(S, vec):
    """F(vec) for the map F of the one-row stack S: the row of vec(F . vec)."""
    return stack_rmul(S, Matrix.from_cols(S.field, [vec])).row(0)


def _assert_evaluates(ev, rel, basis, V, M, hom_first):
    """ev, a one-row stack, on the quotient rel of Hom (x) V (hom_first) or
    V (x) Hom sends the class of e_c (x) e_v, resp. e_v (x) e_c, to
    phi_c(v), phi_c the basis map c of the hom carrier."""
    f = V.parent.field
    bm, dh = basis.basis_matrix(), basis.dim
    for c in range(dh):
        phi = Matrix(f, M.dim, V.dim, bm.col(c))
        for v in range(V.dim):
            k = c * V.dim + v if hom_first else v * dh + c
            amb = _unit_vec(f, dh * V.dim, k)
            assert _image(ev, rel.projector.apply(amb)) == phi.col(v)


def test_evaluations_are_morphisms(env_f5, t2e_f5):
    # ev^l = eta^l(id) and ev^r = eta^r(id) are morphisms and act as phi(v),
    # read off the canonical hom carriers and the tensor quotients
    for H, reg, R in _reg_and_base(env_f5, t2e_f5):
        f = H.field
        pairs = [(reg, R), (R, reg)]
        if H is env_f5:
            # over T2^e, V = M = reg puts a 243-dim ambient tensor behind
            # each evaluation, which takes about a minute
            pairs.insert(0, (reg, reg))
        for V, M in pairs:
            hl, bl = left_hom(V, M)
            ev = eta_l(stack_of_maps(Matrix.identity(f, hl.dim), hl.dim), hl, V, M)
            tens, rel = tensor_over_base(hl, V)
            assert is_intertwiner(ev, tens, M)
            _assert_evaluates(ev, rel, bl, V, M, hom_first=True)
            hr, br = right_hom(V, M)
            evr = eta_r(stack_of_maps(Matrix.identity(f, hr.dim), hr.dim), V, hr, M)
            tens, rel = tensor_over_base(V, hr)
            assert is_intertwiner(evr, tens, M)
            _assert_evaluates(evr, rel, br, V, M, hom_first=False)


def test_right_hand_maps_act_on_the_second_factor(env_f5, t2e_f5):
    # zeta^r(f)(m) = f(- (x) m), read directly off the canonical Hom^r
    # carrier and the N (x)_R M quotient (ev^r = eta^r(id) acts as phi(v):
    # test_evaluations_are_morphisms)
    for H, reg, R in _reg_and_base(env_f5, t2e_f5):
        f = H.field
        for N, M, L in [(reg, R, reg), (R, reg, reg)]:
            tens, rel = tensor_over_base(N, M)
            fm = random_stack(tens, L, 7)
            g = zeta_r_algebroid(fm, N, M, L)
            bm = right_hom_algebroid(N, L)[1].basis_matrix()
            for i in range(M.dim):
                phi = Matrix(f, L.dim, N.dim, bm.apply(_image(g, _unit_vec(f, M.dim, i))))
                for j in range(N.dim):
                    amb = _unit_vec(f, N.dim * M.dim, j * M.dim + i)
                    assert phi.col(j) == _image(fm, rel.projector.apply(amb))


def test_scalar_base_reduces_to_quasihopf(kc2_f5):
    Hq = kc2_f5
    Ha = algebroid_from_hopf(Hq)
    regq, rega = regular_module(Hq), regular_module(Ha)
    kq, ka = trivial_module(Hq), base_module(Ha)
    assert all(a == b for a, b in zip(kq.mats, ka.mats))
    assert all(a == b for a, b in zip(regq.mats, rega.mats))
    tq = tensor_module(regq, regq)
    ta, _ = tensor_over_base(rega, rega)
    assert all(a == b for a, b in zip(tq.mats, ta.mats))
    (hlq, _), (hla, _) = left_hom(regq, regq), left_hom_algebroid(rega, rega)
    assert all(a == b for a, b in zip(hlq.mats, hla.mats))
    (hrq, _), (hra, _) = right_hom(regq, regq), right_hom_algebroid(rega, rega)
    assert all(a == b for a, b in zip(hrq.mats, hra.mats))
    sp = hom_module_morphisms(tq, regq)
    fm = Matrix(F5, 1, regq.dim * tq.dim, sp.basis[0])
    assert zeta_l(fm, regq, regq, regq) == zeta_l_algebroid(fm, rega, rega, rega)
    assert zeta_r(fm, regq, regq, regq) == zeta_r_algebroid(fm, rega, rega, rega)
    ga = zeta_l_algebroid(fm, rega, rega, rega)
    assert eta_l(ga, regq, regq, regq) == eta_l_algebroid(ga, rega, rega, rega)


def test_mixed_coassoc_holds_modulo_relations(env_q):
    rep = check_hopf_algebroid(env_q)
    assert rep.result("mixed_coassoc_1").passed
    assert rep.result("mixed_coassoc_2").passed
    assert rep.result("kow_identity").passed
    assert rep.result("sinv_twisted_linear").passed


def test_tensor_over_base_refuses_a_dimension_over_the_cap(monkeypatch):
    reg = regular_module(enveloping_algebroid(base_ring_dual_numbers(QQ)))
    monkeypatch.setenv("QHA_MAX_DIM", "15")
    with pytest.raises(StructureError, match="^tensor dimension 16 exceeds QHA_MAX_DIM$"):
        tensor_over_base(reg, reg)
