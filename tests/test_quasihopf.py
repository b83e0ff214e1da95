import pytest
from hypothesis import given, settings, strategies as st

from qha import quasihopf
from qha.fields import prime_field
from qha.linalg import Matrix, stack_of_maps
from qha.quasihopf import (
    QuasiHopfAlgebra, GroupTableError, StructureError, IntertwinerError,
    group_algebra, sweedler_h4, twisted_dual_group_algebra,
    cyclic_group_table, symmetric_group_table, z2_nontrivial_cocycle,
    z3_nontrivial_cocycle, primitive_root_of_unity,
    validate_structure, check_quasi_bialgebra, check_quasi_hopf,
    trivial_module, regular_module, tensor_module, check_module, associator,
    left_hom, right_hom, eval_left, eval_right,
    zeta_l, eta_l, zeta_r, eta_r, is_intertwiner, hom_module_morphisms,
    max_tensor_dim, element_legs)


from conftest import QQ, F5, random_intertwiner, random_stack, stack


def all_checks_pass(H):
    return (validate_structure(H).passed and check_quasi_bialgebra(H).passed
            and check_quasi_hopf(H).passed)


@pytest.mark.parametrize("field", [QQ, F5])
def test_axiom_suites(field):
    assert all_checks_pass(group_algebra(field, cyclic_group_table(2)))
    assert all_checks_pass(group_algebra(field, symmetric_group_table(3)))
    assert all_checks_pass(sweedler_h4(field))
    assert all_checks_pass(twisted_dual_group_algebra(
        field, cyclic_group_table(2), z2_nontrivial_cocycle(field)))


def test_fixture_quasi_hopf_algebras(twisted_z3_skew_f7, twisted_h4_q):
    # the Phi of the skew Z3 fixture is not symmetric in its first two legs;
    # the twist of H4 is noncommutative, with nontrivial Phi, alpha and beta
    for H in (twisted_z3_skew_f7, twisted_h4_q):
        assert all_checks_pass(H) and not H.is_hopf()
    phi = element_legs(twisted_z3_skew_f7.phi, twisted_z3_skew_f7.dim, 3)
    assert any(phi.get((y, x, z)) != c for (x, y, z), c in phi.items())
    H = twisted_h4_q
    e = [H.basis(i) for i in range(H.dim)]
    assert any(H.prod(a, b) != H.prod(b, a) for a in e for b in e)
    assert H.alpha != H.unit and H.beta != H.unit


def test_max_tensor_dim_reads_the_environment(monkeypatch, kc2_q):
    monkeypatch.delenv("QHA_MAX_DIM", raising=False)
    assert max_tensor_dim() == 4096
    monkeypatch.setenv("QHA_MAX_DIM", "3")
    assert max_tensor_dim() == 3
    reg = regular_module(kc2_q)
    with pytest.raises(StructureError, match="exceeds QHA_MAX_DIM"):
        tensor_module(reg, reg)
    monkeypatch.setenv("QHA_MAX_DIM", "lots")
    with pytest.raises(StructureError, match="'lots'"):
        max_tensor_dim()
    with pytest.raises(StructureError, match="'lots'"):
        tensor_module(reg, reg)


def test_sweedler_has_order_four_antipode(h4_q):
    s2 = h4_q.antipode * h4_q.antipode
    assert not s2.is_identity()
    assert (s2 * s2).is_identity()


def test_twisted_dual_is_not_hopf(twisted_q, kc2_q):
    assert not twisted_q.is_hopf()
    assert kc2_q.is_hopf()


def test_non_cocycle_fails_exactly_pentagon():
    o, m = QQ.one, QQ.neg(QQ.one)
    # w(a, a, e) = -1, everything else 1: not a 3-cocycle
    w = [[[o, o], [o, o]], [[o, o], [m, o]]]
    bad = twisted_dual_group_algebra(QQ, cyclic_group_table(2), w)
    rep = check_quasi_bialgebra(bad)
    assert rep.failed_ids() == ["pentagon"]
    assert check_quasi_hopf(bad).passed  # the antipode identities survive


def test_group_table_validation():
    with pytest.raises(GroupTableError):
        group_algebra(QQ, [[0, 1], [1, 1]])   # not a Latin square group
    with pytest.raises(GroupTableError):
        group_algebra(QQ, [[1, 0], [1, 0]])
    with pytest.raises(StructureError):
        z = QQ.zero
        w = [[[z, z], [z, z]], [[z, z], [z, z]]]
        twisted_dual_group_algebra(QQ, cyclic_group_table(2), w)


def test_module_invariants(kc2_q):
    for V in (trivial_module(kc2_q), regular_module(kc2_q)):
        assert check_module(V).passed


def test_tensor_with_unit_object(kc2_q):
    reg = regular_module(kc2_q)
    k = trivial_module(kc2_q)
    vk = tensor_module(reg, k)
    # index bijection is the identity here since dim k = 1
    assert all(vk.mats[i] == reg.mats[i] for i in range(kc2_q.dim))
    kk = tensor_module(k, k)
    assert all(kk.mats[i] == k.mats[i] for i in range(kc2_q.dim))


def test_tensor_of_regulars_is_module(kc2_q):
    reg = regular_module(kc2_q)
    assert check_module(tensor_module(reg, reg)).passed


def test_associator_trivial_phi_is_identity(kc2_q):
    reg = regular_module(kc2_q)
    assert associator(reg, reg, reg).is_identity()


def test_associator_twisted_diagonal_and_intertwiner(twisted_q):
    reg = regular_module(twisted_q)
    a = associator(reg, reg, reg)
    # diagonal +-1 matrix
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.get(i, j)
            if i == j:
                assert v in (QQ.one, QQ.neg(QQ.one))
            else:
                assert v == 0
    lhs = tensor_module(tensor_module(reg, reg), reg)
    rhs = tensor_module(reg, tensor_module(reg, reg))
    assert is_intertwiner(stack_of_maps(a, rhs.dim), lhs, rhs)
    assert (a * a.inverse()).is_identity()


def test_associator_pentagon_as_matrices(twisted_q):
    # (1 (x) a) o a o (a (x) 1) = a o a on four copies of the regular module
    H = twisted_q
    v = regular_module(H)
    vv = tensor_module(v, v)
    eye = Matrix.identity(H.field, v.dim)
    lhs = eye.kron(associator(v, v, v)) * associator(v, vv, v) * \
        associator(v, v, v).kron(eye)
    rhs = associator(v, v, tensor_module(v, v)) * associator(vv, v, v)
    assert lhs == rhs


def test_left_hom_unit_object_recovers_module(kc2_q):
    k = trivial_module(kc2_q)
    reg = regular_module(kc2_q)
    hl, _ = left_hom(k, reg)
    assert all(hl.mats[i] == reg.mats[i] for i in range(kc2_q.dim))
    hr, _ = right_hom(k, reg)
    assert all(hr.mats[i] == reg.mats[i] for i in range(kc2_q.dim))


def test_left_hom_is_module(h4_q):
    reg = regular_module(h4_q)
    assert check_module(left_hom(reg, reg)[0]).passed
    assert check_module(right_hom(reg, reg)[0]).passed


def test_left_right_hom_agree_on_cocommutative(kc2_q):
    # kC2 is cocommutative with S = S^-1, so the two hom actions coincide
    reg = regular_module(kc2_q)
    (hl, _), (hr, _) = left_hom(reg, reg), right_hom(reg, reg)
    assert all(hl.mats[i] == hr.mats[i] for i in range(kc2_q.dim))


def test_hopf_case_eval_is_plain_evaluation(kc2_q):
    reg = regular_module(kc2_q)
    ev = eval_left(reg, reg)
    f = QQ
    # phi = 1 (x) 1 (x) 1 and alpha = 1: ev(E_ab (x) v_c) = [b = c] m_a
    d = reg.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                col = ev.col((a * d + b) * d + c)
                want = tuple(f.one if (b == c and i == a) else f.zero for i in range(d))
                assert col == want


@pytest.mark.parametrize("algebra", ["kc2", "h4", "twisted"])
def test_evaluations_are_intertwiners(algebra, kc2_q, h4_q, twisted_q):
    # ev^l = eta^l(id) and ev^r = eta^r(id) are morphisms, and over a
    # quasi-Hopf algebra they are the Phi-decorated evaluations
    H = {"kc2": kc2_q, "h4": h4_q, "twisted": twisted_q}[algebra]
    for V in (trivial_module(H), regular_module(H)):
        for M in (trivial_module(H), regular_module(H)):
            hl, _ = left_hom(V, M)
            ev = eta_l(stack_of_maps(Matrix.identity(H.field, hl.dim), hl.dim), hl, V, M)
            assert is_intertwiner(ev, tensor_module(hl, V), M)
            assert ev == stack_of_maps(eval_left(V, M), M.dim)
            hr, _ = right_hom(V, M)
            evr = eta_r(stack_of_maps(Matrix.identity(H.field, hr.dim), hr.dim), V, hr, M)
            assert is_intertwiner(evr, tensor_module(V, hr), M)
            assert evr == stack_of_maps(eval_right(V, M), M.dim)


# The parents the one biclosed layer is tested over, with the triples
# (M, N, L) of the round trips and of the stacks ("u" the unit object, "r"
# the regular module) and the seed offset of the right-hand maps.
BICLOSED_PARENTS = {
    "kc2": ("kc2_q", ["rrr", "urr", "rur", "rru"], ["rrr", "urr", "rru"], 100),
    "h4": ("h4_q", ["rrr", "urr", "rur", "rru"], ["rrr", "urr", "rru"], 100),
    "twisted": ("twisted_q", ["rrr", "urr", "rur", "rru"], ["rrr", "urr", "rru"], 100),
    "env-F5": ("env_f5", ["rur", "urr", "rru", "uuu"], ["rur", "urr"], 50),
    # rru takes about 5 s over T2^e
    "T2e-F5": ("t2e_f5", ["rur", "urr", "uuu"], ["rur", "urr"], 50),
}


def _biclosed_inputs(request, name):
    """The parent, its regular module, its round-trip and stack triples and
    its right-hand seed offset."""
    fixture, roundtrips, stacks, offset = BICLOSED_PARENTS[name]
    H = request.getfixturevalue(fixture)
    reg = regular_module(H)
    mods = {"u": H.unit_object(), "r": reg}

    def triples(names):
        return [tuple(mods[c] for c in t) for t in names]
    return H, reg, triples(roundtrips), triples(stacks), offset


@pytest.mark.parametrize("parent", list(BICLOSED_PARENTS))
def test_adjunction_roundtrips(parent, request):
    H, _, triples, _, offset = _biclosed_inputs(request, parent)
    for seed, (M, N, L) in enumerate(triples, start=1):
        f = random_stack(tensor_module(M, N), L, seed)
        if f is not None:
            g = zeta_l(f, M, N, L)
            assert eta_l(g, M, N, L) == f
            assert zeta_l(eta_l(g, M, N, L), M, N, L) == g
        f = random_stack(tensor_module(N, M), L, seed + offset)
        if f is not None:
            g = zeta_r(f, N, M, L)
            assert eta_r(g, N, M, L) == f
            assert zeta_r(eta_r(g, N, M, L), N, M, L) == g


@pytest.mark.parametrize("parent", list(BICLOSED_PARENTS))
def test_adjunctions_act_on_stacks(parent, request):
    # a stack of maps (row b = vec(F_b)) goes through each map in one call,
    # and the intertwiner checks see every map of the stack
    H, reg, _, triples, _ = _biclosed_inputs(request, parent)
    for M, N, L in triples:
        fs = [random_stack(tensor_module(M, N), L, s) for s in (1, 2, 3)]
        gs = [zeta_l(f, M, N, L) for f in fs]
        assert zeta_l(stack(fs), M, N, L) == stack(gs)
        assert eta_l(stack(gs), M, N, L) == stack(fs)
        fs = [random_stack(tensor_module(N, M), L, s) for s in (4, 5, 6)]
        gs = [zeta_r(f, N, M, L) for f in fs]
        assert zeta_r(stack(fs), N, M, L) == stack(gs)
        assert eta_r(stack(gs), N, M, L) == stack(fs)
    tens = tensor_module(reg, reg)
    f = random_intertwiner(tens, reg, 1)
    bad = Matrix(H.field, reg.dim, tens.dim,
                 [H.field.from_int(i % 3) for i in range(reg.dim * tens.dim)])
    assert not is_intertwiner(stack_of_maps(bad, reg.dim), tens, reg)
    with pytest.raises(IntertwinerError):
        zeta_l(stack([f, f, bad]), reg, reg, reg)


def _moved(S, b, j):
    """The stack S with 1 added at column j of its row (map) b."""
    f = S.field
    rows = [dict(S.row_map(i)) for i in range(S.rows)]
    rows[b][j] = f.add(rows[b].get(j, f.zero), f.one)
    return Matrix.from_rows(f, [[r.get(c, f.zero) for c in range(S.cols)] for r in rows])


def _leaving_columns(S, b, src, dst):
    """The columns at which a move of map b of the stack S leaves Hom_H(src, dst)."""
    return [j for j in range(S.cols)
            if not is_intertwiner(_moved(S, b, j).row_blocks(1)[b], src, dst)]


@pytest.mark.parametrize("name", ["kc2_q", "h4_q", "twisted_q"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_one_moved_map_fails_the_checks_of_zeta_and_eta(name, kc2_q, h4_q, twisted_q, data):
    """One map of a stack moved off Hom_H at a random entry is refused with an
    IntertwinerError by zeta_l and eta_l, at their input checks, and at
    their output checks when the move is made just before them."""
    H = locals()[name]
    reg = regular_module(H)
    tens = tensor_module(reg, reg)
    fs = [random_intertwiner(tens, reg, s) for s in (1, 2, 3)]
    S = Matrix.from_rows(H.field, [f.entries for f in fs])
    G = zeta_l(S, reg, reg, reg)
    hom = left_hom(reg, reg)[0]
    b = data.draw(st.integers(0, 2))
    real = quasihopf.require_intertwiner
    for fn, maps, ins, outs, what in ((zeta_l, S, (tens, reg), (reg, hom), "zeta_l"),
                                      (eta_l, G, (reg, hom), (tens, reg), "eta_l")):
        j = data.draw(st.sampled_from(_leaving_columns(maps, b, *ins)))
        with pytest.raises(IntertwinerError, match="^%s input " % what):
            fn(_moved(maps, b, j), reg, reg, reg)
        j = data.draw(st.sampled_from(_leaving_columns(fn(maps, reg, reg, reg),
                                                       b, *outs)))

        def moved_output(T, src, dst, label):
            return real(_moved(T, b, j) if label.endswith("output") else T, src, dst, label)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(quasihopf, "require_intertwiner", moved_output)
            with pytest.raises(IntertwinerError, match="^%s output " % what):
                fn(maps, reg, reg, reg)


def test_zeta_rejects_non_intertwiner(kc2_q):
    reg = regular_module(kc2_q)
    bad = Matrix(QQ, reg.dim, reg.dim * reg.dim,
                 [QQ.from_int(i % 3) for i in range(reg.dim ** 3)])
    with pytest.raises(IntertwinerError):
        zeta_l(stack_of_maps(bad, reg.dim), reg, reg, reg)


def test_zeta_on_identity_is_coevaluation_style(kc2_q):
    reg = regular_module(kc2_q)
    m2 = tensor_module(reg, reg)
    eye = Matrix.identity(QQ, m2.dim)
    # curry the identity of M (x) N over the second factor
    g = zeta_l(stack_of_maps(eye, m2.dim), reg, reg, m2)
    assert is_intertwiner(g, reg, left_hom(reg, m2)[0])


def test_hom_module_morphisms(kc2_q, h4_q):
    k = trivial_module(kc2_q)
    assert hom_module_morphisms(k, k).dim == 1
    reg = regular_module(kc2_q)
    assert hom_module_morphisms(reg, reg).dim == 2
    # Hom_{H4}(k, regular): invariants-with-eps-twist; brute-force cross-check
    k4, reg4 = trivial_module(h4_q), regular_module(h4_q)
    sp = hom_module_morphisms(k4, reg4)
    found = 0
    import itertools
    for ent in itertools.product([QQ.zero, QQ.one], repeat=reg4.dim):
        m = Matrix(QQ, reg4.dim, 1, ent)
        if all(m * k4.mats[i] == reg4.mats[i] * m for i in range(h4_q.dim)):
            if any(e != 0 for e in ent):
                found += 1
    # dim of {0,1}-points of the solution space matches 2^dim - 1 nonzero points
    assert found == 2 ** sp.dim - 1


def test_hopf_specialization_matches_classical(kc2_q):
    # with Phi trivial and alpha = beta = 1 the quasi formulas reduce to the
    # classical h^1 phi(S(h^2) -) action; spot-check on the regular module
    H = kc2_q
    reg = regular_module(H)
    hl, _ = left_hom(reg, reg)
    f = QQ
    for i in range(H.dim):
        m = Matrix.zeros(f, hl.dim, hl.dim)
        for c, p, q in H.delta_legs[i]:
            m = m + reg.mats[p].kron(reg.act(H.antipode.apply(H.basis(q))).transpose()).scale(c)
        assert hl.mats[i] == m


def test_zeta_l_hopf_case_is_plain_currying(kc2_q):
    # with Phi trivial and beta = 1: zeta^l(f)(m) = f(m (x) -); entry (r, c)
    # of a map with C columns sits at r * C + c of its one-row stack
    H = kc2_q
    reg = regular_module(H)
    mn = tensor_module(reg, reg)
    f = random_stack(mn, reg, 21)
    g = zeta_l(f, reg, reg, reg)
    d = reg.dim
    for i in range(d):
        for a in range(d):
            for b in range(d):
                assert g.get(0, (a * d + b) * d + i) == f.get(0, a * d * d + i * d + b)


def test_eta_r_hopf_case_is_plain_evaluation(kc2_q):
    # eta^r(g)(n (x) m) = g(m)(n) when all decorations are trivial
    H = kc2_q
    reg = regular_module(H)
    nm = tensor_module(reg, reg)
    f = random_stack(nm, reg, 22)
    g = zeta_r(f, reg, reg, reg)
    back = eta_r(g, reg, reg, reg)
    d = reg.dim
    for a in range(d):
        for j in range(d):
            for i in range(d):
                assert back.get(0, a * d * d + j * d + i) == f.get(0, a * d * d + j * d + i)


def test_z3_twisted_dual_full_suite():
    # a dimension-3 genuinely quasi example away from the +-1 special case
    from qha.fields import prime_field
    from qha.quasihopf import (z3_nontrivial_cocycle, primitive_root_of_unity,
                               validate_structure)
    import pytest as _pytest
    for p in (7, 13):
        field = prime_field(p)
        H = twisted_dual_group_algebra(field, cyclic_group_table(3),
                                       z3_nontrivial_cocycle(field), "k^Z3_w")
        assert validate_structure(H).passed
        assert check_quasi_bialgebra(H).passed
        assert check_quasi_hopf(H).passed
        assert not H.is_hopf()
    with _pytest.raises(StructureError):
        z3_nontrivial_cocycle(prime_field(5))   # no cube roots in GF(5)
    assert primitive_root_of_unity(prime_field(7), 3) in (2, 4)


def z3_generator(field):
    """The textbook generator w(g^a, g^b, g^c) = zeta^(a * floor((b + c) / 3))."""
    zeta = primitive_root_of_unity(field, 3)
    return [[[field.from_int(pow(zeta, a * ((b + c) // 3), field.p))
              for c in range(3)] for b in range(3)] for a in range(3)]


def with_decorations(H, alpha, beta):
    return QuasiHopfAlgebra(H.field, H.dim, H.mult, H.unit, H.comult, H.counit,
                            H.antipode, H.antipode_inv, H.phi, H.phi_inv,
                            alpha, beta, name=H.name)


def test_z3_generator_representative_passes_every_check():
    # Drinfeld's axiom S(P) alpha Q beta S(R) = 1 holds for every normalised
    # 3-cocycle on functions on a group, so the textbook generator (which
    # has w(x, x^-1, x^2) != 1) is a quasi-Hopf algebra as well
    field = prime_field(7)
    H = twisted_dual_group_algebra(field, cyclic_group_table(3), z3_generator(field))
    assert all_checks_pass(H)
    k, reg = trivial_module(H), regular_module(H)
    for seed, (M, N, L) in enumerate([(reg, reg, reg), (k, reg, reg), (reg, reg, k)]):
        f = random_stack(tensor_module(M, N), L, seed)
        assert eta_l(zeta_l(f, M, N, L), M, N, L) == f
        f = random_stack(tensor_module(N, M), L, seed + 100)
        assert eta_r(zeta_r(f, N, M, L), N, M, L) == f
    # the check still has teeth: doubling alpha or beta at one element fails it
    two = field.from_int(2)
    for i in range(H.dim):
        doubled = tuple(field.mul(two, c) if j == i else c for j, c in enumerate(H.alpha))
        assert "coev_ev" in check_quasi_hopf(with_decorations(H, doubled, H.beta)).failed_ids()
        doubled = tuple(field.mul(two, c) if j == i else c for j, c in enumerate(H.beta))
        assert "coev_ev" in check_quasi_hopf(with_decorations(H, H.alpha, doubled)).failed_ids()


@pytest.mark.parametrize("name", ["H4", "k^Z2_w", "k^Z3_w", "k^Z3_w generator", "kS3"])
def test_cop_passes_every_suite(name):
    F7 = prime_field(7)
    H = {"H4": lambda: sweedler_h4(QQ),
         "k^Z2_w": lambda: twisted_dual_group_algebra(QQ, cyclic_group_table(2),
                                                      z2_nontrivial_cocycle(QQ)),
         "k^Z3_w": lambda: twisted_dual_group_algebra(F7, cyclic_group_table(3),
                                                      z3_nontrivial_cocycle(F7)),
         "k^Z3_w generator": lambda: twisted_dual_group_algebra(
             F7, cyclic_group_table(3), z3_generator(F7)),
         "kS3": lambda: group_algebra(QQ, symmetric_group_table(3))}[name]()
    assert all_checks_pass(H.cop)
    assert H.cop is H.cop


def _bumped(H, part, pos):
    """H with one structure constant raised by one."""
    f, n = H.field, H.dim
    parts = {"mult": list(H.mult.entries), "unit": list(H.unit), "counit": list(H.counit),
             "comult": list(H.comult.entries), "antipode": list(H.antipode.entries)}
    parts[part][pos] = f.add(parts[part][pos], f.one)
    return QuasiHopfAlgebra(f, n, Matrix(f, n * n, n, parts["mult"]), parts["unit"],
                            Matrix(f, n, n * n, parts["comult"]), parts["counit"],
                            Matrix(f, n, n, parts["antipode"]), H.antipode_inv,
                            H.phi, H.phi_inv, H.alpha, H.beta, name=H.name)


# failed check -> witness (indices i, j, k), recorded with the dense
# vector-at-a-time implementation of validate_structure
BUMPED_STRUCTURE_FAILURES = {
    ("kS3", "mult", 0): {"mult_associative": (0, 0, 1), "mult_unital": (0,),
                         "comult_algebra_map": (0, 0), "counit_algebra_map": (0, 0),
                         "phi_invertible": None},
    ("kS3", "mult", 7): {"mult_associative": (0, 0, 1), "mult_unital": (1,),
                         "comult_algebra_map": (0, 1), "counit_algebra_map": (0, 1),
                         "antipode_antihom": (0, 1)},
    ("kS3", "mult", 36): {"mult_associative": (1, 0, 0), "mult_unital": (1,),
                          "comult_algebra_map": (1, 0), "counit_algebra_map": (1, 0),
                          "antipode_antihom": (0, 1)},
    ("kS3", "mult", 43): {"mult_associative": (1, 1, 2), "comult_algebra_map": (1, 1),
                          "counit_algebra_map": (1, 1)},
    ("kS3", "mult", 100): {"mult_associative": (1, 2, 4), "comult_algebra_map": (2, 4),
                           "counit_algebra_map": (2, 4), "antipode_antihom": (2, 4)},
    ("kS3", "mult", 151): {"mult_associative": (1, 2, 1), "comult_algebra_map": (4, 1),
                           "counit_algebra_map": (4, 1), "antipode_antihom": (1, 3)},
    ("kS3", "mult", 215): {"mult_associative": (1, 3, 5), "comult_algebra_map": (5, 5),
                           "counit_algebra_map": (5, 5)},
    ("kS3", "unit", 2): {"mult_unital": (0,), "comult_algebra_map": None,
                         "counit_algebra_map": None, "phi_invertible": None},
    ("kS3", "counit", 4): {"counit_algebra_map": (1, 2)},
    ("kS3", "comult", 50): {"comult_algebra_map": (1, 1)},
    ("kS3", "antipode", 13): {"antipode_inverse_pair": None, "antipode_antihom": (1, 1)},
    ("H4", "mult", 0): {"mult_associative": (0, 0, 1), "mult_unital": (0,),
                        "comult_algebra_map": (0, 0), "counit_algebra_map": (0, 0),
                        "phi_invertible": None},
    ("H4", "mult", 5): {"mult_associative": (0, 0, 1), "mult_unital": (1,),
                        "comult_algebra_map": (0, 1), "counit_algebra_map": (0, 1),
                        "antipode_antihom": (0, 1)},
    ("H4", "mult", 17): {"mult_associative": (1, 0, 0), "mult_unital": (1,),
                         "comult_algebra_map": (1, 0), "counit_algebra_map": (1, 0),
                         "antipode_antihom": (0, 1)},
    ("H4", "mult", 22): {"mult_associative": (1, 1, 1), "comult_algebra_map": (1, 1),
                         "antipode_antihom": (1, 1)},
    ("H4", "mult", 41): {"mult_associative": (1, 2, 2), "comult_algebra_map": (2, 2),
                         "counit_algebra_map": (2, 2), "antipode_antihom": (2, 2)},
    ("H4", "mult", 58): {"mult_associative": (1, 2, 2), "comult_algebra_map": (3, 2),
                         "antipode_antihom": (3, 2)},
    ("H4", "mult", 63): {"mult_associative": (1, 2, 3), "comult_algebra_map": (3, 3),
                         "antipode_antihom": (2, 2)},
    ("H4", "unit", 0): {"mult_unital": (0,), "comult_algebra_map": None,
                        "counit_algebra_map": None, "phi_invertible": None},
    ("H4", "counit", 2): {"counit_algebra_map": (1, 2)},
    ("H4", "comult", 37): {"comult_algebra_map": (1, 2)},
    ("H4", "antipode", 11): {"antipode_inverse_pair": None, "antipode_antihom": (1, 2)},
}


@pytest.mark.parametrize("case", sorted(BUMPED_STRUCTURE_FAILURES))
def test_corrupted_structure_constants_keep_their_witnesses(case, ks3_q, h4_q):
    name, part, pos = case
    H = _bumped({"kS3": ks3_q, "H4": h4_q}[name], part, pos)
    rep = validate_structure(H)
    got = {r.check_id: r.counterexample for r in rep.results if not r.passed}
    want = {cid: None if idx is None else tuple(zip("ijk", idx))
            for cid, idx in BUMPED_STRUCTURE_FAILURES[case].items()}
    assert got == want


@pytest.mark.parametrize("field, order, expected", [
    (QQ, 0, "a root of unity has order at least 1, got 0"),
    (QQ, -5, "a root of unity has order at least 1, got -5"),
    (prime_field(7), -3, "a root of unity has order at least 1, got -3"),
    (prime_field(7), 0, "a root of unity has order at least 1, got 0"),
    (prime_field(7), 1, 1),
    (F5, 3, "GF(5) has no primitive root of unity of order 3"),
], ids=["Q-0", "Q-minus5", "GF7-minus3", "GF7-0", "GF7-1", "GF5-3"])
def test_primitive_root_of_unity_refusals_and_order_one(field, order, expected):
    from qha.quasihopf import primitive_root_of_unity
    if isinstance(expected, str):
        with pytest.raises(StructureError) as err:
            primitive_root_of_unity(field, order)
        assert str(err.value) == expected
    else:
        assert primitive_root_of_unity(field, order) == expected
