from qha.linalg import Matrix
from qha.quasihopf import trivial_module, regular_module, tensor_module
from qha.coefficients import (Contramodule, HOPF_MU, QUASI_I, evaluation_at_unit,
                              check_stability_hopf, check_stability_quasi)
from qha.center import (CenterElement, check_hexagon, check_unitality,
                        check_stability_central, check_weakstrong,
                        contratrace_iota, iota_apply)

from conftest import QQ, random_module, random_intertwiner


def center_of(H, flavor):
    k = trivial_module(H)
    return CenterElement(Contramodule(k, evaluation_at_unit(k), flavor))


def test_hexagon_hopf(kc2_q):
    E = center_of(kc2_q, HOPF_MU)
    reg = regular_module(kc2_q)
    assert check_hexagon(E, reg, reg).passed


def test_hexagon_degenerates_to_unitality_on_unit(kc2_q):
    E = center_of(kc2_q, HOPF_MU)
    reg, k = regular_module(kc2_q), trivial_module(kc2_q)
    assert check_hexagon(E, k, reg).passed
    assert check_hexagon(E, reg, k).passed
    assert check_unitality(E).passed


def _doubled_unit_tau(E):
    unit = E.parent.unit_object()
    E.set_tau(unit, E.tau(unit).scale(E.parent.field.from_int(2)))
    return E


def test_doubled_unit_tau_fails_unitality(kc2_q, twisted_q):
    from qha.coefficients import convert_I_to_II
    centers = [center_of(kc2_q, HOPF_MU), center_of(twisted_q, QUASI_I),
               CenterElement(convert_I_to_II(center_of(twisted_q, QUASI_I).coefficient)),
               algebroid_center()[1]]
    for E in centers:
        assert check_unitality(E).passed
        assert not check_unitality(_doubled_unit_tau(E)).passed


def test_scaled_tau_fails_hexagon(kc2_q):
    E = center_of(kc2_q, HOPF_MU)
    reg = regular_module(kc2_q)
    vw = tensor_module(reg, reg)
    E.set_tau(vw, E.tau(vw).scale(QQ.from_int(2)))
    assert not check_hexagon(E, reg, reg).passed


def test_stability_central_matches_flavor_stability(kc2_q, twisted_q):
    for H, flavor, flavor_check in (
            (kc2_q, HOPF_MU, check_stability_hopf),
            (twisted_q, QUASI_I, check_stability_quasi)):
        E = center_of(H, flavor)
        central = check_stability_central(E).passed
        flavored = flavor_check(E.coefficient).passed
        assert central == flavored == True  # noqa: E712

        scaled = CenterElement(E.coefficient.scaled(QQ.from_int(2)))
        assert not check_stability_central(scaled).passed
        assert not flavor_check(scaled.coefficient).passed


def test_weakstrong_invertibility(kc2_q, twisted_q):
    for H, flavor in ((kc2_q, HOPF_MU), (twisted_q, QUASI_I)):
        E = center_of(H, flavor)
        for dim, seed in ((1, 1), (2, 2), (3, 3)):
            V = random_module(H, dim, seed)
            assert check_weakstrong(E, V).passed


def test_iota_symmetry(kc2_q, twisted_q):
    for H, flavor in ((kc2_q, HOPF_MU), (twisted_q, QUASI_I)):
        E = center_of(H, flavor)
        reg, k = regular_module(H), trivial_module(H)
        for V, W in [(reg, reg), (reg, k), (k, reg)]:
            fwd = contratrace_iota(E, V, W)
            bwd = contratrace_iota(E, W, V)
            assert (bwd * fwd).is_identity()
            assert (fwd * bwd).is_identity()


def test_iota_with_unit_slot_reduces_to_tau_transport(kc2_q):
    E = center_of(kc2_q, HOPF_MU)
    reg, k = regular_module(kc2_q), trivial_module(kc2_q)
    # T = unit: Hom(k (x) V, M) and Hom(V (x) k, M) are both Hom(V, M) on
    # carriers, and iota acts there exactly as tau_V
    i = None
    f = random_intertwiner(tensor_module(k, reg), E.carrier, 5)
    if f is not None:
        out = iota_apply(E, k, reg, f)
        assert out == Matrix(QQ, out.rows, out.cols,
                             (E.tau(reg) * Matrix(QQ, E.carrier.dim * reg.dim, 1,
                                                  f.entries)).entries)
    del i


def test_explicit_iota_kc2(kc2_q):
    # Hopf kC2, M = k, T = V = regular: a concrete 2x2 matrix, reproducible
    E = center_of(kc2_q, HOPF_MU)
    reg = regular_module(kc2_q)
    i = contratrace_iota(E, reg, reg)
    assert i.rows == 2 and i.cols == 2
    assert (i * i).is_identity()


# -- algebroid flavor ---------------------------------------------------------

from qha.linalg import Matrix as _M
from qha.algebroid import (enveloping_algebroid, base_ring_dual_numbers,
                           base_module)
from qha.coefficients import ALGEBROID_MU
from conftest import F5


def algebroid_center():
    H = enveloping_algebroid(base_ring_dual_numbers(F5))
    M = base_module(H)
    mu = _M(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])
    return H, CenterElement(Contramodule(M, mu, ALGEBROID_MU))


def test_algebroid_hexagon():
    H, E = algebroid_center()
    R = base_module(H)
    reg = regular_module(H)
    for V, W in [(R, R), (reg, R), (R, reg), (reg, reg)]:
        assert check_hexagon(E, V, W).passed


def test_hexagon_builds_each_hom_carrier_once(monkeypatch, twisted_q):
    # with its taus cached, an algebroid hexagon solves for ten carriers:
    # the two of Hom(V (x) W, M), the four read off the hom modules out of
    # V and W, and the four nested ones inside those (18 when the carriers
    # out of V and W were built twice); a quasi-Hopf hexagon reads its full
    # carriers through the same four hom modules
    import qha.algebroid
    import qha.coefficients
    calls = {"solve": 0, "hom": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(qha.algebroid, "intertwiner_space",
                        counted("solve", qha.algebroid.intertwiner_space))
    for name in ("left_hom", "right_hom"):
        monkeypatch.setattr(qha.coefficients, name,
                            counted("hom", getattr(qha.coefficients, name)))
    H, E = algebroid_center()
    reg = regular_module(H)
    for X in (reg, H.tensor(reg, reg)[0]):
        E.tau(X)
    calls.update(solve=0, hom=0)
    assert check_hexagon(E, reg, reg).passed
    assert calls == {"solve": 10, "hom": 4}
    E = center_of(twisted_q, QUASI_I)
    reg = regular_module(twisted_q)
    for X in (reg, tensor_module(reg, reg)):
        E.tau(X)
    calls["hom"] = 0
    assert check_hexagon(E, reg, reg).passed
    assert calls["hom"] == 4


def test_algebroid_unitality_and_stability():
    H, E = algebroid_center()
    assert check_unitality(E).passed
    assert check_stability_central(E).passed
    scaled = CenterElement(E.coefficient.scaled(F5.from_int(3)))
    assert not check_stability_central(scaled).passed


def test_algebroid_iota_symmetry():
    H, E = algebroid_center()
    R = base_module(H)
    reg = regular_module(H)
    for V, W in [(R, reg), (reg, R), (R, R)]:
        fwd = contratrace_iota(E, V, W)
        bwd = contratrace_iota(E, W, V)
        assert (bwd * fwd).is_identity() and (fwd * bwd).is_identity()


def test_algebroid_scaled_tau_fails_hexagon():
    H, E = algebroid_center()
    R = base_module(H)
    from qha.algebroid import tensor_over_base
    vw, _ = tensor_over_base(R, R)
    E.set_tau(vw, E.tau(vw).scale(F5.from_int(2)))
    assert not check_hexagon(E, R, R).passed


def test_iota_symmetry_random_modules(kc2_q):
    # the double-swap composite is the identity for all module pairs of
    # dimension <= 3 for a stable coefficient
    E = center_of(kc2_q, HOPF_MU)
    mods = {d: random_module(kc2_q, d, 400 + d) for d in (1, 2, 3)}
    for d1 in (1, 2, 3):
        for d2 in (1, 2, 3):
            fwd = contratrace_iota(E, mods[d1], mods[d2])
            bwd = contratrace_iota(E, mods[d2], mods[d1])
            assert (bwd * fwd).is_identity() and (fwd * bwd).is_identity()


def test_type_II_center_element(twisted_q):
    # a converted type II coefficient drives the same center machinery
    from qha.coefficients import convert_I_to_II
    k = trivial_module(twisted_q)
    CI = Contramodule(k, evaluation_at_unit(k), QUASI_I)
    E = CenterElement(convert_I_to_II(CI))
    reg = regular_module(twisted_q)
    assert check_hexagon(E, reg, reg).passed
    assert check_unitality(E).passed
    assert check_weakstrong(E, reg).passed
    i1 = contratrace_iota(E, reg, k)
    i2 = contratrace_iota(E, k, reg)
    assert (i2 * i1).is_identity()
