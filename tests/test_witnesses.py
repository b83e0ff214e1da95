"""Witness tables: every axiom suite on structures with one constant bumped.

Each case raises one structure constant (or one contraaction or action
entry) by one and records, per suite, every failed check with its
counterexample: the lexicographically first failing index tuple, in the
order the check names its indices.  The tables were recorded with the
hand-written per-check loops, so they pin check ids, their order and every
witness across rewrites of the checks.
"""

import pytest

from qha.linalg import Matrix
from qha.quasihopf import (QuasiHopfAlgebra, sweedler_h4, twisted_dual_group_algebra,
                           cyclic_group_table, z2_nontrivial_cocycle, validate_structure,
                           check_quasi_bialgebra, check_quasi_hopf, check_module,
                           regular_module, trivial_module, HModule)
from qha.algebroid import (BaseRing, HopfAlgebroid, enveloping_algebroid,
                           base_ring_dual_numbers, base_module,
                           check_algebroid_structure,
                           check_left_bialgebroid, check_right_bialgebroid,
                           check_hopf_algebroid)
from qha.coefficients import (Contramodule, HOPF_MU, QUASI_I, ALGEBROID_MU,
                              evaluation_at_unit, convert_I_to_II, check_contramodule_hopf,
                              check_ayd_hopf, check_stability_hopf, check_ayd_quasi_I,
                              check_ayd_quasi_II, check_stability_quasi, check_stability,
                              check_contramodule_algebroid, check_ayd_algebroid,
                              check_stability_algebroid)
from qha.center import CenterElement, check_hexagon

from conftest import QQ, F5, base_ring_t2


def _bump(field, values, pos):
    out = list(values)
    out[pos] = field.add(out[pos], field.one)
    return out


def _bump_matrix(m: Matrix, pos: int) -> Matrix:
    return Matrix(m.field, m.rows, m.cols, _bump(m.field, m.entries, pos))


def _failures(rep):
    return {r.check_id: r.counterexample for r in rep.results if not r.passed}


def _observe(suites, *args):
    """{suite name: {failed check id: counterexample}} over the suites with a
    failed check; a suite that raises is recorded by its exception type."""
    out = {}
    for suite in suites:
        try:
            failed = _failures(suite(*args))
        except (ValueError, ZeroDivisionError) as e:
            failed = type(e).__name__
        if failed:
            out[suite.__name__] = failed
    return out


# -- Hopf algebroids ------------------------------------------------------------

ALGEBROIDS = {
    "env-Q": lambda: enveloping_algebroid(base_ring_dual_numbers(QQ)),
    "T2e-F5": lambda: enveloping_algebroid(base_ring_t2(F5)),
}

ALGEBROID_SUITES = (check_algebroid_structure, check_left_bialgebroid,
                    check_right_bialgebroid, check_hopf_algebroid)

_ALGEBROID_MATRICES = ("mult", "s_l", "t_l", "s_r", "t_r", "delta_l_lift", "delta_r_lift",
                       "eps_l", "eps_r", "antipode")


def bumped_algebroid(H: HopfAlgebroid, part: str, pos: int) -> HopfAlgebroid:
    """H with one structure constant raised by one; "base_mult" and
    "base_unit" bump the base ring."""
    f = H.field
    base = H.base
    if part in ("base_mult", "base_unit"):
        mult, unit = base.mult, base.unit
        base = BaseRing(f, base.dim, _bump_matrix(mult, pos) if part == "base_mult" else mult,
                        _bump(f, unit, pos) if part == "base_unit" else unit,
                        name=base.name)
    fields = dict(unit=list(H.unit), **{m: getattr(H, m) for m in _ALGEBROID_MATRICES})
    if part == "unit":
        fields[part] = _bump(f, fields[part], pos)
    elif part in _ALGEBROID_MATRICES:
        fields[part] = _bump_matrix(fields[part], pos)
    return HopfAlgebroid(base, H.dim, antipode_inv=H.antipode_inv, name=H.name, **fields)


def observe_algebroid(name, part, pos):
    return _observe(ALGEBROID_SUITES, bumped_algebroid(ALGEBROIDS[name](), part, pos))


# case (structure, bumped part, flat position) -> failures per suite
ALGEBROID_WITNESSES = {
    ("T2e-F5", "antipode", 0): {
        "check_algebroid_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 0),),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("T2e-F5", "antipode", 6): {
        "check_algebroid_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 6)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 6), ("rp", 0)),
            "antipode_convolution_left": (("b", 6),),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("T2e-F5", "base_mult", 0): {
        "check_algebroid_structure": {
            "base_associative": (("i", 0), ("j", 0), ("k", 1)),
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0))},
        "check_right_bialgebroid": {"eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0))},
    },
    ("T2e-F5", "base_mult", 26): {
        "check_algebroid_structure": {
            "base_associative": (("i", 1), ("j", 2), ("k", 2)),
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"eps_l_bimodule": (("r", 2), ("rp", 2), ("b", 8))},
        "check_right_bialgebroid": {"eps_r_bimodule": (("r", 2), ("rp", 1), ("b", 8))},
    },
    ("T2e-F5", "base_unit", 0): {
        "check_algebroid_structure": {
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
    },
    ("T2e-F5", "delta_l_lift", 0): {
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 1)),
            "delta_l_coassoc": (("b", 0),),
            "delta_l_counital": (("b", 0),),
            "takeuchi_left": (("b", 0), ("r", 1)),
            "delta_l_multiplicative": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 0),),
            "mixed_coassoc_2": (("b", 0),),
            "antipode_convolution_left": (("b", 0),),
            "derived_sinv_convolution": (("b", 0),),
        },
    },
    ("T2e-F5", "delta_l_lift", 243): {
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 1)),
            "delta_l_coassoc": (("b", 0),),
            "delta_l_counital": (("b", 0),),
            "takeuchi_left": (("b", 0), ("r", 1)),
            "delta_l_multiplicative": (("b", 0), ("bp", 6)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 0),),
            "mixed_coassoc_2": (("b", 0),),
            "antipode_convolution_left": (("b", 0),),
            "derived_sinv_convolution": (("b", 0),),
        },
    },
    ("T2e-F5", "delta_r_lift", 0): {
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_r_coassoc": (("b", 0),),
            "delta_r_counital": (("b", 0),),
            "takeuchi_right": (("b", 0), ("r", 1)),
            "delta_r_multiplicative": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 0),),
            "mixed_coassoc_2": (("b", 0),),
            "antipode_convolution_right": (("b", 0),),
            "derived_tl_convolution": (("b", 0),),
        },
    },
    ("T2e-F5", "delta_r_lift", 698): {
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 2), ("side", 0)),
            "delta_r_coassoc": (("b", 3),),
            "delta_r_counital": (("b", 5),),
            "takeuchi_right": (("b", 5), ("r", 0)),
            "delta_r_multiplicative": (("b", 5), ("bp", 2)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 5),),
            "mixed_coassoc_2": (("b", 3),),
            "antipode_convolution_right": (("b", 5),),
            "derived_tl_convolution": (("b", 5),),
        },
    },
    ("T2e-F5", "eps_l", 0): {
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_3": None,
            "antipode_convolution_right": (("b", 0),),
            "derived_tl_convolution": (("b", 0),),
        },
    },
    ("T2e-F5", "eps_l", 26): {
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 2),),
            "eps_l_bimodule": (("r", 1), ("rp", 2), ("b", 8)),
            "eps_l_character": (("b", 5), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_3": None,
            "antipode_convolution_right": (("b", 8),),
            "derived_tl_convolution": (("b", 8),),
        },
    },
    ("T2e-F5", "eps_r", 0): {
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_4": None,
            "antipode_convolution_left": (("b", 0),),
            "derived_sinv_convolution": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("T2e-F5", "eps_r", 26): {
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 2),),
            "eps_r_bimodule": (("r", 2), ("rp", 1), ("b", 8)),
            "eps_r_character": (("b", 7), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_4": None,
            "antipode_convolution_left": (("b", 8),),
            "derived_sinv_convolution": (("b", 8),),
            "kow_identity": None,
        },
    },
    ("T2e-F5", "mult", 243): {
        "check_algebroid_structure": {
            "mult_associative": (("i", 1), ("j", 3), ("k", 0)),
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_r_homomorphism": None,
            "left_images_commute": None,
            "right_images_commute": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_l_counital": (("b", 3),),
            "eps_l_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "takeuchi_left": (("b", 4), ("r", 0)),
            "delta_l_multiplicative": (("b", 3), ("bp", 0)),
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 0), ("b", 3), ("side", 0)),
            "delta_r_counital": (("b", 3),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 3)),
            "delta_r_multiplicative": (("b", 0), ("bp", 3)),
            "eps_r_character": (("b", 0), ("bp", 3)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 1), ("rp", 0)),
            "antipode_convolution_right": (("b", 3),),
            "derived_sinv_convolution": (("b", 1),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
        },
    },
    ("T2e-F5", "mult", 486): {
        "check_algebroid_structure": {
            "mult_associative": (("i", 0), ("j", 6), ("k", 0)),
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
            "left_images_commute": None,
            "right_images_commute": None,
            "antipode_antihom": (("i", 0), ("j", 2)),
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 0), ("b", 0), ("side", 1)),
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 2), ("rp", 0), ("b", 0)),
            "delta_l_multiplicative": (("b", 6), ("bp", 0)),
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 0), ("b", 6), ("side", 0)),
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "delta_r_multiplicative": (("b", 0), ("bp", 6)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 0),),
            "antipode_convolution_right": (("b", 6),),
            "derived_sinv_convolution": (("b", 2),),
            "derived_tl_convolution": (("b", 0),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 2)),
        },
    },
    ("T2e-F5", "s_l", 0): {
        "check_algebroid_structure": {
            "s_l_homomorphism": None,
            "left_images_commute": None,
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 0), ("b", 0), ("side", 0)),
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "takeuchi_left": (("b", 1), ("r", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("T2e-F5", "s_l", 2): {
        "check_algebroid_structure": {
            "s_l_homomorphism": None,
            "left_images_commute": None,
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 2), ("b", 0), ("side", 0)),
            "delta_l_counital": (("b", 6),),
            "eps_l_bimodule": (("r", 2), ("rp", 0), ("b", 0)),
            "takeuchi_left": (("b", 1), ("r", 2)),
            "eps_l_character": (("b", 0), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 2), ("h", 0), ("rp", 0)),
            "antipode_convolution_right": (("b", 8),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 2), ("h", 0), ("rp", 0)),
        },
    },
    ("T2e-F5", "s_r", 0): {
        "check_algebroid_structure": {
            "s_r_homomorphism_op": None,
            "right_images_commute": None,
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 0), ("b", 0), ("side", 1)),
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "takeuchi_right": (("b", 3), ("r", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_left": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("T2e-F5", "s_r", 2): {
        "check_algebroid_structure": {
            "s_r_homomorphism_op": None,
            "right_images_commute": None,
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 2), ("b", 0), ("side", 1)),
            "delta_r_counital": (("b", 2),),
            "eps_r_bimodule": (("r", 0), ("rp", 2), ("b", 0)),
            "takeuchi_right": (("b", 3), ("r", 2)),
            "eps_r_character": (("b", 0), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 2)),
            "antipode_convolution_left": (("b", 8),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 2)),
        },
    },
    ("T2e-F5", "t_l", 25): {
        "check_algebroid_structure": {
            "t_l_antihomomorphism": None,
            "left_images_commute": None,
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 1), ("side", 1)),
            "delta_l_counital": (("b", 7),),
            "eps_l_bimodule": (("r", 1), ("rp", 1), ("b", 8)),
            "takeuchi_left": (("b", 3), ("r", 1)),
            "eps_l_character": (("b", 5), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 1), ("h", 7), ("rp", 2)),
            "derived_tl_convolution": (("b", 1),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 1), ("h", 7), ("rp", 0)),
        },
    },
    ("T2e-F5", "t_l", 26): {
        "check_algebroid_structure": {
            "t_l_antihomomorphism": None,
            "left_images_commute": None,
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 2), ("b", 1), ("side", 1)),
            "delta_l_counital": (("b", 8),),
            "eps_l_bimodule": (("r", 1), ("rp", 2), ("b", 8)),
            "takeuchi_left": (("b", 3), ("r", 2)),
            "eps_l_character": (("b", 5), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 2), ("h", 7), ("rp", 2)),
            "derived_tl_convolution": (("b", 8),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 2), ("h", 7), ("rp", 0)),
        },
    },
    ("T2e-F5", "t_r", 25): {
        "check_algebroid_structure": {
            "t_r_homomorphism": None,
            "right_images_commute": None,
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 3), ("side", 0)),
            "delta_r_counital": (("b", 5),),
            "eps_r_bimodule": (("r", 1), ("rp", 2), ("b", 8)),
            "takeuchi_right": (("b", 1), ("r", 1)),
            "eps_r_character": (("b", 7), ("bp", 3)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 2), ("h", 5), ("rp", 1)),
            "derived_sinv_convolution": (("b", 3),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 5), ("rp", 1)),
        },
    },
    ("T2e-F5", "t_r", 26): {
        "check_algebroid_structure": {
            "t_r_homomorphism": None,
            "right_images_commute": None,
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 2), ("b", 3), ("side", 0)),
            "delta_r_counital": (("b", 8),),
            "eps_r_bimodule": (("r", 2), ("rp", 2), ("b", 8)),
            "takeuchi_right": (("b", 1), ("r", 2)),
            "eps_r_character": (("b", 7), ("bp", 8)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 2), ("h", 5), ("rp", 2)),
            "derived_sinv_convolution": (("b", 8),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 5), ("rp", 2)),
        },
    },
    ("T2e-F5", "unit", 0): {
        "check_algebroid_structure": {
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"delta_l_multiplicative": None},
        "check_right_bialgebroid": {"delta_r_multiplicative": None},
    },
    ("T2e-F5", "unit", 6): {
        "check_algebroid_structure": {
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
            "antipode_antihom": None,
        },
        "check_left_bialgebroid": {"delta_l_multiplicative": None},
        "check_right_bialgebroid": {"delta_r_multiplicative": None},
    },
    ("env-Q", "antipode", 0): {
        "check_algebroid_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 0),),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("env-Q", "antipode", 4): {
        "check_algebroid_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 1), ("h", 0), ("rp", 0)),
            "antipode_convolution_left": (("b", 0),),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("env-Q", "antipode", 6): {
        "check_algebroid_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 1), ("j", 2)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 2),),
            "kow_identity": None,
        },
    },
    ("env-Q", "base_mult", 0): {
        "check_algebroid_structure": {
            "base_associative": (("i", 0), ("j", 0), ("k", 1)),
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0))},
        "check_right_bialgebroid": {"eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0))},
    },
    ("env-Q", "base_mult", 3): {
        "check_algebroid_structure": {
            "base_associative": (("i", 0), ("j", 0), ("k", 1)),
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 1))},
        "check_right_bialgebroid": {"eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 1))},
    },
    ("env-Q", "base_mult", 5): {
        "check_algebroid_structure": {
            "base_associative": (("i", 1), ("j", 0), ("k", 0)),
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 1))},
        "check_right_bialgebroid": {"eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 1))},
    },
    ("env-Q", "base_unit", 0): {
        "check_algebroid_structure": {
            "base_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
    },
    ("env-Q", "delta_l_lift", 0): {
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_l_coassoc": (("b", 1),),
            "delta_l_counital": (("b", 0),),
            "delta_l_multiplicative": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 1),),
            "mixed_coassoc_2": (("b", 2),),
            "antipode_convolution_left": (("b", 0),),
            "derived_sinv_convolution": (("b", 0),),
        },
    },
    ("env-Q", "delta_l_lift", 6): {
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_l_coassoc": (("b", 2),),
            "delta_l_counital": (("b", 2),),
            "delta_l_multiplicative": (("b", 2), ("bp", 2)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 2),),
            "mixed_coassoc_2": (("b", 2),),
            "antipode_convolution_left": (("b", 2),),
            "derived_sinv_convolution": (("b", 2),),
        },
    },
    ("env-Q", "delta_l_lift", 19): {
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 1), ("side", 0)),
            "delta_l_coassoc": (("b", 3),),
            "delta_l_counital": (("b", 3),),
            "delta_l_multiplicative": (("b", 1), ("bp", 2)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 3),),
            "mixed_coassoc_2": (("b", 3),),
            "antipode_convolution_left": (("b", 3),),
            "derived_sinv_convolution": (("b", 3),),
        },
    },
    ("env-Q", "delta_r_lift", 0): {
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_r_coassoc": (("b", 1),),
            "delta_r_counital": (("b", 0),),
            "delta_r_multiplicative": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 2),),
            "mixed_coassoc_2": (("b", 1),),
            "antipode_convolution_right": (("b", 0),),
            "derived_tl_convolution": (("b", 0),),
        },
    },
    ("env-Q", "delta_r_lift", 6): {
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_r_coassoc": (("b", 2),),
            "delta_r_counital": (("b", 2),),
            "delta_r_multiplicative": (("b", 2), ("bp", 2)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 2),),
            "mixed_coassoc_2": (("b", 2),),
            "antipode_convolution_right": (("b", 2),),
            "derived_tl_convolution": (("b", 2),),
        },
    },
    ("env-Q", "delta_r_lift", 19): {
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 1), ("side", 0)),
            "delta_r_coassoc": (("b", 3),),
            "delta_r_counital": (("b", 3),),
            "delta_r_multiplicative": (("b", 1), ("bp", 2)),
        },
        "check_hopf_algebroid": {
            "mixed_coassoc_1": (("b", 3),),
            "mixed_coassoc_2": (("b", 3),),
            "antipode_convolution_right": (("b", 3),),
            "derived_tl_convolution": (("b", 3),),
        },
    },
    ("env-Q", "eps_l", 0): {
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_3": None,
            "antipode_convolution_right": (("b", 0),),
            "derived_tl_convolution": (("b", 0),),
        },
    },
    ("env-Q", "eps_l", 5): {
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 1),),
            "eps_l_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_3": None,
            "antipode_convolution_right": (("b", 1),),
            "derived_tl_convolution": (("b", 1),),
        },
    },
    ("env-Q", "eps_l", 6): {
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 2),),
            "eps_l_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "antipode_convolution_right": (("b", 2),),
            "derived_tl_convolution": (("b", 2),),
        },
    },
    ("env-Q", "eps_r", 0): {
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_4": None,
            "antipode_convolution_left": (("b", 0),),
            "derived_sinv_convolution": (("b", 0),),
            "kow_identity": None,
        },
    },
    ("env-Q", "eps_r", 5): {
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 1),),
            "eps_r_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "antipode_convolution_left": (("b", 1),),
            "derived_sinv_convolution": (("b", 1),),
            "kow_identity": None,
        },
    },
    ("env-Q", "eps_r", 6): {
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 2),),
            "eps_r_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_4": None,
            "antipode_convolution_left": (("b", 2),),
            "derived_sinv_convolution": (("b", 2),),
            "kow_identity": None,
        },
    },
    ("env-Q", "mult", 6): {
        "check_algebroid_structure": {
            "mult_associative": (("i", 0), ("j", 0), ("k", 1)),
            "mult_unital": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "left_images_commute": None,
            "right_images_commute": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 1),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 1)),
            "eps_l_character": (("b", 0), ("bp", 1)),
        },
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 1)),
            "delta_r_counital": (("b", 1),),
            "eps_r_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "takeuchi_right": (("b", 0), ("r", 1)),
            "delta_r_multiplicative": (("b", 1), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 1), ("rp", 0)),
            "antipode_convolution_left": (("b", 1),),
            "derived_tl_convolution": (("b", 2),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
        },
    },
    ("env-Q", "mult", 17): {
        "check_algebroid_structure": {
            "mult_associative": (("i", 1), ("j", 0), ("k", 0)),
            "mult_unital": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "left_images_commute": None,
            "right_images_commute": None,
            "antipode_antihom": (("i", 0), ("j", 2)),
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 2), ("side", 1)),
            "delta_l_counital": (("b", 1),),
            "eps_l_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "takeuchi_left": (("b", 0), ("r", 1)),
            "delta_l_multiplicative": (("b", 1), ("bp", 2)),
        },
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 1),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 1)),
            "takeuchi_right": (("b", 1), ("r", 1)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 2),),
            "derived_tl_convolution": (("b", 1),),
            "sinv_twisted_linear": (("r", 0), ("h", 1), ("rp", 0)),
        },
    },
    ("env-Q", "mult", 32): {
        "check_algebroid_structure": {
            "mult_associative": (("i", 1), ("j", 2), ("k", 0)),
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_r_homomorphism": None,
            "left_images_commute": None,
            "right_images_commute": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 1), ("side", 0)),
            "delta_l_counital": (("b", 2),),
            "eps_l_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "takeuchi_left": (("b", 0), ("r", 1)),
            "delta_l_multiplicative": (("b", 2), ("bp", 1)),
        },
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 2),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 2)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "antipode_twisted_linear": (("r", 0), ("h", 1), ("rp", 0)),
            "antipode_convolution_right": (("b", 2),),
            "derived_sinv_convolution": (("b", 1),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
        },
    },
    ("env-Q", "s_l", 0): {
        "check_algebroid_structure": {"s_l_homomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_right": (("b", 0),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "s_l", 2): {
        "check_algebroid_structure": {"s_l_homomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 0), ("b", 0), ("side", 0)),
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_right": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "s_l", 3): {
        "check_algebroid_structure": {"s_l_homomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_l_counital": (("b", 2),),
            "eps_l_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 1), ("h", 0), ("rp", 0)),
            "antipode_convolution_right": (("b", 1),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 1), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "s_r", 0): {
        "check_algebroid_structure": {"s_r_homomorphism_op": None},
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_left": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "s_r", 4): {
        "check_algebroid_structure": {"s_r_homomorphism_op": None},
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 0), ("b", 0), ("side", 1)),
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "antipode_convolution_left": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "s_r", 5): {
        "check_algebroid_structure": {"s_r_homomorphism_op": None},
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 1)),
            "delta_r_counital": (("b", 1),),
            "eps_r_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "antipode_convolution_left": (("b", 1),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
        },
    },
    ("env-Q", "t_l", 0): {
        "check_algebroid_structure": {"t_l_antihomomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "derived_tl_convolution": (("b", 0),),
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "t_l", 4): {
        "check_algebroid_structure": {"t_l_antihomomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 0), ("b", 0), ("side", 1)),
            "delta_l_counital": (("b", 0),),
            "eps_l_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "derived_tl_convolution": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "t_l", 5): {
        "check_algebroid_structure": {"t_l_antihomomorphism": None},
        "check_left_bialgebroid": {
            "delta_l_bimodule": (("r", 1), ("b", 0), ("side", 1)),
            "delta_l_counital": (("b", 1),),
            "eps_l_bimodule": (("r", 0), ("rp", 1), ("b", 0)),
            "eps_l_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_2": None,
            "counit_source_target_3": None,
            "antipode_twisted_linear": (("r", 1), ("h", 0), ("rp", 0)),
            "derived_tl_convolution": (("b", 1),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 1), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "t_r", 0): {
        "check_algebroid_structure": {"t_r_homomorphism": None},
        "check_right_bialgebroid": {
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "derived_sinv_convolution": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "t_r", 2): {
        "check_algebroid_structure": {"t_r_homomorphism": None},
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 0), ("b", 0), ("side", 0)),
            "delta_r_counital": (("b", 0),),
            "eps_r_bimodule": (("r", 0), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 0)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
            "derived_sinv_convolution": (("b", 0),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 0)),
        },
    },
    ("env-Q", "t_r", 3): {
        "check_algebroid_structure": {"t_r_homomorphism": None},
        "check_right_bialgebroid": {
            "delta_r_bimodule": (("r", 1), ("b", 0), ("side", 0)),
            "delta_r_counital": (("b", 2),),
            "eps_r_bimodule": (("r", 1), ("rp", 0), ("b", 0)),
            "eps_r_character": (("b", 0), ("bp", 1)),
        },
        "check_hopf_algebroid": {
            "counit_source_target_1": None,
            "counit_source_target_4": None,
            "antipode_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
            "derived_sinv_convolution": (("b", 1),),
            "kow_identity": None,
            "sinv_twisted_linear": (("r", 0), ("h", 0), ("rp", 1)),
        },
    },
    ("env-Q", "unit", 0): {
        "check_algebroid_structure": {
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
        },
        "check_left_bialgebroid": {"delta_l_multiplicative": None},
        "check_right_bialgebroid": {"delta_r_multiplicative": None},
    },
    ("env-Q", "unit", 2): {
        "check_algebroid_structure": {
            "mult_unital": None,
            "s_l_homomorphism": None,
            "t_l_antihomomorphism": None,
            "s_r_homomorphism_op": None,
            "t_r_homomorphism": None,
            "antipode_antihom": None,
        },
        "check_left_bialgebroid": {"delta_l_multiplicative": None},
        "check_right_bialgebroid": {"delta_r_multiplicative": None},
    },
}


@pytest.mark.parametrize("case", sorted(ALGEBROID_WITNESSES))
def test_bumped_algebroid_witnesses(case):
    assert observe_algebroid(*case) == ALGEBROID_WITNESSES[case]


# -- quasi-Hopf algebras --------------------------------------------------------

QUASI_HOPF = {
    "H4": lambda: sweedler_h4(QQ),
    "k^Z2_w": lambda: twisted_dual_group_algebra(QQ, cyclic_group_table(2),
                                                 z2_nontrivial_cocycle(QQ)),
}


def _check_regular_module(H):
    return check_module(regular_module(H))


def _check_trivial_module(H):
    return check_module(trivial_module(H))


QUASI_HOPF_SUITES = (validate_structure, check_quasi_bialgebra, check_quasi_hopf,
                     _check_regular_module, _check_trivial_module)


def bumped_quasi_hopf(H: QuasiHopfAlgebra, part: str, pos: int) -> QuasiHopfAlgebra:
    """H with one structure constant raised by one."""
    parts = {key: getattr(H, key) for key in ("mult", "unit", "comult", "counit", "antipode",
                                              "phi", "phi_inv", "alpha", "beta")}
    value = parts[part]
    parts[part] = (_bump_matrix(value, pos) if isinstance(value, Matrix)
                   else _bump(H.field, value, pos))
    return QuasiHopfAlgebra(H.field, H.dim, antipode_inv=H.antipode_inv, name=H.name, **parts)


def observe_quasi_hopf(name, part, pos):
    H = QUASI_HOPF[name]()
    if part == "module":
        # one entry of the regular action matrices, read as one flat list
        reg = regular_module(H)
        d = reg.dim * reg.dim
        mats = list(reg.mats)
        mats[pos // d] = _bump_matrix(mats[pos // d], pos % d)
        return _observe((check_module,), HModule(H, mats, name="bumped"))
    return _observe(QUASI_HOPF_SUITES, bumped_quasi_hopf(H, part, pos))


# case (structure, bumped part, flat position) -> failures per suite
QUASI_HOPF_WITNESSES = {
    ("H4", "alpha", 0): {"check_quasi_hopf": {"ev_coev": None, "coev_ev": None}},
    ("H4", "alpha", 1): {
        "check_quasi_hopf": {"alpha_axiom": (("h", 2),), "ev_coev": None, "coev_ev": None},
    },
    ("H4", "alpha", 3): {
        "check_quasi_hopf": {"alpha_axiom": (("h", 1),), "ev_coev": None, "coev_ev": None},
    },
    ("H4", "antipode", 0): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_antipode": (("h", 0),),
            "eps_p_q_beta_s_r": None,
        },
    },
    ("H4", "antipode", 6): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 1), ("j", 2)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 2),),
            "beta_axiom": (("h", 2),),
            "eps_antipode": (("h", 2),),
        },
    },
    ("H4", "antipode", 12): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
    },
    ("H4", "beta", 0): {"check_quasi_hopf": {"ev_coev": None, "coev_ev": None}},
    ("H4", "beta", 1): {
        "check_quasi_hopf": {"beta_axiom": (("h", 2),), "ev_coev": None, "coev_ev": None},
    },
    ("H4", "beta", 3): {
        "check_quasi_hopf": {"beta_axiom": (("h", 1),), "ev_coev": None, "coev_ev": None},
    },
    ("H4", "comult", 0): {
        "validate_structure": {"comult_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 2),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "counit": (("a", 0),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 0),), "beta_axiom": (("h", 0),)},
    },
    ("H4", "comult", 6): {
        "validate_structure": {"comult_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 1, 2)),),
            "counit": (("a", 0),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 0),), "beta_axiom": (("h", 0),)},
    },
    ("H4", "comult", 13): {
        "validate_structure": {"comult_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 3, 1)),),
            "counit": (("a", 0),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 0),), "beta_axiom": (("h", 0),)},
    },
    ("H4", "counit", 0): {
        "validate_structure": {"counit_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {"counit": (("a", 0),), "phi_counit": None},
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "eps_p_q_beta_s_r": None,
        },
        "_check_trivial_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
    },
    ("H4", "counit", 2): {
        "validate_structure": {"counit_algebra_map": (("i", 1), ("j", 2))},
        "check_quasi_bialgebra": {"counit": (("a", 2),)},
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 2),),
            "beta_axiom": (("h", 2),),
            "eps_antipode": (("h", 2),),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 1), ("j", 2))},
    },
    ("H4", "counit", 3): {
        "validate_structure": {"counit_algebra_map": (("i", 1), ("j", 2))},
        "check_quasi_bialgebra": {"counit": (("a", 3),)},
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 3),),
            "beta_axiom": (("h", 3),),
            "eps_antipode": (("h", 2),),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 1), ("j", 2))},
    },
    ("H4", "module", 0): {
        "check_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
    },
    ("H4", "module", 26): {"check_module": {"module_multiplicative": (("i", 1), ("j", 1))}},
    ("H4", "module", 46): {"check_module": {"module_multiplicative": (("i", 1), ("j", 2))}},
    ("H4", "mult", 0): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 0), ("k", 1)),
            "mult_unital": (("i", 0),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "counit_algebra_map": (("i", 0), ("j", 0)),
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 0), ("j", 0))},
    },
    ("H4", "mult", 1): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 0), ("k", 1)),
            "mult_unital": (("i", 0),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "counit_algebra_map": (("i", 0), ("j", 0)),
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 1)),),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 0), ("j", 0))},
    },
    ("H4", "mult", 3): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 0), ("k", 1)),
            "mult_unital": (("i", 0),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "phi_invertible": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 3)),),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
    },
    ("H4", "phi", 0): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None},
    },
    ("H4", "phi", 6): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 3, 2)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None},
    },
    ("H4", "phi", 52): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (3, 2, 0, 0)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None},
    },
    ("H4", "phi_inv", 0): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 0),)},
        "check_quasi_hopf": {"coev_ev": None, "eps_p_q_beta_s_r": None},
    },
    ("H4", "phi_inv", 46): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 0),)},
    },
    ("H4", "phi_inv", 52): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 0),)},
        "check_quasi_hopf": {"coev_ev": None},
    },
    ("H4", "unit", 0): {
        "validate_structure": {
            "mult_unital": (("i", 0),),
            "comult_algebra_map": None,
            "counit_algebra_map": None,
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None, "coev_ev": None},
        "_check_regular_module": {"module_unit": None},
        "_check_trivial_module": {"module_unit": None},
    },
    ("H4", "unit", 1): {
        "validate_structure": {
            "mult_unital": (("i", 0),),
            "comult_algebra_map": None,
            "counit_algebra_map": None,
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "pentagon": (("tuple", (0, 0, 0, 1)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None, "coev_ev": None},
        "_check_regular_module": {"module_unit": None},
        "_check_trivial_module": {"module_unit": None},
    },
    ("H4", "unit", 3): {
        "validate_structure": {
            "mult_unital": (("i", 0),),
            "comult_algebra_map": None,
            "phi_invertible": None,
            "antipode_antihom": None,
        },
        "check_quasi_bialgebra": {
            "pentagon": (("tuple", (0, 0, 0, 3)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None, "coev_ev": None},
        "_check_regular_module": {"module_unit": None},
    },
    ("k^Z2_w", "alpha", 0): {"check_quasi_hopf": {"ev_coev": None, "coev_ev": None}},
    ("k^Z2_w", "antipode", 0): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 0)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_antipode": (("h", 0),),
            "eps_p_q_beta_s_r": None,
        },
    },
    ("k^Z2_w", "antipode", 1): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 1),),
            "beta_axiom": (("h", 1),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_antipode": (("h", 1),),
            "eps_p_q_beta_s_r": None,
        },
    },
    ("k^Z2_w", "antipode", 3): {
        "validate_structure": {
            "antipode_inverse_pair": None,
            "antipode_antihom": (("i", 1), ("j", 1)),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
    },
    ("k^Z2_w", "beta", 0): {"check_quasi_hopf": {"ev_coev": None, "coev_ev": None}},
    ("k^Z2_w", "comult", 0): {
        "validate_structure": {"comult_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "counit": (("a", 0),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 0),), "beta_axiom": (("h", 0),)},
    },
    ("k^Z2_w", "comult", 4): {
        "validate_structure": {"comult_algebra_map": (("i", 0), ("j", 1))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "counit": (("a", 1),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 1),), "beta_axiom": (("h", 1),)},
    },
    ("k^Z2_w", "comult", 6): {
        "validate_structure": {"comult_algebra_map": (("i", 1), ("j", 1))},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 1, 0)),),
            "counit": (("a", 1),),
        },
    },
    ("k^Z2_w", "counit", 0): {
        "validate_structure": {"counit_algebra_map": (("i", 0), ("j", 0))},
        "check_quasi_bialgebra": {"counit": (("a", 0),), "phi_counit": None},
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "eps_p_q_beta_s_r": None,
        },
        "_check_trivial_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
    },
    ("k^Z2_w", "counit", 1): {
        "validate_structure": {"counit_algebra_map": (("i", 0), ("j", 1))},
        "check_quasi_bialgebra": {"counit": (("a", 0),), "phi_counit": None},
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 1),),
            "beta_axiom": (("h", 1),),
            "eps_p_q_beta_s_r": None,
        },
        "_check_trivial_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 1)),
        },
    },
    ("k^Z2_w", "module", 0): {
        "check_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 0)),
        },
    },
    ("k^Z2_w", "module", 5): {
        "check_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 1)),
        },
    },
    ("k^Z2_w", "module", 6): {
        "check_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 1), ("j", 0)),
        },
    },
    ("k^Z2_w", "mult", 2): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 1), ("k", 0)),
            "mult_unital": (("i", 0),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "counit_algebra_map": (("i", 0), ("j", 1)),
            "phi_invertible": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 1)),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 0), ("j", 1))},
    },
    ("k^Z2_w", "mult", 4): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 1), ("k", 0)),
            "mult_unital": (("i", 0),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "counit_algebra_map": (("i", 1), ("j", 0)),
            "phi_invertible": None,
            "antipode_antihom": (("i", 0), ("j", 1)),
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
        },
        "check_quasi_hopf": {"alpha_axiom": (("h", 1),), "ev_coev": None, "coev_ev": None},
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 1)),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 1), ("j", 0))},
    },
    ("k^Z2_w", "mult", 6): {
        "validate_structure": {
            "mult_associative": (("i", 0), ("j", 1), ("k", 1)),
            "mult_unital": (("i", 1),),
            "comult_algebra_map": (("i", 0), ("j", 0)),
            "counit_algebra_map": (("i", 1), ("j", 1)),
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
        },
        "check_quasi_hopf": {
            "alpha_axiom": (("h", 0),),
            "beta_axiom": (("h", 0),),
            "ev_coev": None,
            "coev_ev": None,
            "eps_p_q_beta_s_r": None,
        },
        "_check_regular_module": {
            "module_unit": None,
            "module_multiplicative": (("i", 0), ("j", 1)),
        },
        "_check_trivial_module": {"module_multiplicative": (("i", 1), ("j", 1))},
    },
    ("k^Z2_w", "phi", 0): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None},
    },
    ("k^Z2_w", "phi", 4): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 1),),
            "pentagon": (("tuple", (1, 0, 0, 1)),),
            "phi_counit": None,
        },
    },
    ("k^Z2_w", "phi", 5): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {
            "coassoc_twisted": (("a", 0),),
            "pentagon": (("tuple", (1, 0, 0, 1)),),
            "phi_counit": None,
        },
    },
    ("k^Z2_w", "phi_inv", 0): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 0),)},
        "check_quasi_hopf": {"coev_ev": None, "eps_p_q_beta_s_r": None},
    },
    ("k^Z2_w", "phi_inv", 3): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 0),)},
        "check_quasi_hopf": {"eps_p_q_beta_s_r": None},
    },
    ("k^Z2_w", "phi_inv", 7): {
        "validate_structure": {"phi_invertible": None},
        "check_quasi_bialgebra": {"coassoc_twisted": (("a", 1),)},
        "check_quasi_hopf": {"coev_ev": None},
    },
    ("k^Z2_w", "unit", 0): {
        "validate_structure": {
            "mult_unital": (("i", 0),),
            "comult_algebra_map": None,
            "counit_algebra_map": None,
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "pentagon": (("tuple", (0, 0, 0, 0)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None, "coev_ev": None},
        "_check_regular_module": {"module_unit": None},
        "_check_trivial_module": {"module_unit": None},
    },
    ("k^Z2_w", "unit", 1): {
        "validate_structure": {
            "mult_unital": (("i", 1),),
            "comult_algebra_map": None,
            "phi_invertible": None,
        },
        "check_quasi_bialgebra": {
            "pentagon": (("tuple", (0, 0, 0, 1)),),
            "phi_counit": None,
        },
        "check_quasi_hopf": {"ev_coev": None, "coev_ev": None},
        "_check_regular_module": {"module_unit": None},
    },
}


@pytest.mark.parametrize("case", sorted(QUASI_HOPF_WITNESSES))
def test_bumped_quasi_hopf_witnesses(case):
    assert observe_quasi_hopf(*case) == QUASI_HOPF_WITNESSES[case]


# -- coefficients -----------------------------------------------------------------

def _hopf_coefficient():
    M = regular_module(sweedler_h4(QQ))
    return Contramodule(M, evaluation_at_unit(M), HOPF_MU)


def _type_I_coefficient():
    M = regular_module(QUASI_HOPF["k^Z2_w"]())
    return Contramodule(M, evaluation_at_unit(M), QUASI_I)


def _algebroid_coefficient():
    """The stable contraaction on the base module of env(k[x]/x^2) over GF(5)."""
    M = base_module(enveloping_algebroid(base_ring_dual_numbers(F5)))
    mu = Matrix(F5, 2, 8, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])
    return Contramodule(M, mu, ALGEBROID_MU)


COEFFICIENTS = {
    "hopf": (_hopf_coefficient,
             (check_contramodule_hopf, check_ayd_hopf, check_stability_hopf)),
    "typeI": (_type_I_coefficient, (check_ayd_quasi_I, check_stability_quasi)),
    "typeII": (lambda: convert_I_to_II(_type_I_coefficient()),
               (check_ayd_quasi_II, check_stability)),
    "algebroid": (_algebroid_coefficient,
                  (check_contramodule_algebroid, check_ayd_algebroid,
                   check_stability_algebroid)),
}


def bumped_coefficient(C: Contramodule, part: str, pos: int) -> Contramodule:
    """C with one contraaction entry ("mu") or one entry of its action
    matrices ("module", read as one flat list) raised by one."""
    if part == "mu":
        return Contramodule(C.carrier, _bump_matrix(C.mu, pos), C.flavor)
    M = C.carrier
    d = M.dim * M.dim
    mats = list(M.mats)
    mats[pos // d] = _bump_matrix(mats[pos // d], pos % d)
    return Contramodule(type(M)(M.parent, mats, name=M.name), C.mu, C.flavor)


def observe_coefficient(name, part, pos):
    make, suites = COEFFICIENTS[name]
    return _observe(suites, bumped_coefficient(make(), part, pos))


# case (structure, bumped part, flat position) -> failures per suite
COEFFICIENT_WITNESSES = {
    ("algebroid", "module", 0): {
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 0), ("f_index", 1)),
            "bimodule_compatible": (("r", 0), ("m", 0)),
            "mu_right_linear": (("r", 0), ("f_index", 1)),
            "mu_left_linear": (("r", 0), ("f_index", 1)),
        },
    },
    ("algebroid", "module", 2): {
        "check_contramodule_algebroid": {"contra_unit_algebroid": (("m", 0),)},
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 0), ("f_index", 1)),
            "mu_right_linear": (("r", 0), ("f_index", 1)),
            "mu_left_linear": (("r", 0), ("f_index", 1)),
        },
        "check_stability_algebroid": {"stability": (("m", 0),)},
    },
    ("algebroid", "module", 10): {
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 2), ("f_index", 0)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 1), ("m", 0)),
            "mu_left_linear": (("r", 1), ("f_index", 3)),
        },
        "check_stability_algebroid": {"stability": (("m", 0),)},
    },
    ("algebroid", "module", 11): {
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 2), ("f_index", 2)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 1), ("m", 1)),
            "mu_left_linear": (("r", 1), ("f_index", 2)),
        },
        "check_stability_algebroid": {"stability": (("m", 1),)},
    },
    ("algebroid", "mu", 0): {
        "check_contramodule_algebroid": {
            "contra_assoc_algebroid": (("phi_index", 5),),
            "contra_unit_algebroid": (("m", 0),),
        },
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 1), ("f_index", 0)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 0), ("m", 0)),
            "mu_right_linear": (("r", 1), ("f_index", 0)),
            "mu_left_linear": (("r", 1), ("f_index", 0)),
        },
        "check_stability_algebroid": {"stability": (("m", 0),)},
    },
    ("algebroid", "mu", 5): {
        "check_contramodule_algebroid": {
            "contra_assoc_algebroid": (("phi_index", 0),),
            "contra_unit_algebroid": (("m", 0),),
        },
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 1), ("f_index", 0)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 0), ("m", 0)),
            "mu_right_linear": (("r", 1), ("f_index", 0)),
            "mu_left_linear": (("r", 1), ("f_index", 0)),
        },
        "check_stability_algebroid": {"stability": (("m", 0),)},
    },
    ("algebroid", "mu", 12): {
        "check_contramodule_algebroid": {
            "contra_assoc_algebroid": (("phi_index", 4),),
            "contra_unit_algebroid": (("m", 1),),
        },
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 1), ("f_index", 3)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 0), ("m", 1)),
            "mu_right_linear": (("r", 1), ("f_index", 3)),
            "mu_left_linear": (("r", 1), ("f_index", 3)),
        },
        "check_stability_algebroid": {"stability": (("m", 1),)},
    },
    ("algebroid", "mu", 13): {
        "check_contramodule_algebroid": {
            "contra_assoc_algebroid": (("phi_index", 1),),
            "contra_unit_algebroid": (("m", 0),),
        },
        "check_ayd_algebroid": {
            "ayd_algebroid": (("h", 1), ("f_index", 1)),
            "ayd_lift_independent": None,
            "bimodule_compatible": (("r", 0), ("m", 0)),
            "mu_right_linear": (("r", 1), ("f_index", 1)),
            "mu_left_linear": (("r", 1), ("f_index", 1)),
        },
        "check_stability_algebroid": {"stability": (("m", 0),)},
    },
    ("hopf", "module", 0): {
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 2), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 2), ("f_row", 0), ("f_col", 0)),
        },
        "check_stability_hopf": {"stability": (("m", 0),)},
    },
    ("hopf", "module", 6): {
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 2), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 2), ("f_row", 0), ("f_col", 0)),
        },
        "check_stability_hopf": {"stability": (("m", 2),)},
    },
    ("hopf", "module", 9): {
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 2), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 2), ("f_row", 0), ("f_col", 0)),
        },
        "check_stability_hopf": {"stability": (("m", 1),)},
    },
    ("hopf", "module", 11): {
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 2), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 2), ("f_row", 0), ("f_col", 0)),
        },
        "check_stability_hopf": {"stability": (("m", 3),)},
    },
    ("hopf", "mu", 0): {
        "check_contramodule_hopf": {
            "contra_coassoc": (("f_outer", 0), ("f_row", 0), ("f_col", 0)),
            "contra_counit": (("m", 0),),
        },
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 1), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 1), ("f_row", 0), ("f_col", 1)),
        },
        "check_stability_hopf": {"stability": (("m", 0),)},
    },
    ("hopf", "mu", 12): {
        "check_contramodule_hopf": {
            "contra_coassoc": (("f_outer", 0), ("f_row", 3), ("f_col", 0)),
            "contra_counit": (("m", 3),),
        },
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 1), ("f_row", 2), ("f_col", 0)),
            "ayd_eq_two": (("h", 1), ("f_row", 2), ("f_col", 1)),
        },
        "check_stability_hopf": {"stability": (("m", 3),)},
    },
    ("hopf", "mu", 25): {
        "check_contramodule_hopf": {
            "contra_coassoc": (("f_outer", 0), ("f_row", 2), ("f_col", 1)),
            "contra_counit": (("m", 2),),
        },
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 1), ("f_row", 2), ("f_col", 1)),
            "ayd_eq_two": (("h", 1), ("f_row", 2), ("f_col", 0)),
        },
        "check_stability_hopf": {"stability": (("m", 3),)},
    },
    ("hopf", "mu", 52): {
        "check_contramodule_hopf": {
            "contra_coassoc": (("f_outer", 0), ("f_row", 1), ("f_col", 0)),
            "contra_counit": (("m", 1),),
        },
        "check_ayd_hopf": {
            "ayd_eq_one": (("h", 1), ("f_row", 0), ("f_col", 0)),
            "ayd_eq_two": (("h", 1), ("f_row", 0), ("f_col", 1)),
        },
        "check_stability_hopf": {"stability": (("m", 1),)},
    },
    ("typeI", "module", 0): {
        "check_ayd_quasi_I": {
            "quasi_contra_I": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 0),)},
    },
    ("typeI", "module", 3): {
        "check_ayd_quasi_I": {
            "quasi_contra_I": (("f_row", 1), ("f_col", 0), ("f_outer", 0), ("coord", 1)),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 1),)},
    },
    ("typeI", "module", 5): {
        "check_ayd_quasi_I": {
            "quasi_contra_I": (("f_row", 1), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
        },
    },
    ("typeI", "module", 6): {
        "check_ayd_quasi_I": {
            "quasi_contra_I": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 1)),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 0),)},
    },
    ("typeI", "mu", 0): {
        "check_ayd_quasi_I": {
            "quasi_contra_I": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
            "contra_unit_I": (("m", 0),),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 0),)},
    },
    ("typeI", "mu", 2): {
        "check_ayd_quasi_I": {
            "ayd_type_I": (("h", 0), ("f_row", 1), ("f_col", 0)),
            "quasi_contra_I": (("f_row", 1), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
            "contra_unit_I": (("m", 1),),
        },
    },
    ("typeI", "mu", 3): {
        "check_ayd_quasi_I": {
            "ayd_type_I": (("h", 0), ("f_row", 1), ("f_col", 1)),
            "quasi_contra_I": (("f_row", 1), ("f_col", 1), ("f_outer", 1), ("coord", 1)),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 1),)},
    },
    ("typeI", "mu", 4): {
        "check_ayd_quasi_I": {
            "ayd_type_I": (("h", 0), ("f_row", 0), ("f_col", 0)),
            "quasi_contra_I": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 1)),
            "contra_unit_I": (("m", 0),),
        },
        "check_stability_quasi": {"stability_type_I": (("m", 0),)},
    },
    ("typeII", "module", 1): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 0), ("f_row", 1), ("f_col", 1)),
            "quasi_contra_II": (("f_row", 1), ("f_col", 1), ("f_outer", 1), ("coord", 0)),
        },
        "check_stability": {"stability_type_I": (("m", 1),)},
    },
    ("typeII", "module", 2): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 0), ("f_row", 0), ("f_col", 1)),
            "quasi_contra_II": (("f_row", 0), ("f_col", 1), ("f_outer", 1), ("coord", 1)),
        },
        "check_stability": {"stability_type_I": (("m", 0),)},
    },
    ("typeII", "module", 5): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 1), ("f_row", 1), ("f_col", 1)),
            "quasi_contra_II": (("f_row", 1), ("f_col", 1), ("f_outer", 1), ("coord", 1)),
        },
        "check_stability": {"stability_type_I": (("m", 1),)},
    },
    ("typeII", "module", 6): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 1), ("f_row", 0), ("f_col", 1)),
            "quasi_contra_II": (("f_row", 1), ("f_col", 1), ("f_outer", 1), ("coord", 1)),
        },
        "check_stability": {"stability_type_I": (("m", 0),)},
    },
    ("typeII", "mu", 0): {
        "check_ayd_quasi_II": {
            "quasi_contra_II": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
            "contra_unit_II": (("m", 0),),
        },
        "check_stability": {"stability_type_I": (("m", 0),)},
    },
    ("typeII", "mu", 2): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 0), ("f_row", 1), ("f_col", 0)),
            "quasi_contra_II": (("f_row", 1), ("f_col", 0), ("f_outer", 0), ("coord", 0)),
            "contra_unit_II": (("m", 1),),
        },
    },
    ("typeII", "mu", 3): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 0), ("f_row", 1), ("f_col", 1)),
            "quasi_contra_II": (("f_row", 1), ("f_col", 1), ("f_outer", 1), ("coord", 1)),
        },
        "check_stability": {"stability_type_I": (("m", 1),)},
    },
    ("typeII", "mu", 4): {
        "check_ayd_quasi_II": {
            "ayd_type_II": (("h", 0), ("f_row", 0), ("f_col", 0)),
            "quasi_contra_II": (("f_row", 0), ("f_col", 0), ("f_outer", 0), ("coord", 1)),
            "contra_unit_II": (("m", 0),),
        },
        "check_stability": {"stability_type_I": (("m", 0),)},
    },
}


@pytest.mark.parametrize("case", sorted(COEFFICIENT_WITNESSES))
def test_bumped_coefficient_witnesses(case):
    assert observe_coefficient(*case) == COEFFICIENT_WITNESSES[case]


# every suite's check ids, in report order
SUITE_CHECK_IDS = {
    "check_algebroid_structure": [
        "base_associative", "base_unital", "mult_associative", "mult_unital",
        "s_l_homomorphism", "t_l_antihomomorphism", "s_r_homomorphism_op",
        "t_r_homomorphism", "left_images_commute", "right_images_commute",
        "antipode_inverse_pair", "antipode_antihom"],
    "check_left_bialgebroid": [
        "delta_l_bimodule", "delta_l_coassoc", "delta_l_counital", "eps_l_bimodule",
        "takeuchi_left", "delta_l_multiplicative", "eps_l_character"],
    "check_right_bialgebroid": [
        "delta_r_bimodule", "delta_r_coassoc", "delta_r_counital", "eps_r_bimodule",
        "takeuchi_right", "delta_r_multiplicative", "eps_r_character"],
    "check_hopf_algebroid": [
        "counit_source_target_1", "counit_source_target_2", "counit_source_target_3",
        "counit_source_target_4", "mixed_coassoc_1", "mixed_coassoc_2",
        "antipode_twisted_linear", "antipode_convolution_left", "antipode_convolution_right",
        "derived_sinv_convolution", "derived_tl_convolution", "kow_identity",
        "sinv_twisted_linear"],
    "validate_structure": [
        "mult_associative", "mult_unital", "comult_algebra_map", "counit_algebra_map",
        "phi_invertible", "antipode_inverse_pair", "antipode_antihom"],
    "check_quasi_bialgebra": ["coassoc_twisted", "pentagon", "counit", "phi_counit"],
    "check_quasi_hopf": ["alpha_axiom", "beta_axiom", "ev_coev", "coev_ev", "eps_antipode",
                         "eps_p_q_beta_s_r"],
    "_check_regular_module": ["module_unit", "module_multiplicative"],
    "_check_trivial_module": ["module_unit", "module_multiplicative"],
    "check_contramodule_hopf": ["contra_coassoc", "contra_counit"],
    "check_ayd_hopf": ["ayd_eq_one", "ayd_eq_two"],
    "check_stability_hopf": ["stability"],
    "check_ayd_quasi_I": ["ayd_type_I", "quasi_contra_I", "contra_unit_I"],
    "check_stability_quasi": ["helper_eps_p_q_beta_s_r", "stability_type_I"],
    "check_ayd_quasi_II": ["ayd_type_II", "quasi_contra_II", "contra_unit_II"],
    "check_stability": ["helper_eps_p_q_beta_s_r", "stability_type_I"],
    "check_contramodule_algebroid": ["contra_assoc_algebroid", "contra_unit_algebroid"],
    "check_ayd_algebroid": ["ayd_algebroid", "ayd_lift_independent", "bimodule_compatible",
                            "mu_right_linear", "mu_left_linear"],
    "check_stability_algebroid": ["stability"],
}


def _suite_inputs():
    for make in ALGEBROIDS.values():
        yield ALGEBROID_SUITES, make()
    for make in QUASI_HOPF.values():
        yield QUASI_HOPF_SUITES, make()
    for make, suites in COEFFICIENTS.values():
        yield suites, make()


def test_suite_check_ids_and_order():
    for suites, arg in _suite_inputs():
        for suite in suites:
            assert [r.check_id for r in suite(arg).results] == SUITE_CHECK_IDS[suite.__name__]


# -- the hexagon ------------------------------------------------------------------

def _hexagon_modules(C):
    """The two modules the hexagon runs on: the monoidal unit and the regular
    module of the coefficient's parent."""
    H = C.parent
    if C.flavor == ALGEBROID_MU:
        return {"R": base_module(H), "reg": regular_module(H)}
    return {"k": trivial_module(H), "reg": regular_module(H)}


def observe_hexagon(name, v, w, where, pos):
    """The full check_hexagon report at (V, W), as (check id, passed,
    counterexample) triples, after the cached tau at W or at V (x) W has had
    its entry pos (modulo its size) raised by one, or has been doubled for
    pos "scale"; an exception is recorded by its type."""
    E = CenterElement(COEFFICIENTS[name][0]())
    mods = _hexagon_modules(E.coefficient)
    V, W = mods[v], mods[w]
    X = W if where == "W" else E.parent.tensor(V, W)[0]
    tau = E.tau(X)
    E.set_tau(X, tau.scale(tau.field.from_int(2)) if pos == "scale"
              else _bump_matrix(tau, pos % (tau.rows * tau.cols)))
    try:
        rep = check_hexagon(E, V, W)
    except ValueError as e:
        return type(e).__name__
    return [(r.check_id, r.passed, r.counterexample) for r in rep.results]


# case (coefficient, V, W, perturbed tau, entry) -> the full check_hexagon report
HEXAGON_WITNESSES = {
    ("typeI", "reg", "reg", "W", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "reg", "reg", "W", 1): [("hexagon", False, (("f_index", 1),))],
    ("typeI", "reg", "reg", "W", 5): [("hexagon", False, (("f_index", 1),))],
    ("typeI", "reg", "reg", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "reg", "reg", "VW", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "reg", "reg", "VW", 1): [("hexagon", False, (("f_index", 2),))],
    ("typeI", "reg", "reg", "VW", 5): [("hexagon", False, (("f_index", 6),))],
    ("typeI", "reg", "reg", "VW", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "k", "reg", "W", 0): [("hexagon", True, None)],
    ("typeI", "k", "reg", "W", 1): [("hexagon", True, None)],
    ("typeI", "k", "reg", "W", 5): [("hexagon", True, None)],
    ("typeI", "k", "reg", "W", "scale"): [("hexagon", True, None)],
    ("typeI", "k", "reg", "VW", 0): [("hexagon", True, None)],
    ("typeI", "k", "reg", "VW", 1): [("hexagon", True, None)],
    ("typeI", "k", "reg", "VW", 5): [("hexagon", True, None)],
    ("typeI", "k", "reg", "VW", "scale"): [("hexagon", True, None)],
    ("typeI", "reg", "k", "W", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "reg", "k", "W", 1): [("hexagon", False, (("f_index", 2),))],
    ("typeI", "reg", "k", "W", 5): [("hexagon", False, (("f_index", 2),))],
    ("typeI", "reg", "k", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeI", "reg", "k", "VW", 0): [("hexagon", True, None)],
    ("typeI", "reg", "k", "VW", 1): [("hexagon", True, None)],
    ("typeI", "reg", "k", "VW", 5): [("hexagon", True, None)],
    ("typeI", "reg", "k", "VW", "scale"): [("hexagon", True, None)],
    ("algebroid", "R", "R", "W", 0): "ValueError",
    ("algebroid", "R", "R", "W", 1): "ValueError",
    ("algebroid", "R", "R", "W", 5): "ValueError",
    ("algebroid", "R", "R", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("algebroid", "R", "R", "VW", 0): "ValueError",
    ("algebroid", "R", "R", "VW", 1): "ValueError",
    ("algebroid", "R", "R", "VW", 5): "ValueError",
    ("algebroid", "R", "R", "VW", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("algebroid", "reg", "R", "W", 0): "ValueError",
    ("algebroid", "reg", "R", "W", 1): "ValueError",
    ("algebroid", "reg", "R", "W", 5): "ValueError",
    ("algebroid", "reg", "R", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("algebroid", "reg", "R", "VW", 0): [("hexagon", True, None)],
    ("algebroid", "reg", "R", "VW", 1): [("hexagon", True, None)],
    ("algebroid", "reg", "R", "VW", 5): "ValueError",
    ("algebroid", "reg", "R", "VW", "scale"): [("hexagon", True, None)],
    ("algebroid", "R", "reg", "W", 0): "ValueError",
    ("algebroid", "R", "reg", "W", 1): "ValueError",
    ("algebroid", "R", "reg", "W", 5): "ValueError",
    ("algebroid", "R", "reg", "W", "scale"): [("hexagon", True, None)],
    ("algebroid", "R", "reg", "VW", 0): "ValueError",
    ("algebroid", "R", "reg", "VW", 1): "ValueError",
    ("algebroid", "R", "reg", "VW", 5): "ValueError",
    ("algebroid", "R", "reg", "VW", "scale"): [("hexagon", True, None)],
    ("algebroid", "reg", "reg", "W", 0): "ValueError",
    ("algebroid", "reg", "reg", "W", 1): "ValueError",
    ("algebroid", "reg", "reg", "W", 5): "ValueError",
    ("algebroid", "reg", "reg", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("algebroid", "reg", "reg", "VW", 0): [("hexagon", False, (("f_index", 0),))],
    ("algebroid", "reg", "reg", "VW", 1): [("hexagon", False, (("f_index", 1),))],
    ("algebroid", "reg", "reg", "VW", 5): [("hexagon", False, (("f_index", 5),))],
    ("algebroid", "reg", "reg", "VW", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "reg", "W", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "reg", "W", 1): [("hexagon", False, (("f_index", 1),))],
    ("typeII", "reg", "reg", "W", 5): [("hexagon", False, (("f_index", 1),))],
    ("typeII", "reg", "reg", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "reg", "VW", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "reg", "VW", 1): [("hexagon", False, (("f_index", 2),))],
    ("typeII", "reg", "reg", "VW", 5): [("hexagon", False, (("f_index", 6),))],
    ("typeII", "reg", "reg", "VW", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "k", "reg", "W", 0): [("hexagon", True, None)],
    ("typeII", "k", "reg", "W", 1): [("hexagon", True, None)],
    ("typeII", "k", "reg", "W", 5): [("hexagon", True, None)],
    ("typeII", "k", "reg", "W", "scale"): [("hexagon", True, None)],
    ("typeII", "k", "reg", "VW", 0): [("hexagon", True, None)],
    ("typeII", "k", "reg", "VW", 1): [("hexagon", True, None)],
    ("typeII", "k", "reg", "VW", 5): [("hexagon", True, None)],
    ("typeII", "k", "reg", "VW", "scale"): [("hexagon", True, None)],
    ("typeII", "reg", "k", "W", 0): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "k", "W", 1): [("hexagon", False, (("f_index", 2),))],
    ("typeII", "reg", "k", "W", 5): [("hexagon", False, (("f_index", 2),))],
    ("typeII", "reg", "k", "W", "scale"): [("hexagon", False, (("f_index", 0),))],
    ("typeII", "reg", "k", "VW", 0): [("hexagon", True, None)],
    ("typeII", "reg", "k", "VW", 1): [("hexagon", True, None)],
    ("typeII", "reg", "k", "VW", 5): [("hexagon", True, None)],
    ("typeII", "reg", "k", "VW", "scale"): [("hexagon", True, None)],
}


@pytest.mark.parametrize("case", list(HEXAGON_WITNESSES), ids=str)
def test_perturbed_tau_hexagon_witnesses(case):
    assert observe_hexagon(*case) == HEXAGON_WITNESSES[case]
