"""Exact verification and cyclic cohomology for quasi-Hopf algebras and Hopf algebroids."""

from .fields import Field, rationals, prime_field
from .linalg import Matrix, Subspace, tensor_index, intertwiner_space
from .reports import CheckReport
from .quasihopf import (QuasiHopfAlgebra, HModule,
                        group_algebra, sweedler_h4, twisted_dual_group_algebra,
                        cyclic_group_table, symmetric_group_table,
                        z2_nontrivial_cocycle, z3_nontrivial_cocycle,
                        trivial_module, regular_module, tensor_module,
                        associator, left_hom, right_hom, eval_left, eval_right,
                        zeta_l, eta_l, zeta_r, eta_r, hom_module_morphisms,
                        validate_structure, check_quasi_bialgebra, check_quasi_hopf)
from .algebroid import (BaseRing, HopfAlgebroid, enveloping_algebroid, algebroid_from_hopf,
                        base_module, tensor_over_base,
                        left_hom_algebroid, right_hom_algebroid,
                        check_algebroid_structure, check_left_bialgebroid,
                        check_right_bialgebroid, check_hopf_algebroid)
from .coefficients import (Contramodule, HOPF_MU, QUASI_I, QUASI_II, ALGEBROID_MU,
                           evaluation_at_unit,
                           check_contramodule_hopf, check_ayd_hopf,
                           check_stability_hopf, tau_theta_hopf,
                           check_ayd_quasi_I, check_ayd_quasi_II,
                           check_stability_quasi,
                           check_contramodule_algebroid, check_ayd_algebroid,
                           check_stability_algebroid,
                           convert_I_to_II, convert_II_to_I,
                           tau_from_contramodule)
from .center import (CenterElement, check_hexagon, check_unitality,
                     check_stability_central, check_weakstrong,
                     contratrace_iota, iota_apply)
from .cyclic import (ModuleAlgebra, CocyclicModule, CohomologyResult,
                     TensorPowerChain, unit_algebra, check_algebra_object,
                     build_cocyclic, verify_cocyclic_identities,
                     hochschild_cohomology, cyclic_cohomology)
from .structures import parse_structure, serialize, write_structure, content_hash

__version__ = "0.1.0"
