"""Exact Schur-class calculus on products of projective spaces.

Core layers: integer partitions and tableau counting, sparse rational
polynomials, Schur and shift-expansion polynomials, the truncated
cohomology ring with split twisted bundles, exact matrix inertia, and the
theorem-level verifiers (positivity, Hodge-Riemann predicates,
log-concavity, Polya frequency combinations, Lorentzian certification).
"""

from .analysis import (InequalityResult, LorentzianReport, Sequence,
                       chern_power_sequence, derived_value_sequence,
                       fl_positivity, hessian_vs_intersection,
                       hodge_index_check, is_log_concave, is_ultra_log_concave,
                       kt_sequence, lemma_bridge_check, lorentzian_check,
                       lorentzian_witness, monomial_positivity,
                       pair_value_sequence, polya_check_minors,
                       polya_check_roots, polya_combination_class,
                       schur_hodge_improved_check)
from .bundles import (SplitBundle, char_class, chern, chern_all,
                      chern_twist_rule, class_is_nef,
                      derived_schur_class, derived_schur_classes, schur_class)
from .cohomology import CohClass, Space, evaluate_terms
from .errors import DegreeMismatchError, PreconditionError, SpaceMismatchError
from .partitions import (Partition, dual_in_box, partitions_in_box,
                         partitions_of, partitions_up_to, ssyt_count,
                         ssyt_weight_counts)
from .polyring import MultiPoly, elementary
from .quadforms import InertiaTriple, inertia, intersection_form
from .schur import (derived_all, derived_chern, derived_schur,
                    derived_table_check, dual_reversal_check,
                    elementary_row_check, schur_jt, schur_ssyt)

__version__ = "0.1.0"

# perfbench records this; the term kernels have one, pure-Python implementation
KERNEL_BACKEND = "python"
