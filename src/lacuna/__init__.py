"""Exact moments and cumulants of lacunary cosine sums.

S_n(w) = sum_{k<=n} cos(2 pi a_k w) for integer frequencies a_k.  The
package computes E[S_n^m] and kappa_m(S_n) as exact rationals for
arbitrary integer sequences, compares them against the i.i.d. arcsine
model, and analyzes growth (affine tails, structural slopes, dominant
roots) for sequences generated by linear recurrences.
"""

from .errors import (
    GroundSetMismatch,
    IndexOutOfRange,
    LacunaError,
    NonIntegerRecurrence,
    NonPositiveTerm,
    RootFindingFailed,
    RoundingAmbiguous,
    TooFewPoints,
    TooLarge,
    TooShort,
    ZeroModulus,
)
from .exact import Rational, binomial, format_rational, parse_rational
from .laurent import (
    laurent_from_terms,
    laurent_mul,
    laurent_pow,
    laurent_power_const_term,
    laurent_power_const_term_full,
)
from .moments import (
    CompareRow,
    CumulantTable,
    arcsine_moment,
    compare_table,
    cumulant,
    cumulant_vector,
    cumulant_via_multiplicity,
    cumulants_to_moments,
    independent_cumulant,
    independent_cumulants,
    moment,
    moment_dfs,
    moment_oracle_quadrature,
    moment_vector,
    moments_to_cumulants,
    prefix_moments,
)
from .multiplicity import (
    SignedTuple,
    ZeroSumProfile,
    mult_crosscut,
    mult_moebius,
    mult_of_values,
    signed_subset_sum,
    signed_values,
    upset_partitions,
    zero_sum_profile,
)
from .partitions import (
    SetPartition,
    all_partitions,
    bottom,
    is_refinement,
    join,
    minimal_members,
    moebius_to_top,
    top,
)
from .recurrence import (
    AffineFit,
    OffsetPattern,
    RootCheck,
    detect_affine_tail,
    dominant_root_check,
    eta_relation_holds,
    pattern_multiplicity,
    poly_reduce_mod,
    rational_roots,
    structural_slope,
)
from .sequences import (
    SequenceSpec,
    generate_terms,
    hadamard_ratio,
    parse_sequence,
    ratio_limit_estimate,
)

__version__ = "0.1.0"
