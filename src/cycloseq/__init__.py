"""Cyclotomic binary sequences and exact pseudorandomness measures."""

from .bounds import (
    BoundEvaluation,
    check_bw06,
    check_iw17,
    corollary1_kernel,
    difference_set_check,
    random_baseline,
    theorem1_kernel,
)
from .charsum import direct_signed_sum, expand_correlation_to_charsums
from .measures import (
    ComplexityProfile,
    CorrelationReport,
    TwoAdicReport,
    berlekamp_massey_profile,
    correlation_for_shifts,
    correlation_measure_exact,
    correlation_measure_sampled,
    max_order_complexity_profile,
    periodic_autocorrelation,
    periodic_autocorrelations,
    two_adic_complexity,
)
from .ntheory import (
    PrimeParams,
    SexticParams,
    build_index_table,
    cyclotomic_numbers,
    find_primitive_root,
    is_prime,
)
from .seqgen import (
    BitSequence,
    check_index_representation,
    cyclotomic_sequence,
    dhl_sequence,
    hall_sequence,
    hall_sequence_via_characters,
    legendre_sequence,
    permutation_map_f,
    read_sequence,
    write_sequence,
)

__version__ = "0.1.0"
