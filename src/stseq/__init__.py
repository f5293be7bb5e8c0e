"""Sato-Tate multiplicative sequences: exact engines, sampling, verifiers."""

__version__ = "0.1.0"

from .arith import (
    AngleSeries,
    NormalizedSequence,
    PrimePowerRule,
    assemble_multiplicative,
    growth_violations,
    is_prime,
    primes_up_to,
)
from .elliptic import (
    CurveSpec,
    KappaEstimate,
    TraceSeries,
    angles_from_traces,
    ec_normalized_sequence,
    kappa_partial,
    supersingular_census,
    trace_at_prime,
    trace_batch,
    trace_series,
)
from .report import VerificationReport
from .stats import (
    LogMomentEstimate,
    STConstants,
    h_gamma,
    ks_statistic,
    prime_angle_summary,
    prime_log_moments,
    st_cdf,
    st_log_moments,
)
from .synthetic import (
    StRngStream,
    SyntheticSpec,
    build_synthetic_sequence,
    sample_st_angles,
)
from .tau import (
    ExactTauTable,
    expand_delta,
    integrity_check,
    normalize_tau,
    tau_angles,
    tau_naive_oracle,
)
from .verify import (
    SupportFilter,
    check_assumptions,
    verify_hall_tenenbaum,
    verify_lemma_sums,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)

__all__ = [name for name in dir() if not name.startswith("_")]
