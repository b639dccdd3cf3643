"""Secrecy metrics for transmitter selection under wireless-backhaul uncertainty.

Exact, asymptotic, and Monte-Carlo-estimated NZSR / SOP / ESR for the
MIN-ES, TTS, and OTS selection schemes, with and without backhaul
activity knowledge, against multiple colluding (MRC) eavesdroppers.
"""

from .asymptotics import (
    DiversityFit,
    EsrAsymptote,
    SopAsymptote,
    diversity_order_analytic,
    diversity_order_fit,
    esr_asymptote,
    esr_high_snr_ots,
    nzsr_asymptote,
    sop_asymptote,
    sop_high_snr_approx,
)
from .errors import (
    DomainError,
    InvalidRegimeError,
    QuadratureError,
    RateSeparationError,
    TxSecrecyError,
    UnsupportedClosedFormError,
)
from .metrics import (
    RatioCdfEvaluator,
    esr_closed_form,
    esr_quadrature,
    nzsr,
    ratio_cdf,
    sop,
)
from .montecarlo import McConfig, McEstimate, Metric, estimate_many, estimate_metrics
from .scenario import (
    ALL_SPECS,
    Knowledge,
    Scenario,
    Scheme,
    SchemeSpec,
    jitter_rates,
    rate_to_snr_db,
    scenario_from_db,
    snr_db_to_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SPECS",
    "DiversityFit",
    "DomainError",
    "EsrAsymptote",
    "InvalidRegimeError",
    "Knowledge",
    "McConfig",
    "McEstimate",
    "Metric",
    "QuadratureError",
    "RateSeparationError",
    "RatioCdfEvaluator",
    "Scenario",
    "Scheme",
    "SchemeSpec",
    "SopAsymptote",
    "TxSecrecyError",
    "UnsupportedClosedFormError",
    "diversity_order_analytic",
    "diversity_order_fit",
    "esr_asymptote",
    "esr_closed_form",
    "esr_high_snr_ots",
    "esr_quadrature",
    "estimate_many",
    "estimate_metrics",
    "jitter_rates",
    "nzsr",
    "nzsr_asymptote",
    "rate_to_snr_db",
    "ratio_cdf",
    "scenario_from_db",
    "snr_db_to_rate",
    "sop",
    "sop_asymptote",
    "sop_high_snr_approx",
]
