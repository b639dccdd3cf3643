"""Scenario and selection-scheme descriptors.

A :class:`Scenario` fixes the network: N transmitters behind unreliable
wireless backhaul (each link up with probability ``s``), one destination
with Rayleigh-faded links of rate parameter ``dest_rate`` (inverse mean
SNR, linear scale), and K colluding eavesdroppers whose MRC-combined SNR
is hypoexponential with rates ``eave_rates``.  A :class:`SchemeSpec`
picks which transmitter-selection rule is in force and whether the
selector knows which backhaul links are active.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

from .errors import RateSeparationError

#: Minimum admissible relative separation between eavesdropper rates.
RATE_SEPARATION = 1e-6


class Scheme(Enum):
    """Transmitter selection rule."""

    MIN_ES = "MIN-ES"  # minimize the MRC eavesdropping SNR
    TTS = "TTS"        # maximize the destination SNR
    OTS = "OTS"        # maximize the instantaneous secrecy rate


class Knowledge(Enum):
    """Availability of backhaul link activity knowledge at the selector."""

    BKU = "BKU"
    BKA = "BKA"


@dataclass(frozen=True)
class SchemeSpec:
    scheme: Scheme
    knowledge: Knowledge

    @property
    def label(self) -> str:
        return f"{self.scheme.value}-{self.knowledge.value}"


#: All six scheme/knowledge combinations, in a fixed display order.
ALL_SPECS = tuple(
    SchemeSpec(scheme, knowledge)
    for scheme in (Scheme.MIN_ES, Scheme.TTS, Scheme.OTS)
    for knowledge in (Knowledge.BKU, Knowledge.BKA)
)


def check_rate_separation(rates) -> None:
    """Raise :class:`RateSeparationError` if any two rates nearly coincide."""
    rates = list(rates)
    scale = max(abs(r) for r in rates)
    for a in range(len(rates)):
        for b in range(a + 1, len(rates)):
            if abs(rates[a] - rates[b]) < RATE_SEPARATION * scale:
                raise RateSeparationError(
                    f"rates {rates[a]!r} and {rates[b]!r} are closer than "
                    f"relative {RATE_SEPARATION:g}; perturb them (e.g. with "
                    "jitter_rates) if evaluation must proceed"
                )


def jitter_rates(rates, scale: float = 2.0 * RATE_SEPARATION) -> tuple[float, ...]:
    """Multiplicatively perturb rates so that they become distinct.

    The k-th rate is scaled by ``1 + scale*k``; the default spaces equal
    rates just wide enough for :func:`check_rate_separation`.  This is an
    explicit opt-in for users who want to evaluate the distinct-rate
    closed forms at (nearly) coincident rates.  Those forms lose accuracy
    as the rates get closer, because their alternating weights grow: at
    relative spacing 1e-5 the hypoexponential survival function is
    already off by about 1.7e-7 relative.  At the default spacing the
    weights of three equal rates reach 5e11 in magnitude, and the exact
    MIN-ES and TTS SOP and NZSR of K >= 3 such eavesdroppers raise
    :class:`~txsecrecy.errors.QuadratureError` rather than return
    rounding noise.  OTS reads no weights (only the Laplace transform
    prod_k rate_k / (rate_k + theta)), so its SOP, NZSR, ESR and line
    offset evaluate at jittered rates.
    """
    return tuple(r * (1.0 + scale * k) for k, r in enumerate(rates))


def snr_db_to_rate(snr_db: float) -> float:
    """Convert a mean SNR in dB to the exponential rate parameter.

    The rate is the inverse of the linear-scale mean SNR, so 20 dB maps
    to 0.01.
    """
    return 10.0 ** (-snr_db / 10.0)


def rate_to_snr_db(rate: float) -> float:
    """Inverse of :func:`snr_db_to_rate`."""
    return -10.0 * math.log10(rate)


@dataclass(frozen=True)
class Scenario:
    """Full parameter set of one secrecy evaluation.

    Parameters
    ----------
    n_transmitters : int
        Number of transmitters N (>= 1).
    n_eavesdroppers : int
        Number of colluding eavesdroppers K (>= 1).
    backhaul_reliability : float
        Probability ``s`` in (0, 1] that a backhaul link is active.
    dest_rate : float
        Rate parameter of the destination-link SNR (inverse mean SNR).
    eave_rates : tuple of float
        K pairwise-distinct rate parameters of the eavesdropper links.
    threshold_rate : float
        Secrecy rate threshold in bits per channel use (>= 0).

    Non-integer counts (bools too) and non-finite rates raise ValueError.
    """

    n_transmitters: int
    n_eavesdroppers: int
    backhaul_reliability: float
    dest_rate: float
    eave_rates: tuple
    threshold_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eave_rates", tuple(float(r) for r in self.eave_rates))
        for name in ("n_transmitters", "n_eavesdroppers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if len(self.eave_rates) != self.n_eavesdroppers:
            raise ValueError(
                f"expected {self.n_eavesdroppers} eavesdropper rates, "
                f"got {len(self.eave_rates)}"
            )
        if not 0.0 < self.backhaul_reliability <= 1.0:
            raise ValueError("backhaul_reliability must be in (0, 1]")
        if not 0.0 < self.dest_rate < math.inf:
            raise ValueError(f"dest_rate must be finite and positive, got {self.dest_rate!r}")
        if not all(0.0 < r < math.inf for r in self.eave_rates):
            raise ValueError(f"all eave_rates must be finite and positive, got {self.eave_rates!r}")
        if not 0.0 <= self.threshold_rate < math.inf:
            raise ValueError(f"threshold_rate must be finite and >= 0, got {self.threshold_rate!r}")
        check_rate_separation(self.eave_rates)

    @property
    def s(self) -> float:
        return self.backhaul_reliability

    @property
    def rho(self) -> float:
        """Outage threshold on the SNR ratio, 2**threshold_rate."""
        return 2.0 ** self.threshold_rate

    @property
    def dest_snr_db(self) -> float:
        return rate_to_snr_db(self.dest_rate)

    def with_dest_snr_db(self, snr_db: float) -> "Scenario":
        return replace(self, dest_rate=snr_db_to_rate(snr_db))

    def with_reliability(self, s: float) -> "Scenario":
        return replace(self, backhaul_reliability=s)


def scenario_from_db(
    n_transmitters: int,
    n_eavesdroppers: int,
    backhaul_reliability: float,
    dest_snr_db: float,
    eave_snr_db,
    threshold_rate: float = 0.0,
) -> Scenario:
    """Build a :class:`Scenario` from mean SNRs given in dB."""
    return Scenario(
        n_transmitters=n_transmitters,
        n_eavesdroppers=n_eavesdroppers,
        backhaul_reliability=backhaul_reliability,
        dest_rate=snr_db_to_rate(dest_snr_db),
        eave_rates=tuple(snr_db_to_rate(v) for v in eave_snr_db),
        threshold_rate=threshold_rate,
    )
