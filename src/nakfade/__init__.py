"""Outage-probability lower bounds for discrete-input Nakagami-m block-fading channels."""

__version__ = "0.1.0"

from .asymptotics import (
    BlockLengthScale,
    asymptote,
    asymptotic_cdf_A,
    coding_gain,
    optimal_exponent,
    random_coding_exponent,
    singleton_bound,
)
from .bound import (
    BinomialMixture,
    BoundResult,
    ChannelSpec,
    TabulatedPmf,
    build_pmf_A,
    cdf_Y_at,
    conditional_cdf_A,
    convolve_power,
    outage_lower_bound,
    outage_lower_bounds,
    success_rate,
)
from .constellation import Constellation, from_name, make_psk, make_qam
from .fading import NakagamiParam, gain_block, gain_cdf, gain_pdf, rician_k_to_m
from .montecarlo import McEstimate, mc_lower_bound, mc_outage
from .mutual_info import QuadratureRule, Snr, hermite_rule, mi_discrete, mi_discrete_array
