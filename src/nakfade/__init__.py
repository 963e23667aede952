"""Outage-probability lower bounds for discrete-input Nakagami-m block-fading channels."""

__version__ = "0.1.0"

from .asymptotics import (
    BlockLengthScale,
    DiversityReport,
    OptimalExponent,
    asymptote,
    asymptotic_cdf_A,
    asymptotic_pmf_A,
    coding_gain,
    diversity_report,
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
from .fading import (
    FadingGain,
    GainStream,
    NakagamiParam,
    gain_block,
    gain_cdf,
    gain_pdf,
    gamma_upper_incomplete,
    rician_k_to_m,
    sample_gain,
)
from .montecarlo import McEstimate, mc_lower_bound, mc_outage
from .mutual_info import QuadratureRule, Snr, hermite_rule, mi_discrete, mi_discrete_array
