"""Outage-probability lower bounds for discrete-input Nakagami-m block-fading channels."""

__version__ = "0.6.0"

from .asymptotics import (
    asymptotes,
    coding_gain,
    optimal_exponent,
    random_coding_exponent,
    singleton_bound,
)
from .bound import BoundResult, ChannelSpec, outage_lower_bound, outage_lower_bounds
from .constellation import Constellation, from_name, make_psk, make_qam
from .fading import NakagamiParam, gain_block
from .montecarlo import McEstimate, mc_lower_bound, mc_lower_bounds, mc_outage, mc_outages
from .mutual_info import QuadratureRule, Snr, hermite_rule, mi_discrete_array
