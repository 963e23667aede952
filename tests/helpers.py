"""Helpers shared by the test modules."""

import numpy as np

from nakfade.bound import DEFAULT_CELLS, outage_lower_bounds
from nakfade.fading import CHUNK, gain_block


def gain_rows(p, seed, n, width=1):
    """The first n rows of a gain stream: its chunks' rows in chunk order, as the Monte Carlo estimators draw them."""
    return np.concatenate([gain_block(p, seed, c, min(CHUNK, n - c * CHUNK), width) for c in range(-(-n // CHUNK))])


def bound_at(snr, spec, n_cells=DEFAULT_CELLS):
    """The outage lower bound at one SNR and spec's rate, from the grid evaluator."""
    return outage_lower_bounds([snr], spec.B, spec.M, spec.fading, [spec.rate], n_cells)[0][0]
