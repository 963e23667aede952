"""Helpers shared by the test modules."""

import numpy as np

from nakfade.fading import CHUNK, gain_block


def gain_rows(p, seed, n, width=1):
    """The first n rows of a gain stream: its chunks' rows in chunk order, as the Monte Carlo estimators draw them."""
    return np.concatenate([gain_block(p, seed, c, min(CHUNK, n - c * CHUNK), width) for c in range(-(-n // CHUNK))])
