"""HOT04 fixture: numpy calls inside marked-hot functions."""

import numpy as np
from numpy import exp


class Window:
    def mean(self, values):  # repro-lint: hot
        return float(np.mean(values))  # HOT04: numpy call per sample

    def decay(self, dt):  # repro-lint: hot
        return exp(-dt)  # HOT04: from-imported numpy function

    def _decay_miss(self, dt):
        return float(np.exp(-dt))  # not hot: the cache-miss path may use numpy
