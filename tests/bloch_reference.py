"""Reference Bloch-sphere average for the tests: a quadrature over encoded states.

The library averages its fidelities over the Bloch sphere through the exact
sphere moments 1/2, 1/6 and 1/3. This module integrates any per-state
fidelity numerically, so the tests can hold those closed forms to it.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np


def bloch_average(fidelity: Callable[[complex, complex], float]) -> float | np.ndarray:
    """Average a per-state fidelity over the Bloch sphere of (alpha, beta), elementwise for arrays.

    Exact for integrands that are polynomials of degree <= 4 in the state
    amplitudes (every fidelity in this library is): 5-node Gauss-Legendre in
    cos(theta) times an 8-node uniform rule in phi.
    """
    nodes, weights = np.polynomial.legendre.leggauss(5)
    total = 0.0
    for c, w in zip(nodes, weights):
        alpha = math.sqrt((1.0 + c) / 2.0)
        sin_half = math.sqrt((1.0 - c) / 2.0)
        for k in range(8):
            phi = 2.0 * math.pi * k / 8.0
            beta = sin_half * complex(math.cos(phi), math.sin(phi))
            total += (w / 2.0) * (1.0 / 8.0) * fidelity(alpha, beta)
    return total if isinstance(total, np.ndarray) else float(total)
