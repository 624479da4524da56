"""Reference kicked-chain step for the tests: the dense hop by ``eigh``, then the kicks.

``harper.floquet_step`` builds the hop factor exp(-i*tau*T) from the free
propagator's FFT. This module builds it from the hopping matrix itself, so
the tests can hold the library's step and the CLI's kicked grids to it.
"""
from __future__ import annotations

import numpy as np


def hopping_matrix(spec) -> np.ndarray:
    """Dense reference of the hop: real symmetric nearest-neighbour matrix, +1 on each bond."""
    t = np.zeros((spec.n, spec.n))
    idx = np.arange(spec.n - 1)
    t[idx, idx + 1] = 1.0
    t[idx + 1, idx] = 1.0
    if spec.boundary == "closed":
        t[0, spec.n - 1] += 1.0
        t[spec.n - 1, 0] += 1.0
    return t


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) of a Hermitian h, through its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


def dense_step(spec) -> np.ndarray:
    """One kick period: the kick phases exp(-i*tau*g*cos(2*pi*j*eta/N)) first, then the hop."""
    j = np.arange(1, spec.n + 1)
    kick = np.exp(-1j * spec.tau * spec.g * np.cos(2.0 * np.pi * j * spec.eta / spec.n))
    return expm_hermitian(hopping_matrix(spec), -1j * spec.tau) * kick[np.newaxis, :]
