"""Test-side references of the ring two-magnon kernel: its modes and its per-time step.

``green2.RingTwoMagnon`` builds the modes of its sector blocks from their
Bethe-ansatz roots and never forms a block. This module is the independent
judge the tests hold that build to, at a tolerance: every block filled into
one (floor(N/2) + 1, floor(N/2), floor(N/2)) array and diagonalized by a
single batched ``np.linalg.eigh``.

``evolve_by_scatter`` is the kernel's per-time step written the plain way:
phases by ``np.exp``, each (centre, separation) cell scattered into a zero
matrix and that matrix added to its transpose. ``evolve_projected`` must
equal it bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from spinchain.chain import ChainSpec

_BOUND_MARGIN = 1e-9


def ring_modes(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, dict, int]:
    """(evals, evecs, keep, bound_count) of the closed ring ``spec``, built in one array."""
    n, j = spec.n, spec.j
    r_full = n // 2
    b = np.arange(r_full + 1)
    cos_b = np.cos(math.pi * b / n)
    blocks = np.zeros((r_full + 1, r_full, r_full))
    rows = np.arange(1, r_full)
    blocks[:, rows, rows - 1] = (-4.0 * j * cos_b)[:, None]
    blocks[:, 0, 0] = -4.0 * j * spec.delta
    live = np.ones((r_full + 1, r_full), dtype=bool)
    if n % 2 == 0:
        odd = b % 2 == 1
        blocks[~odd, -1, -2] *= math.sqrt(2.0)
        blocks[odd, -1, -2] = 0.0
        blocks[odd, -1, -1] = 4.0 * j * (abs(spec.delta) + 4.0)
        live[odd, -1] = False
    else:
        blocks[:, -1, -1] += -4.0 * j * (-1.0) ** b * cos_b
    evals, evecs = np.linalg.eigh(blocks)
    bound = evals < (-8.0 * j * cos_b - _BOUND_MARGIN * 8.0 * j)[:, None]
    sectors_per_block = np.where((b == 0) | (2 * b == n), 1, 2)
    bound_count = int(np.sum(bound.sum(axis=1) * sectors_per_block))
    keep = {"total": live, "bound": bound, "scattering": live & ~bound}
    return evals, evecs, keep, bound_count


def evolve_by_scatter(ring, coeffs: np.ndarray, t: float, part: str = "total") -> np.ndarray:
    """``ring.evolve_projected(coeffs, t, part)`` through zeros and half + half.T."""
    n, blocks = len(ring._gauge), len(ring._evals)
    modes = coeffs * (np.exp(-1j * ring._evals * t) * ring._keep[part])[:, :, None]
    paired = (ring._evecs @ modes.view(float)).view(complex)
    sectors = np.concatenate((paired[:, :, 0], paired[n - blocks : 0 : -1, :, 1]))
    sectors *= np.conj(ring._gauge)
    back = np.fft.ifft(sectors, axis=0, norm="ortho") * ring._cell_weight
    half = np.zeros((n, n), dtype=complex)
    half[np.arange(n)[:, None], (np.arange(n)[:, None] + np.arange(1, n // 2 + 1)) % n] = back
    return half + half.T
