"""Reference modes of the ring two-magnon kernel, from one dense array and one eigh.

``green2.RingTwoMagnon`` builds the modes of its sector blocks from their
Bethe-ansatz roots and never forms a block. This module is the independent
judge the tests hold that build to, at a tolerance: every block filled into
one (floor(N/2) + 1, floor(N/2), floor(N/2)) array and diagonalized by a
single batched ``np.linalg.eigh``.
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
