"""One-magnon propagators G^{x'}_x(t) = <x'| e^{-iHt} |x> on open and closed chains.

One route: ``free_propagator`` takes a single inverse FFT of exp(i*z*cos p)
over the momenta of a ring and reads the row off it.  A closed chain of N
sites is that ring; an open chain of N sites is the antisymmetric part of a
ring of 2(N+1) sites (the method of images in spectral form).  Both are exact
for every N and t.

Open chains of ``HALF_INFINITE_MIN_N`` or more sites are modelled as
half-infinite: their rows come from an open chain long enough that no front
comes back from its far end, and only the first N entries are kept.

``reduced_hop_amplitudes`` gives the boundary-free i^n J_n(4Jt) hops, an
independent reference for the spectral rows before any front returns.

"Reduced" quantities carry the convenience phase e^{+i*eps0*t}, i.e. energies
are measured from the fully polarized reference state; full amplitudes restore
e^{-i*eps0*t}.
"""
from __future__ import annotations

import numpy as np

from .bessel import MAX_ARG, bessel_j_sequence, truncation_order
from .chain import Boundary, ChainSpec

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

#: Open chains at least this large are modelled as half-infinite (see the module docstring).
HALF_INFINITE_MIN_N = 100


def reduced_hop_amplitudes(offsets: np.ndarray | list[int], z: float) -> np.ndarray:
    """i^n J_n(z) for integer lattice offsets n (vectorized, either sign).

    This is the boundary-free one-magnon propagator with the reference-state
    phase removed: <x+n| e^{-iHt} |x> * e^{+i*eps0*t} at z = 4*J*t.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    magnitudes = np.abs(offsets)
    seq = bessel_j_sequence(int(magnitudes.max(initial=0)), z)
    values = seq[magnitudes]
    phases = _I_POW[offsets % 4]
    signs = np.where((offsets < 0) & (magnitudes % 2 == 1), -1.0, 1.0)
    return phases * signs * values


def free_propagator(n: int, boundary: Boundary, z: float, sources) -> np.ndarray:
    """<x'| exp(i*z*T/2) |x> for every target x' = 1..n, T the unit hopping matrix.

    ``sources`` is one site (a row of length n) or a (1, n) array of sites
    (the n x n matrix, targets down the rows).  At z = 4*J*t this is the
    reduced one-magnon propagator; at z = -2*tau it is exp(-i*tau*T).
    """
    m = n if boundary == "closed" else 2 * (n + 1)
    g = np.fft.ifft(np.exp(1j * z * np.cos(2.0 * np.pi * np.arange(m) / m)))
    sources = np.asarray(sources)
    targets = np.arange(1, n + 1)
    if sources.ndim:
        targets = targets[:, np.newaxis]
    if boundary == "closed":
        return g[(targets - sources) % m]
    return g[targets - sources] - g[targets + sources]


def _check_site(x: int, spec: ChainSpec, name: str) -> None:
    if not 1 <= x <= spec.n:
        raise ValueError(f"site {name}={x} out of range 1..{spec.n}")


def reduced_profile(x: int, t: float, spec: ChainSpec) -> np.ndarray:
    """e^{+i*eps0*t} G^{x'}_x(t) for every target x' = 1..N, as an array of length N."""
    _check_site(x, spec, "x")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    z = 4.0 * spec.j * t
    if not z <= MAX_ARG:
        raise ValueError(f"4*J*t must be <= {MAX_ARG}, got {z}")
    width = spec.n
    if spec.boundary == "open" and spec.n >= HALF_INFINITE_MIN_N:
        width += truncation_order(z)
    return free_propagator(width, spec.boundary, z, x)[: spec.n]
