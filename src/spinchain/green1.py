"""One-magnon propagators G^{x'}_x(t) = <x'| e^{-iHt} |x> on open and closed chains.

One route: ``free_propagator`` takes a single inverse FFT of exp(i*z*cos p)
over the momenta of a ring and reads the row off it; an array of z takes
them all along the last axis at once, one row per z.  A closed chain of N
sites is that ring; an open chain of N sites is the antisymmetric part of a
ring of 2(N+1) sites (the method of images in spectral form).  Both are exact
for every N and t.

Open chains of ``HALF_INFINITE_MIN_N`` or more sites are modelled as
half-infinite: their rows come from an open chain long enough that no front
comes back from its far end, and only the first N entries are kept.

"Reduced" quantities carry the convenience phase e^{+i*eps0*t}, i.e. energies
are measured from the fully polarized reference state; full amplitudes restore
e^{-i*eps0*t}.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .bessel import MAX_ARG, truncation_order
from .chain import Boundary, ChainSpec

#: Open chains at least this large are modelled as half-infinite (see the module docstring).
HALF_INFINITE_MIN_N = 100


def free_propagator(n: int, boundary: Boundary, z, sources) -> np.ndarray:
    """<x'| exp(i*z*T/2) |x> for every target x' = 1..n, T the unit hopping matrix.

    For a float ``z``, ``sources`` is one site (a row of length n) or a (1, n)
    array of sites (the n x n matrix, targets down the rows).  For a 1-D
    array ``z``, ``sources`` holds one site per z: row r of the (len(z), n)
    result is the row of z[r] and sources[r], equal to the one that a call
    with the float z[r] gives.  At z = 4*J*t this is the reduced one-magnon
    propagator; at z = -2*tau it is exp(-i*tau*T).
    """
    m = n if boundary == "closed" else 2 * (n + 1)
    sources = np.asarray(sources)
    targets = np.arange(1, n + 1)
    batch = isinstance(z, np.ndarray)
    if batch:  # one row of g per z, each read from its own source
        z, sources = z[:, np.newaxis], sources[:, np.newaxis]
    elif sources.ndim:
        targets = targets[:, np.newaxis]
    g = np.fft.ifft(np.exp(1j * z * np.cos(2.0 * np.pi * np.arange(m) / m)))
    pick = partial(np.take_along_axis, g, axis=1) if batch else g.__getitem__
    if boundary == "closed":
        return pick((targets - sources) % m)
    return pick(targets - sources) - pick(targets + sources)


def _check_site(x: int, spec: ChainSpec, name: str) -> None:
    if not 1 <= x <= spec.n:
        raise ValueError(f"site {name}={x} out of range 1..{spec.n}")


def propagator_argument(t: float, spec: ChainSpec) -> float:
    """z = 4*J*t of a row at time t; ValueError for a negative t or a z over ``MAX_ARG``."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    z = 4.0 * spec.j * t
    if not z <= MAX_ARG:
        raise ValueError(f"4*J*t must be <= {MAX_ARG}, got {z}")
    return z


def reduced_profile(x: int, t: float, spec: ChainSpec) -> np.ndarray:
    """e^{+i*eps0*t} G^{x'}_x(t) for every target x' = 1..N, as an array of length N."""
    _check_site(x, spec, "x")
    z = propagator_argument(t, spec)
    width = spec.n
    if spec.boundary == "open" and spec.n >= HALF_INFINITE_MIN_N:
        width += truncation_order(z)
    return free_propagator(width, spec.boundary, z, x)[: spec.n]
