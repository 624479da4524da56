"""One-magnon propagators G^{x'}_x(t) = <x'| e^{-iHt} |x> on open and closed chains.

One route: ``free_propagator`` takes a single inverse FFT of exp(i*z*cos p)
over the momenta of a ring and reads the row off it; an array of z takes them
all along the last axis at once, so ``reduced_profile`` reads a block of times
in one call per ring width.  A closed chain of N sites is that ring; an open
chain of N sites is the antisymmetric part of a ring of 2(N+1) sites (the
method of images in spectral form).  Both are exact for every N and t.

Open chains of ``HALF_INFINITE_MIN_N`` or more sites are modelled as
half-infinite: their rows come from an open chain long enough that no front
comes back from its far end, and only the first N entries are kept.

"Reduced" quantities carry the convenience phase e^{+i*eps0*t}, i.e. energies
are measured from the fully polarized reference state; full amplitudes restore
e^{-i*eps0*t}.
"""
from __future__ import annotations

import itertools

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
    rows = (np.arange(len(z))[:, np.newaxis],) if isinstance(z, np.ndarray) else ()
    if rows:  # one row of g per z, each read from its own source
        z, sources = z[:, np.newaxis], sources[:, np.newaxis]
    elif sources.ndim:
        targets = targets[:, np.newaxis]
    g = np.fft.ifft(np.exp(1j * z * np.cos(2.0 * np.pi * np.arange(m) / m)))
    if boundary == "closed":
        return g[(*rows, (targets - sources) % m)]
    return g[(*rows, targets - sources)] - g[(*rows, targets + sources)]


def _check_site(x: int, spec: ChainSpec, name: str) -> None:
    if not 1 <= x <= spec.n:
        raise ValueError(f"site {name}={x} out of range 1..{spec.n}")


def propagator_argument(t, spec: ChainSpec):
    """z = 4*J*t of a time t or a 1-D array of times.

    ValueError at the first t < 0, NaN or z over ``MAX_ARG``."""
    z = 4.0 * spec.j * t
    ok = (t >= 0) & (z <= MAX_ARG)  # NaN fails both
    if not np.all(ok):
        t, z = (np.ravel(v)[np.argmin(ok)] for v in (t, z))
        raise ValueError(f"time must be >= 0, got {t}" if t < 0 else f"4*J*t must be <= {MAX_ARG}, got {z}")
    return z


def reduced_profile(x: int, t, spec: ChainSpec) -> np.ndarray:
    """Rows e^{+i*eps0*t} G^{x'}_x(t), x' = 1..N: one for a float t, a (len(t), N) block for a 1-D t.

    One ``free_propagator`` call per run of times that share a chain width, all of them off
    half-infinite chains; a lone time, a float t among them, takes the float call."""
    _check_site(x, spec, "x")
    times = np.asarray(t, dtype=float)
    z, start = np.atleast_1d(propagator_argument(times, spec)), 0
    half_infinite = spec.boundary == "open" and spec.n >= HALF_INFINITE_MIN_N
    widths = (spec.n + (truncation_order(v) if half_infinite else 0) for v in z.tolist())
    rows = np.empty((len(z), spec.n), dtype=complex)
    for width, group in itertools.groupby(widths):
        stop = start + len(list(group))
        lone = stop == start + 1  # the float call costs a lone time less
        row = free_propagator(width, spec.boundary, float(z[start]) if lone else z[start:stop],
                              x if lone else np.full(stop - start, x))
        rows[start:stop] = row[..., : spec.n]
        start = stop
    return rows if times.ndim else rows[0]
