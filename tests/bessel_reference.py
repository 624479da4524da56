"""Reference Bessel functions J_n(y) and boundary-free hops i^n J_n(z) for the tests.

The package takes every one-magnon amplitude from one inverse FFT
(``green1.free_propagator``). This module is the independent route the tests
judge it by: Miller's downward recurrence normalized with
J_0 + 2*sum J_2k = 1 for oscillatory arguments, and the ascending power
series where it converges rapidly. Domain |order| <= 1e5,
0 <= y <= ``bessel.MAX_ARG``. Relative error ~1e-14 for y <= 1e3, degrading
to ~1e-11 at the extreme corner y = 1e5 from rounding accumulated over the
recurrence; values below the underflow threshold come back as exact 0.
"""
from __future__ import annotations

import math

import numpy as np

from spinchain.bessel import MAX_ARG, truncation_order

MAX_ORDER = 100_000

_RESCALE = 1e250

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def _series(order: int, y: float, max_terms: int = 80) -> float:
    """Ascending power series; caller guarantees (y/2)^2 << order + 1."""
    half = 0.5 * y
    if half == 0.0:
        return 1.0 if order == 0 else 0.0
    if order <= 140:
        lead = half**order / math.factorial(order)
    else:
        # order! overflows double precision beyond 170!; go through logs
        log_lead = order * math.log(half) - math.lgamma(order + 1.0)
        lead = math.exp(log_lead) if log_lead > -745.0 else 0.0
    if lead == 0.0:
        return 0.0
    total = 0.0
    term = 1.0
    for k in range(max_terms):
        if k > 0:
            term *= -(half * half) / (k * (order + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return lead * total


def _series_applies(order: int, y: float) -> bool:
    return 0.25 * y * y < 0.1 * (order + 1)


def start_order(max_order: int, y: float) -> int:
    """Safe starting index for the downward recurrence (even, above the turning point)."""
    base = max(max_order, int(math.ceil(y)))
    k = base + 40 + 10 * int(math.ceil(base ** (1.0 / 3.0)))
    return k + (k % 2)


def _check_domain(y: float) -> None:
    if not (math.isfinite(y) and 0.0 <= y <= MAX_ARG):
        raise ValueError(f"argument must satisfy 0 <= y <= {MAX_ARG}, got {y}")


def bessel_j_sequence(max_order: int, y: float) -> np.ndarray:
    """All of J_0(y) .. J_max_order(y) in one normalized downward recurrence."""
    _check_domain(y)
    if not (0 <= max_order <= MAX_ORDER):
        raise ValueError(f"max_order must be in [0, {MAX_ORDER}], got {max_order}")
    if _series_applies(0, y):
        # Small argument: the series is monotone (term ratio < 0.1) for every
        # order at once, so no cancellation anywhere in the sequence.
        return np.array([_series(n, y) for n in range(max_order + 1)])

    k_start = start_order(max_order, y)
    stored = np.zeros(max_order + 1)
    stored_rescales = np.zeros(max_order + 1, dtype=np.int64)

    f_hi = 0.0  # f_{k+1}
    f = 1e-30  # f_k
    rescales = 0
    norm = 0.0
    comp = 0.0  # Kahan compensation for the normalization sum
    two_over_y = 2.0 / y
    for k in range(k_start, -1, -1):
        if k <= max_order:
            stored[k] = f
            stored_rescales[k] = rescales
        if k % 2 == 0:
            term = (f if k == 0 else 2.0 * f) - comp
            fresh = norm + term
            comp = (fresh - norm) - term
            norm = fresh
        f_lo = k * two_over_y * f - f_hi
        f_hi, f = f, f_lo
        if abs(f) > _RESCALE:
            f /= _RESCALE
            f_hi /= _RESCALE
            norm /= _RESCALE
            comp /= _RESCALE
            rescales += 1

    values = stored / norm
    lag = stored_rescales - rescales  # <= 0; each unit is a factor 1e-250
    deep = lag < -1
    values[deep] = 0.0
    shallow = (lag == -1) & ~deep
    values[shallow] = values[shallow] / _RESCALE
    return values


def bessel_j(order: int, y: float) -> float:
    """J_order(y) for integer order; negative orders via J_{-n} = (-1)^n J_n."""
    if order != int(order):
        raise ValueError(f"order must be an integer, got {order}")
    order = int(order)
    if abs(order) > MAX_ORDER:
        raise ValueError(f"|order| must be <= {MAX_ORDER}, got {order}")
    sign = 1.0
    if order < 0:
        order = -order
        if order % 2 == 1:
            sign = -1.0
    _check_domain(y)
    if _series_applies(order, y):
        return sign * _series(order, y)
    if order > truncation_order(y, extra=60):
        return 0.0
    return sign * float(bessel_j_sequence(order, y)[order])


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
