"""One-magnon propagators G^{x'}_x(t) = <x'| e^{-iHt} |x> on open and closed chains.

Two routes with disjoint failure modes:

* ``momentum_sum`` — exact finite-N eigenmode sums (sine modes on open chains,
  plane waves on closed ones); authoritative for any N.
* ``bessel`` — boundary-free / half-infinite lattice forms built from i^n J_n(4Jt);
  O(1) per element and the right choice for large-N grids, valid while the
  wavefront (speed 4J) has not wrapped or reflected.

"Reduced" quantities carry the convenience phase e^{+i*eps0*t}, i.e. energies
are measured from the fully polarized reference state; full amplitudes restore
e^{-i*eps0*t}.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .bessel import bessel_j_sequence
from .chain import ChainSpec

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

#: Chains at least this large use the lattice Bessel forms by default.
AUTO_BESSEL_MIN_N = 100


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


@functools.lru_cache(maxsize=128)
def _open_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sine eigenmodes of the open chain: (modes[I-1, x-1], cos p_I)."""
    sites = np.arange(1, n + 1)
    p = math.pi * sites / (n + 1)
    modes = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(p, sites))
    return modes, np.cos(p)


@functools.lru_cache(maxsize=128)
def _closed_momenta(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def choose_method(spec: ChainSpec) -> str:
    """Default route: exact momentum sums for small N, Bessel forms for long chains."""
    return "bessel" if spec.n >= AUTO_BESSEL_MIN_N else "momentum_sum"


def _check_site(x: int, spec: ChainSpec, name: str) -> None:
    if not 1 <= x <= spec.n:
        raise ValueError(f"site {name}={x} out of range 1..{spec.n}")


def reduced_profile(x: int, t: float, spec: ChainSpec, method: str = "auto") -> np.ndarray:
    """e^{+i*eps0*t} G^{x'}_x(t) for every target x' = 1..N, as an array of length N."""
    _check_site(x, spec, "x")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if method == "auto":
        method = choose_method(spec)
    z = 4.0 * spec.j * t
    n = spec.n
    if method == "momentum_sum":
        if spec.boundary == "open":
            modes, cos_p = _open_modes(n)
            weighted = modes[:, x - 1] * np.exp(1j * z * cos_p)
            return modes.T @ weighted
        p = _closed_momenta(n)
        offsets = np.arange(1, n + 1) - x
        kernel = np.exp(1j * z * np.cos(p)) / n
        return np.exp(1j * np.outer(offsets, p)) @ kernel
    if method == "bessel":
        targets = np.arange(1, n + 1)
        direct = reduced_hop_amplitudes(targets - x, z)
        if spec.boundary == "open":
            return direct - reduced_hop_amplitudes(targets + x, z)
        # Ring targets are reachable both ways round; adjacent windings cover
        # every front that has not yet wrapped a full circumference.
        return (
            direct
            + reduced_hop_amplitudes(targets - x - n, z)
            + reduced_hop_amplitudes(targets - x + n, z)
        )
    raise ValueError(f"unknown method {method!r}")
