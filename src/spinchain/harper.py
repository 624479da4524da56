"""Kicked-Harper chain: discrete-time hopping with a periodically kicked potential.

A single spinless particle hops on a chain of N sites; every tau units of time
the site potential g*cos(2*pi*j*eta/N) acts as an instantaneous kick.  One
period of the dynamics is the Floquet step U = exp(-i*tau*T) * D, where T is
the hopping matrix and D the diagonal kick phases, applied to states sampled
just after each kick.  A qubit (alpha, beta) is encoded exactly as in the
spin chain: alpha|vacuum> + beta|particle at site 1>.  The vacuum carries no
dynamics, so the whole evolution - including a projective occupation
measurement of site m after n0 kicks - reduces to N-dimensional linear
algebra in the one-particle sector.

The kick-strength/kick-interval plane interpolates between transport that is
ballistic (small g, small tau), localized (large g), and effectively
instantaneous across the chain (tau near 1), which the detector profile
f_l = occupation difference with/without the measurement makes visible.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chain import Boundary, InitialState
from .green1 import free_propagator
from .protocols import _bloch_from_quadratic, _fidelity_row

__all__ = [
    "HarperSpec",
    "HarperQdpResult",
    "hopping_matrix",
    "kick_phases",
    "floquet_step",
    "kicked_amplitudes",
    "propagate",
    "free_occupation_profile",
    "fidelity_from_amplitudes",
    "fidelity_free_kicked",
    "qdp_readouts",
    "qdp_and_detect",
    "spread_metric",
]


@dataclass(frozen=True)
class HarperSpec:
    """Kicked-chain parameters: size, kick strength, commensuration, interval.

    ``eta`` controls whether the potential cos(2*pi*j*eta/N) is commensurate
    with the lattice; the default sqrt(2) is incommensurate.  ``tau`` is both
    the kick interval and the hop duration per period.
    """

    n: int
    g: float
    tau: float
    eta: float = math.sqrt(2.0)
    boundary: Boundary = "open"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got {self.n}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"kick interval tau must be > 0, got {self.tau}")
        if not (math.isfinite(self.g) and math.isfinite(self.eta)):
            raise ValueError(f"g and eta must be finite, got g = {self.g}, eta = {self.eta}")
        # the kick phase tau*g*cos(2*pi*j*eta/n) must not overflow on its way
        if not math.isfinite(self.tau * self.g):
            raise ValueError(f"tau * g must be finite, got tau = {self.tau}, g = {self.g}")
        if not math.isfinite(2.0 * math.pi * self.n * self.eta):
            raise ValueError(f"2*pi*n*eta must be finite, got n = {self.n}, eta = {self.eta}")
        if self.boundary not in ("open", "closed"):
            raise ValueError(f"unknown boundary {self.boundary!r}")


def hopping_matrix(spec: HarperSpec) -> np.ndarray:
    """Real symmetric nearest-neighbour hopping matrix (+1 on each bond)."""
    t = np.zeros((spec.n, spec.n))
    idx = np.arange(spec.n - 1)
    t[idx, idx + 1] = 1.0
    t[idx + 1, idx] = 1.0
    if spec.boundary == "closed":
        t[0, spec.n - 1] += 1.0
        t[spec.n - 1, 0] += 1.0
    return t


def kick_phases(spec: HarperSpec) -> np.ndarray:
    """Diagonal kick factor exp(-i*tau*g*cos(2*pi*j*eta/N)), sites j = 1..N."""
    j = np.arange(1, spec.n + 1)
    return np.exp(-1j * spec.tau * spec.g * np.cos(2.0 * np.pi * j * spec.eta / spec.n))


def floquet_step(spec: HarperSpec) -> np.ndarray:
    """One-period unitary: hop factor times diagonal kick phases (kick acts first).

    The hop factor exp(-i*tau*T) is the free propagator at z = -2*tau, since
    the hopping matrix T has eigenvalues 2*cos p.
    """
    sites = np.arange(1, spec.n + 1)[np.newaxis, :]
    hop = free_propagator(spec.n, spec.boundary, -2.0 * spec.tau, sites)
    return hop * kick_phases(spec)[np.newaxis, :]


def kicked_amplitudes(spec: HarperSpec, *seeds: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The seed vectors after 0, 1, 2, ... periods, each stepped once per kick.

    The Floquet step is built once per call; every yield is a tuple holding
    one evolved vector per seed.
    """
    step = floquet_step(spec)
    vectors = seeds
    while True:
        yield vectors
        vectors = tuple(step @ v for v in vectors)


def _after_kicks(spec: HarperSpec, n_kicks: int, *seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    if n_kicks < 0:
        raise ValueError(f"kick count must be >= 0, got {n_kicks}")
    return next(itertools.islice(kicked_amplitudes(spec, *seeds), n_kicks, None))


def _site_one(spec: HarperSpec, amplitude: complex = 1.0) -> np.ndarray:
    psi = np.zeros(spec.n, dtype=complex)
    psi[0] = amplitude
    return psi


def propagate(spec: HarperSpec, n_kicks: int, initial: InitialState) -> tuple[complex, np.ndarray]:
    """Evolve the encoded state through n_kicks periods.

    Returns (vacuum amplitude, one-particle amplitude vector).  The vacuum
    amplitude is constant: the kick potential and the hopping both annihilate
    the empty chain.
    """
    (psi,) = _after_kicks(spec, n_kicks, _site_one(spec, initial.beta))
    return complex(initial.alpha), psi


def free_occupation_profile(spec: HarperSpec, n_kicks: int, initial: InitialState) -> np.ndarray:
    """Site-occupation expectation values after n_kicks periods, no interruption."""
    _, psi = propagate(spec, n_kicks, initial)
    return np.abs(psi) ** 2


def fidelity_from_amplitudes(u: np.ndarray, initial: InitialState | None = None) -> np.ndarray:
    """Transfer fidelity per site from the unit-seed amplitudes u (particle released at site 1).

    Without ``initial``: the analytic Bloch-sphere average
    1/2 + |u_l|^2/6 + Re(u_l)/3.  With it: the per-state fidelity of (alpha, beta).
    """
    return _fidelity_row(np.abs(u) ** 2, u, initial)


def fidelity_free_kicked(spec: HarperSpec, n_kicks: int, initial: InitialState | None = None) -> np.ndarray:
    """Transfer fidelity per site after n_kicks periods, no interruption."""
    (u,) = _after_kicks(spec, n_kicks, _site_one(spec))
    return fidelity_from_amplitudes(u, initial)


@dataclass(frozen=True)
class HarperQdpResult:
    """Per-site readout after a site-m occupation measurement at kick n0.

    ``occupation`` and ``coherence`` are the interrupted RDM elements, rows of
    the measured-then-evolved density matrix; ``detector`` is the occupation
    difference against the uninterrupted run (sums to zero: the measurement
    preserves the total particle-number expectation); ``fidelity`` is the
    Bloch-sphere-averaged transfer fidelity.
    """

    occupation: np.ndarray
    coherence: np.ndarray
    detector: np.ndarray
    fidelity: np.ndarray
    free_occupation: np.ndarray
    m: int
    n0: int
    n: int

    def __post_init__(self) -> None:
        total = float(np.sum(self.detector))
        # written as "not within" so that NaN, which compares False, fails too
        if not abs(total) <= 1e-9:
            raise ValueError(f"detector profile must sum to 0, got {total:.3e}")


def qdp_readouts(spec: HarperSpec, m: int, n0: int, initial: InitialState) -> Iterator[HarperQdpResult]:
    """Readouts after kicks n0, n0 + 1, ... of a site-m occupation measurement at kick n0.

    The measurement splits the evolution into a survive branch (amplitude at m
    removed, vacuum component retained) and a collapse branch (the amplitude
    found at m, re-released from m); both branches evolve freely after kick
    n0 and are summed incoherently.  Each branch, and the uninterrupted run,
    is stepped once per kick.
    """
    if not 1 <= m <= spec.n:
        raise ValueError(f"measurement site m = {m} outside 1..{spec.n}")
    alpha, beta = complex(initial.alpha), complex(initial.beta)

    (u_mid,) = _after_kicks(spec, n0, _site_one(spec))
    survive_seed = u_mid.copy()
    survive_seed[m - 1] = 0.0
    collapse_seed = np.zeros(spec.n, dtype=complex)
    collapse_seed[m - 1] = u_mid[m - 1]
    kicks = kicked_amplitudes(spec, survive_seed, collapse_seed, u_mid)
    for n, (h, k, u_free) in enumerate(kicks, start=n0):
        abs2 = np.abs(h) ** 2 + np.abs(k) ** 2
        occupation = abs(beta) ** 2 * abs2
        free_occ = abs(beta) ** 2 * np.abs(u_free) ** 2
        yield HarperQdpResult(
            occupation=occupation,
            coherence=alpha * np.conj(beta) * np.conj(h),
            detector=occupation - free_occ,
            fidelity=_bloch_from_quadratic(abs2, h.real),
            free_occupation=free_occ,
            m=m,
            n0=n0,
            n=n,
        )


def qdp_and_detect(
    spec: HarperSpec,
    m: int,
    n0: int,
    n: int,
    initial: InitialState,
) -> HarperQdpResult:
    """Measure the occupation of site m after n0 kicks, read out after n kicks."""
    if not 0 <= n0 <= n:
        raise ValueError(f"need 0 <= n0 <= n, got n0 = {n0}, n = {n}")
    return next(itertools.islice(qdp_readouts(spec, m, n0, initial), n - n0, None))


def spread_metric(profile: np.ndarray) -> float:
    """Participation width (sum p)^2 / sum p^2 of a non-negative profile.

    A delta profile gives 1, a uniform profile over N sites gives N.
    """
    p = np.asarray(profile, dtype=float)
    if p.size == 0 or np.any(p < -1e-12):
        raise ValueError("profile must be non-negative and non-empty")
    total = float(p.sum())
    if total <= 0.0:
        raise ValueError("profile sums to zero; width undefined")
    return float(total * total / np.sum(p * p))
