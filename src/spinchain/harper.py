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

Every readout is a finite stream of blocks of consecutive kicks:
``kicked_amplitudes`` yields, per seed, a (rows, N) array of the vectors
after kicks 0, 1, 2, ... up to a last kick, and ``qdp_readouts`` yields the
measured run's readout for one such block of kicks from the measurement on.
A block holds ``max(1, _BLOCK_CELLS // N)`` kicks, so every numpy call after
the step itself reads a whole block; each row is still one matvec of its
predecessor, so the numbers do not depend on the block size.  The measured
run is read as the spin chain's is: the free row g and the collapse row k,
both stepped, go through ``protocols._projective_parts`` (survive row
h = g - k) and then ``protocols._rdm_row`` / ``_fidelity_row``; a free run's
block is read by ``protocols.fidelity_from_amplitudes``, the spin chain's
free readout.

The kick-strength/kick-interval plane interpolates between transport that is
ballistic (small g, small tau), localized (large g), and effectively
instantaneous across the chain (tau near 1), which the detector profile
f_l = occupation difference with/without the measurement makes visible.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ARG
from .chain import Boundary, InitialState
from .green1 import free_propagator
from .protocols import _fidelity_row, _projective_parts, _rdm_row

#: Largest chain: the dense n x n complex Floquet step is then 64 MB.
MAX_N = 2048
#: Cells (kicks x sites) of one block of ``kicked_amplitudes``: a block
#: holds max(1, _BLOCK_CELLS // N) consecutive kicks of each seed.
_BLOCK_CELLS = 8192


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
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"need 2 <= n <= {MAX_N} sites, got n = {self.n}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"kick interval tau must be > 0, got {self.tau}")
        if not (math.isfinite(self.g) and math.isfinite(self.eta)):
            raise ValueError(f"g and eta must be finite, got g = {self.g}, eta = {self.eta}")
        # the kick phase tau*g*cos(2*pi*j*eta/n) must not overflow on its way
        if not math.isfinite(self.tau * self.g):
            raise ValueError(f"tau * g must be finite, got tau = {self.tau}, g = {self.g}")
        if not math.isfinite(2.0 * math.pi * self.n * self.eta):
            raise ValueError(f"2*pi*n*eta must be finite, got n = {self.n}, eta = {self.eta}")
        # the hop factor is free_propagator at z = -2*tau, whose phases round past MAX_ARG
        if 2.0 * self.tau > MAX_ARG:
            raise ValueError(f"2*tau must be <= {MAX_ARG}, got tau = {self.tau}")
        if self.boundary not in ("open", "closed"):
            raise ValueError(f"unknown boundary {self.boundary!r}")


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


def kicked_amplitudes(
    spec: HarperSpec, *seeds: np.ndarray, kicks: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """The seed vectors after kicks 0, 1, ..., ``kicks``, in blocks of consecutive kicks.

    Every yield is a tuple holding one (rows, N) array per seed, row i the
    vector after the block's i-th kick; the blocks have
    max(1, _BLOCK_CELLS // N) rows, the last one fewer, so no kick past
    ``kicks`` is stepped.  The Floquet step is built once per call, and each
    row is one matvec of the row before it.
    """
    if kicks < 0:
        raise ValueError(f"kick count must be >= 0, got {kicks}")
    step = floquet_step(spec)
    rows = max(1, _BLOCK_CELLS // spec.n)
    vectors = seeds
    for start in range(0, kicks + 1, rows):
        count = min(rows, kicks + 1 - start)
        blocks = tuple(np.empty((count, spec.n), dtype=complex) for _ in seeds)
        for block, v in zip(blocks, vectors):
            if start:
                np.matmul(step, v, out=block[0])
            else:
                block[0] = v
            for i in range(1, count):
                np.matmul(step, block[i - 1], out=block[i])
        vectors = tuple(block[-1] for block in blocks)
        yield blocks


@dataclass(frozen=True, eq=False)
class HarperQdpResult:
    """Per-site readout of a block of kicks after a site-m occupation measurement at kick n0.

    Every array has one row per kick of the block, ``n`` holding the kick
    indices.  ``occupation`` and ``coherence`` are the interrupted RDM rows
    (x, y) of the measured-then-evolved density matrix, read off the free and
    collapse rows by ``protocols._projective_parts`` and
    ``protocols._rdm_row``, in the latter's orientation
    y = <flipped|rho|unflipped>; ``detector`` is the occupation difference
    against the uninterrupted run (each row sums to zero: the measurement
    preserves the total particle-number expectation); ``fidelity`` is the
    Bloch-sphere-averaged transfer fidelity.
    """

    occupation: np.ndarray
    coherence: np.ndarray
    detector: np.ndarray
    fidelity: np.ndarray
    free_occupation: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        worst = float(np.max(np.abs(np.sum(self.detector, axis=1))))
        # written as "not within" so that NaN, which compares False, fails too
        if not worst <= 1e-9:
            raise ValueError(f"detector profile must sum to 0, got |sum| = {worst:.3e}")


def qdp_readouts(
    spec: HarperSpec, m: int, n0: int, initial: InitialState, *, kicks: int
) -> Iterator[HarperQdpResult]:
    """Readouts after kicks n0, n0 + 1, ..., ``kicks`` of a site-m measurement at kick n0.

    One ``HarperQdpResult`` per block of ``kicked_amplitudes``.  Two rows are
    stepped once per kick from kick n0: the free row g, the run from site 1
    carried on past the measurement, and the row released from site m at
    kick n0.  The collapse row is k = u(n0)[m] times the latter, the survive
    row h = g - k, and ``protocols._projective_parts`` sums the two branches
    incoherently, as it does for the spin chain.
    """
    if not 1 <= m <= spec.n:
        raise ValueError(f"measurement site m = {m} outside 1..{spec.n}")
    if not 0 <= n0 <= kicks:
        raise ValueError(f"need 0 <= n0 <= kicks, got n0 = {n0}, kicks = {kicks}")

    seed = np.zeros(spec.n, dtype=complex)
    seed[0] = 1.0
    for (before,) in kicked_amplitudes(spec, seed, kicks=n0):
        pass
    u_mid = before[-1]
    released = np.zeros(spec.n, dtype=complex)
    released[m - 1] = 1.0
    start = n0
    for g, g_m in kicked_amplitudes(spec, u_mid, released, kicks=kicks - n0):
        weight, h = _projective_parts(g, u_mid[m - 1] * g_m)
        occupation, coherence = _rdm_row(weight, h, initial)
        free_occ = abs(initial.beta) ** 2 * np.abs(g) ** 2
        yield HarperQdpResult(
            occupation=occupation,
            coherence=coherence,
            detector=occupation - free_occ,
            fidelity=_fidelity_row(weight, h, None),
            free_occupation=free_occ,
            n=np.arange(start, start + len(g)),
        )
        start += len(g)


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
