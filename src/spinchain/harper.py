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

``KickedChain`` is the kicked dynamics in the form the protocols read:
``rows(source, kicks)`` yields the vector released at a site, after each of
the requested kicks, in (kicks x N) blocks of the protocols' block rule.
The Floquet step is built once per chain, and each kick is one matvec of
the vector before it, so the numbers do not depend on the block size.  The
protocols' readouts then act on the kicked rows as on the spin chain's:
``protocols.fidelity_from_amplitudes`` for a free run, and
``protocols.measured`` with its readouts for a measurement after kick n0.

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
from .chain import Boundary
from .green1 import free_propagator
from .protocols import _blocks

#: Largest chain: the dense n x n complex Floquet step is then 64 MB.
MAX_N = 2048


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


class KickedChain:
    """The kicked dynamics: the one-particle vector from a source site after any kicks."""

    def __init__(self, spec: HarperSpec):
        self.n = spec.n
        self.step = floquet_step(spec)

    def rows(self, source: int, kicks) -> Iterator[np.ndarray]:
        """Blocks of the vector released at ``source`` after each of the ascending ``kicks``.

        The unit vector at ``source`` is stepped from kick 0, one matvec per
        kick, and stored at each requested kick, so no kick past the last
        one is stepped.
        """
        if not 1 <= source <= self.n:
            raise ValueError(f"source site {source} outside 1..{self.n}")
        v = np.zeros(self.n, dtype=complex)
        v[source - 1] = 1.0
        at = 0
        for chunk in _blocks(kicks, self.n):
            block = np.empty((len(chunk), self.n), dtype=complex)
            for row, kick in zip(block, chunk):
                if kick < at:
                    raise ValueError(f"kicks must ascend from 0, got {kick} after {at}")
                for _ in range(at + 1, kick):
                    v = self.step @ v
                if kick > at:
                    np.matmul(self.step, v, out=row)
                else:
                    row[:] = v
                v, at = row, kick
            yield block


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
