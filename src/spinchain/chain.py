"""Core conventions and configuration records for the spin-chain library.

Every sign and normalization choice that downstream modules (propagators,
fidelity protocols, the brute-force cross-check) must agree on is fixed here,
in ``CONVENTIONS``, and fingerprinted by ``conventions_hash`` so that golden
files and CLI sidecars can detect a convention drift.
"""
from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Boundary = Literal["open", "closed"]

#: Frozen statement of the physical conventions. Time evolution is exp(-iHt)
#: with hbar = 1; sites are 1-based; a "magnon" is a single flipped spin on the
#: fully polarized reference state.
CONVENTIONS: dict[str, str] = {
    "evolution": "exp(-i*H*t), hbar = 1, sites 1-based",
    "hamiltonian": (
        "H = -J*sum_bonds(sx*sx + sy*sy) - 4*J*Delta*sum_bonds(n_i*n_j)"
        " - J*n_bonds, n_i = (1 - sz_i)/2"
    ),
    "ground_energy": "-J*n_bonds (open: N-1 bonds, closed: N bonds), Delta-independent",
    "one_magnon_hopping": "-2*J per bond",
    "one_magnon_dispersion": "eps0 - 4*J*cos(p)",
    "open_modes": "sqrt(2/(N+1))*sin(p*x), p = pi*I/(N+1), I = 1..N",
    "closed_modes": "exp(i*p*x)/sqrt(N), p = 2*pi*I/N, I = 0..N-1",
    "bessel_argument": "z = 4*J*t",
    "free_propagator_phase": "i**n * J_n(z) per lattice offset n",
    "two_magnon_band_energy": "eps0 + 4*J*(Delta - cos p1) + 4*J*(Delta - cos p2)",
    "two_magnon_evolution_energy": "band energy - 8*J*Delta (polarized reference)",
    "qdp_time_convention": "at t == t0 the local process has already been applied",
    "gate": "V|up> = gamma|up> + delta|down>, V|down> = -conj(delta)|up> + gamma|down>, gamma real",
}


def conventions_hash() -> str:
    """Short fingerprint of ``CONVENTIONS`` (first 16 hex digits of SHA-256)."""
    blob = json.dumps(CONVENTIONS, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ChainSpec:
    """Static description of one chain: size, boundary, couplings.

    ``j`` is the overall energy scale (default 1/2 so the magnon front moves
    at speed 2); ``delta`` the interaction anisotropy.
    """

    n: int
    boundary: Boundary = "open"
    j: float = 0.5
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"chain needs at least one site, got n={self.n}")
        if self.boundary not in ("open", "closed"):
            raise ValueError(f"boundary must be 'open' or 'closed', got {self.boundary!r}")
        if not (self.j > 0 and math.isfinite(self.j)):
            raise ValueError(f"coupling j must be positive and finite, got {self.j}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        # the largest pair-kernel entry, 4*J*(|Delta| + 4), must not overflow
        if not math.isfinite(4.0 * self.j * (abs(self.delta) + 4.0)):
            raise ValueError(
                f"4*j*(|delta| + 4) must be finite, got j = {self.j}, delta = {self.delta}"
            )

    @property
    def n_bonds(self) -> int:
        """Number of nearest-neighbour bonds (open: N-1, closed: N)."""
        return self.n if self.boundary == "closed" else self.n - 1

    @property
    def ground_energy(self) -> float:
        """Energy of the fully polarized reference state: -J * n_bonds."""
        return -self.j * self.n_bonds


@dataclass(frozen=True)
class InitialState:
    """Qubit amplitudes (alpha, beta) encoded on the first site: alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        # abs(x) * abs(x) gives inf where abs(x) ** 2 would raise OverflowError
        norm = abs(self.alpha) * abs(self.alpha) + abs(self.beta) * abs(self.beta)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails this test too
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm}")


#: The projective measurement of a site: {diag(1, 0), diag(0, 1)}.
MEASUREMENT = (((1, 0), (0, 0)), ((0, 0), (0, 1)))


def gate(gamma: complex, delta: complex) -> tuple:
    """The Kraus set of ``CONVENTIONS``' gate V: one operator [[gamma, -conj(delta)], [delta, gamma]]."""
    return (((gamma, -complex(delta).conjugate()), (delta, gamma)),)


@dataclass(frozen=True, eq=False)
class LocalProcess:
    """A local instantaneous process at site ``m`` and time ``t0``, given by its Kraus operators.

    Each K = [[a, b], [c, d]] acts in the basis (unflipped, flipped) of site m:
    K|up> = a|up> + c|down>, K|down> = b|up> + d|down>. ``kraus`` is kept as a
    read-only complex (count, 2, 2) array; the set must be complete, sum K^dagger K = 1
    to 1e-11, which a flipping gate is only for a real gamma."""

    m: int
    t0: float
    kraus: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"site index m must be >= 1, got {self.m}")
        if not (self.t0 >= 0.0 and math.isfinite(self.t0)):
            raise ValueError(f"t0 must be finite and >= 0, got {self.t0}")
        kraus = np.array(self.kraus, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1:] != (2, 2) or not len(kraus):
            raise ValueError(f"need a set of 2 x 2 Kraus operators, got shape {kraus.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
            defect = np.max(np.abs(np.einsum("kij,kil->jl", kraus.conj(), kraus) - np.eye(2)))
        if not defect <= 1e-11:  # NaN fails this test too
            raise ValueError(
                "Kraus operators must satisfy sum K^dagger K = 1 (the gate: |gamma|^2 + |delta|^2"
                f" must be 1, gamma real), off by {defect:.3e}"
            )
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)

    @functools.cached_property
    def opens_pairs(self) -> bool:
        """Whether some operator flips an unflipped site m (c != 0): the pair channel."""
        return bool(np.any(self.kraus[:, 1, 0] != 0))

    @functools.cached_property
    def is_phase(self) -> bool:
        """Whether the process is one scalar multiple of the identity, a global phase."""
        k = self.kraus
        return len(k) == 1 and k[0, 0, 1] == k[0, 1, 0] == 0 and k[0, 0, 0] == k[0, 1, 1]


def reduced_phase(spec: ChainSpec, t: float) -> complex:
    """Global phase e^{-i eps0 t} carried by every amplitude on the chain."""
    return cmath.exp(-1j * spec.ground_energy * t)
