"""Core conventions and configuration records for the spin-chain library.

Every sign and normalization choice that downstream modules (propagators,
fidelity protocols, the brute-force cross-check) must agree on is fixed here,
in ``CONVENTIONS``, and fingerprinted by ``conventions_hash`` so that golden
files and CLI sidecars can detect a convention drift.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Literal

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


_NORM_TOL = 1e-12


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


@dataclass(frozen=True)
class LocalGate:
    """The local unitary gate V applied at site ``m`` at time ``t0``.

    ``V|up> = gamma|up> + delta|down>``, ``V|down> = -conj(delta)|up> + gamma|down>``.
    Unitarity of V forces gamma to be real whenever delta != 0. gamma and
    delta are stored as complex numbers.
    """

    m: int
    t0: float
    gamma: complex
    delta: complex

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"site index m must be >= 1, got {self.m}")
        if not (self.t0 >= 0.0 and math.isfinite(self.t0)):
            raise ValueError(f"t0 must be finite and >= 0, got {self.t0}")
        gamma, delta = complex(self.gamma), complex(self.delta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        norm = abs(gamma) * abs(gamma) + abs(delta) * abs(delta)  # inf, not OverflowError
        if not abs(norm - 1.0) <= _NORM_TOL * 10:  # NaN fails this test too
            raise ValueError(f"|gamma|^2 + |delta|^2 must be 1, got {norm}")
        if abs(delta) > _NORM_TOL and abs(gamma.imag) > 1e-9:
            raise ValueError(
                "gamma must be real for the gate to be unitary "
                f"(got Im(gamma) = {gamma.imag})"
            )


def reduced_phase(spec: ChainSpec, t: float) -> complex:
    """Global phase e^{-i eps0 t} carried by every amplitude on the chain."""
    return cmath.exp(-1j * spec.ground_energy * t)
