"""Brute-force cross-check machinery: dense Hamiltonians and exact evolution.

Everything in this module is built from raw bit and pair bookkeeping — never
from the analytic dispersion, Bessel, or Bethe formulas — so that the
analytic modules and this one form two genuinely independent routes to the
same numbers. Bases and what each supports:

* the full 2^N space (N <= 12): Hamiltonian, evolution, encoded states and
  site RDMs — the judge of the truncated combined basis;
* the single-excitation sector (N <= 2016): Hamiltonian, evolution and
  site projectors;
* the two-excitation sector (N <= 64): Hamiltonian, evolution and the
  bound-band projector;
* "vacuum_one_two", the vacuum plus both sectors (N <= 64): everything the
  protocols need — encoded states, site projectors, local gates and site
  RDMs.

An unread projective measurement is its two pure branches p0|psi> and
p1|psi>: evolution and the site RDM are linear in rho = sum of the branch
projectors, so RDM entries are summed over the separately evolved branches.
"""
from __future__ import annotations

import cmath
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .chain import ChainSpec, conventions_hash

Sector = Literal["full", "one_excitation", "two_excitation", "vacuum_one_two"]

MAX_FULL_N = 12
MAX_PAIR_N = 64
#: As large as the pair sector at MAX_PAIR_N: 2016 x 2016 doubles, 32 MB.
MAX_ONE_N = MAX_PAIR_N * (MAX_PAIR_N - 1) // 2


def _bonds(spec: ChainSpec) -> list[tuple[int, int]]:
    bonds = [(i, i + 1) for i in range(1, spec.n)]
    if spec.boundary == "closed":
        bonds.append((spec.n, 1))
    return bonds


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """Basis labels of the two-excitation sector: (i, j) with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True)
class SectorBasis:
    kind: Sector
    n: int
    dim: int
    pairs: tuple[tuple[int, int], ...] | None = None

    def pair_index(self, i: int, j: int) -> int:
        """Index of the (sorted) pair within this basis, including block offset."""
        if self.pairs is None:
            raise ValueError(f"basis {self.kind} has no pair block")
        i, j = (i, j) if i < j else (j, i)
        offset = 1 + self.n if self.kind == "vacuum_one_two" else 0
        # pairs are lexicographic: index = (i-1)*n - i*(i+1)/2 + j - 1
        return offset + (i - 1) * self.n - i * (i + 1) // 2 + j - 1


def make_basis(kind: Sector, n: int) -> SectorBasis:
    if kind == "full":
        return SectorBasis(kind, n, 1 << n)
    if kind == "one_excitation":
        return SectorBasis(kind, n, n)
    pairs = tuple(ordered_pairs(n))
    if kind == "two_excitation":
        return SectorBasis(kind, n, len(pairs), pairs)
    if kind == "vacuum_one_two":
        return SectorBasis(kind, n, 1 + n + len(pairs), pairs)
    raise ValueError(f"unknown sector {kind!r}")


@dataclass(frozen=True)
class DenseState:
    """Complex amplitude vector over a sector basis."""

    vector: np.ndarray
    basis: SectorBasis

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


class DenseHamiltonian:
    """Dense real-symmetric Hamiltonian on a sector basis, with cached eigendecomposition."""

    def __init__(self, matrix: np.ndarray, basis: SectorBasis):
        self.matrix = matrix
        self.basis = basis
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix)
            self._eig = (w, v)
        return self._eig


def _build_full(spec: ChainSpec) -> np.ndarray:
    n, j, delta = spec.n, spec.j, spec.delta
    dim = 1 << n
    states = np.arange(dim)
    bits = (states[:, None] >> np.arange(n)) & 1  # column s-1 is site s; 1 = flipped spin
    diag = np.full(dim, -j * spec.n_bonds, dtype=float)
    h = np.zeros((dim, dim))
    for a, b in _bonds(spec):
        occ_a = bits[:, a - 1]
        occ_b = bits[:, b - 1]
        diag += -4.0 * j * delta * (occ_a * occ_b)
        differ = occ_a != occ_b
        partners = states[differ] ^ ((1 << (a - 1)) | (1 << (b - 1)))
        np.add.at(h, (partners, states[differ]), -2.0 * j)
    h[np.diag_indices(dim)] += diag
    return h


def _build_one(spec: ChainSpec) -> np.ndarray:
    n, j = spec.n, spec.j
    h = np.zeros((n, n))
    for a, b in _bonds(spec):
        h[a - 1, b - 1] += -2.0 * j
        h[b - 1, a - 1] += -2.0 * j
    h[np.diag_indices(n)] += spec.ground_energy
    return h


def _build_two(spec: ChainSpec) -> np.ndarray:
    n, j, delta = spec.n, spec.j, spec.delta
    basis = make_basis("two_excitation", n)
    h = np.zeros((basis.dim, basis.dim))
    bonds = _bonds(spec)
    for k, (i1, i2) in enumerate(basis.pairs):
        h[k, k] = spec.ground_energy
        for a, b in bonds:
            if {a, b} == {i1, i2}:
                h[k, k] += -4.0 * j * delta
            for src, dst in ((a, b), (b, a)):
                if src in (i1, i2) and dst not in (i1, i2):
                    other = i2 if src == i1 else i1
                    h[basis.pair_index(dst, other), k] += -2.0 * j
    return h


def build_hamiltonian(spec: ChainSpec, sector: Sector) -> DenseHamiltonian:
    """Dense Hamiltonian of the requested sector; Hermitian, sector-preserving."""
    if sector == "full":
        if spec.n > MAX_FULL_N:
            raise ValueError(f"full space limited to N <= {MAX_FULL_N}, got {spec.n}")
        matrix = _build_full(spec)
    elif sector == "one_excitation":
        if spec.n > MAX_ONE_N:
            raise ValueError(f"one-excitation sector limited to N <= {MAX_ONE_N}, got {spec.n}")
        matrix = _build_one(spec)
    elif sector == "two_excitation":
        if spec.n > MAX_PAIR_N:
            raise ValueError(f"pair sector limited to N <= {MAX_PAIR_N}, got {spec.n}")
        matrix = _build_two(spec)
    elif sector == "vacuum_one_two":
        if spec.n > MAX_PAIR_N:
            raise ValueError(f"pair sector limited to N <= {MAX_PAIR_N}, got {spec.n}")
        h1 = _build_one(spec)
        h2 = _build_two(spec)
        dim = 1 + spec.n + h2.shape[0]
        matrix = np.zeros((dim, dim))
        matrix[0, 0] = spec.ground_energy
        matrix[1 : 1 + spec.n, 1 : 1 + spec.n] = h1
        matrix[1 + spec.n :, 1 + spec.n :] = h2
    else:
        raise ValueError(f"unknown sector {sector!r}")
    return DenseHamiltonian(matrix, make_basis(sector, spec.n))


def evolve(state: DenseState, ham: DenseHamiltonian, t: float) -> DenseState:
    """Exact e^{-iHt} |state> through the cached eigendecomposition."""
    w, v = ham.eig
    phases = np.exp(-1j * w * t)
    return DenseState(v @ (phases * (v.T @ state.vector)), state.basis)


def _flip_partners(basis: SectorBasis, m: int) -> tuple[np.ndarray, np.ndarray]:
    """vacuum_one_two indices (up, down) of the configurations with site m
    unflipped (the vacuum, a magnon at y != m) and of the same configurations
    with site m flipped (a magnon at m, the pair {y, m})."""
    others = [y for y in range(1, basis.n + 1) if y != m]
    return np.array([0] + others), np.array([m] + [basis.pair_index(y, m) for y in others])


def _site_flipped_mask(basis: SectorBasis, m: int) -> np.ndarray:
    """Boolean mask: basis elements in which site m carries a flipped spin."""
    if basis.kind == "one_excitation":
        return np.arange(1, basis.n + 1) == m
    if basis.kind == "vacuum_one_two":
        flip = np.zeros(basis.dim, dtype=bool)
        flip[_flip_partners(basis, m)[1]] = True
        return flip
    raise ValueError(f"site projectors need one_excitation or vacuum_one_two basis, got {basis.kind}")


def _check_site(m: int, basis: SectorBasis) -> None:
    if not 1 <= m <= basis.n:
        raise ValueError(f"site {m} out of range 1..{basis.n}")


def apply_local(op: str | tuple[complex, complex], m: int, state: DenseState) -> DenseState:
    """Apply a local projector ('p0' / 'p1') or gate (gamma, delta) at site m.

    A projector returns the unnormalized branch. Gate convention:
    V|up> = gamma|up> + delta|down>, V|down> = -conj(delta)|up> + gamma|down>,
    on the vacuum_one_two basis only. There V acts on each pair of
    configurations that differ only at site m; its delta branch out of a pair
    not containing m would need three flipped spins, so a gate raises when
    such amplitude would leak out of the basis.
    """
    basis, vec = state.basis, state.vector
    _check_site(m, basis)
    if isinstance(op, str):
        if op not in ("p0", "p1"):
            raise ValueError(f"projector must be 'p0' or 'p1', got {op!r}")
        mask = _site_flipped_mask(basis, m)
        keep = mask if op == "p1" else ~mask
        return DenseState(np.where(keep, vec, 0.0), basis)
    gamma, delta = complex(op[0]), complex(op[1])
    if abs(abs(gamma) ** 2 + abs(delta) ** 2 - 1.0) > 1e-10:
        raise ValueError("gate (gamma, delta) must satisfy |gamma|^2 + |delta|^2 = 1")
    if basis.kind != "vacuum_one_two":
        raise ValueError(f"gates need the vacuum_one_two basis, got {basis.kind}")
    up, down = _flip_partners(basis, m)
    pairs_without_m = ~_site_flipped_mask(basis, m)
    pairs_without_m[: 1 + basis.n] = False
    leak = abs(delta) ** 2 * float(np.sum(np.abs(vec[pairs_without_m]) ** 2))
    if leak > 1e-10:
        raise ValueError(
            f"gate at site {m} would move weight {leak:.3e} into the three-magnon "
            "sector, which this basis cannot represent"
        )
    out = gamma * vec
    out[up] = gamma * vec[up] - np.conj(delta) * vec[down]
    out[down] = delta * vec[up] + gamma * vec[down]
    return DenseState(out, basis)


def encoded_state(alpha: complex, beta: complex, basis: SectorBasis) -> DenseState:
    """alpha |all up> + beta |magnon at site 1> in the requested basis."""
    if basis.kind not in ("full", "vacuum_one_two"):
        raise ValueError(f"encoded states need the vacuum in the basis, got {basis.kind}")
    vec = np.zeros(basis.dim, dtype=complex)
    vec[0] = alpha
    vec[1] = beta  # index 1 is the magnon at site 1 in both bases (bit 0 set in the full one)
    return DenseState(vec, basis)


def rdm_site(state: DenseState, l: int) -> tuple[float, complex]:
    """Single-site reduced density matrix entries of site l.

    Returns (x, y): x = probability of a flipped spin at l, y = coherence
    <flipped| rho_l |unflipped>. For a mixture of branches, sum the entries
    of the branches.
    """
    basis = state.basis
    vec = state.vector
    _check_site(l, basis)
    if basis.kind == "full":
        flipped = (1 << (l - 1))
        states = np.arange(basis.dim)
        down = (states & flipped).astype(bool)
        x = float(np.sum(np.abs(vec[down]) ** 2))
        partners = states[down] ^ flipped
        y = complex(np.vdot(vec[partners], vec[states[down]]))
        return x, y
    if basis.kind == "vacuum_one_two":
        up, down = _flip_partners(basis, l)
        return float(np.sum(np.abs(vec[down]) ** 2)), complex(np.vdot(vec[up], vec[down]))
    raise ValueError(f"single-site RDM needs full or vacuum_one_two basis, got {basis.kind}")


def transfer_fidelity(x: float, y: complex, alpha: complex, beta: complex) -> float:
    """Overlap of site RDM (x, y) with the target qubit state (alpha, beta).

    F = |alpha|^2 (1 - x) + |beta|^2 x + 2 Re(alpha conj(beta) y).
    """
    return float(
        abs(alpha) ** 2 * (1.0 - x)
        + abs(beta) ** 2 * x
        + 2.0 * np.real(alpha * np.conj(beta) * y)
    )


def bloch_average(fidelity: Callable[[complex, complex], float]) -> float:
    """Average a per-state fidelity over the Bloch sphere of (alpha, beta).

    Exact for integrands that are polynomials of degree <= 4 in the state
    amplitudes (every fidelity in this library is): 5-node Gauss-Legendre in
    cos(theta) times an 8-node uniform rule in phi.
    """
    nodes, weights = np.polynomial.legendre.leggauss(5)
    total = 0.0
    for c, w in zip(nodes, weights):
        alpha = math.sqrt((1.0 + c) / 2.0)
        sin_half = math.sqrt((1.0 - c) / 2.0)
        for k in range(8):
            phi = 2.0 * math.pi * k / 8.0
            beta = sin_half * complex(math.cos(phi), math.sin(phi))
            total += (w / 2.0) * (1.0 / 8.0) * fidelity(alpha, beta)
    return float(total)


@dataclass(frozen=True)
class BoundBandResult:
    """Spectral split of the two-excitation sector into pair-bound and scattering states."""

    projector: np.ndarray
    count: int


def _momentum_sector_basis(basis: SectorBasis, k: int) -> np.ndarray:
    """Orthonormal total-momentum-k basis of the ring two-excitation sector.

    Columns are plane waves over the pair center at fixed ring separation r,
    indexed by ``basis``, the ordered-pair basis of the ring. For even n the antipodal separation
    r = n/2 pairs are invariant under a half-ring shift, so that column
    exists only in even-k sectors.
    """
    n = basis.n
    p_tot = 2.0 * math.pi * k / n
    cols = []
    for r in range(1, n // 2 + 1):
        doubled = (n % 2 == 0) and r == n // 2
        if doubled and k % 2 == 1:
            continue
        col = np.zeros(basis.dim, dtype=complex)
        j_range = range(1, n // 2 + 1) if doubled else range(1, n + 1)
        for j in j_range:
            col[basis.pair_index(j, (j + r - 1) % n + 1)] += cmath.exp(1j * p_tot * (j + 0.5 * r))
        col /= np.linalg.norm(col)
        cols.append(col)
    return np.column_stack(cols)


def bound_band_projector(spec: ChainSpec) -> BoundBandResult:
    """Projector onto the two-magnon bound band of a delta = 1 ring.

    The two-excitation sector is block-diagonalized by total momentum P; the
    lowest level of a sector belongs to the bound band when it drops below
    the scattering continuum bottom eps0 - 8*J*|cos(P/2)| at that momentum.
    This counts N - O(1) states (the near-P = 0 sectors have no level split
    off).
    """
    if spec.boundary != "closed" or spec.delta != 1.0:
        raise ValueError("bound-band classification needs a closed chain at delta = 1")
    ham = build_hamiltonian(spec, "two_excitation")
    n = spec.n
    dim = ham.basis.dim
    projector = np.zeros((dim, dim), dtype=complex)
    count = 0
    scale = 8.0 * spec.j
    for k in range(n):
        cols = _momentum_sector_basis(ham.basis, k)
        block = cols.conj().T @ ham.matrix @ cols
        w, v = np.linalg.eigh(block)
        bottom = spec.ground_energy - 8.0 * spec.j * abs(math.cos(math.pi * k / n))
        if w[0] < bottom - 1e-9 * scale:
            vec = cols @ v[:, 0]
            projector += np.outer(vec, vec.conj())
            count += 1
    return BoundBandResult(projector=projector, count=count)


# --------------------------------------------------------------------------
# Golden-file helpers: JSON records {inputs, convention hash, values, tolerance}
# --------------------------------------------------------------------------


def _encode(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return [_encode(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(x) for x in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def save_golden(path: str | pathlib.Path, *, inputs: dict, values: dict, tolerance: float) -> None:
    """Freeze oracle-derived values with their inputs and the convention fingerprint."""
    record = {
        "inputs": inputs,
        "convention_hash": conventions_hash(),
        "tolerance": tolerance,
        "values": {k: _encode(v) for k, v in values.items()},
    }
    pathlib.Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def load_golden(path: str | pathlib.Path) -> dict:
    record = json.loads(pathlib.Path(path).read_text())
    if record.get("convention_hash") != conventions_hash():
        raise ValueError(
            f"golden file {path} was frozen under convention hash "
            f"{record.get('convention_hash')}, current is {conventions_hash()}; "
            "regenerate with tools/regenerate_goldens.py"
        )
    return record


def decode_complex(encoded):
    """Turn [re, im] pairs (possibly nested) back into complex values."""
    if isinstance(encoded, list):
        if len(encoded) == 2 and all(isinstance(x, (int, float)) for x in encoded):
            return complex(encoded[0], encoded[1])
        return [decode_complex(x) for x in encoded]
    return encoded
