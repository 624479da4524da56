"""Brute-force cross-check machinery: dense Hamiltonians and exact evolution.

Everything in this module is built from raw bit and pair bookkeeping — never
from the analytic dispersion, Bessel, or Bethe formulas — so that the
analytic modules and this one form two genuinely independent routes to the
same numbers. Supported bases: the full 2^N space (N <= 12), the
single-excitation sector (N <= 2016), the two-excitation sector (N <= 64),
and the direct sum of the vacuum with both ("vacuum_one_two", the natural
home of local-gate pipelines).
"""
from __future__ import annotations

import cmath
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

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

    def __init__(self, matrix: np.ndarray, basis: SectorBasis, spec: ChainSpec):
        self.matrix = matrix
        self.basis = basis
        self.spec = spec
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
    pairs = ordered_pairs(n)
    index = {pq: k for k, pq in enumerate(pairs)}
    dim = len(pairs)
    h = np.zeros((dim, dim))
    bonds = _bonds(spec)
    for k, (i1, i2) in enumerate(pairs):
        h[k, k] = spec.ground_energy
        for a, b in bonds:
            if {a, b} == {i1, i2}:
                h[k, k] += -4.0 * j * delta
            for src, dst in ((a, b), (b, a)):
                if src in (i1, i2) and dst not in (i1, i2):
                    other = i2 if src == i1 else i1
                    kk = index[(dst, other) if dst < other else (other, dst)]
                    h[kk, k] += -2.0 * j
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
    return DenseHamiltonian(matrix, make_basis(sector, spec.n), spec)


def evolve(state: DenseState, ham: DenseHamiltonian, t: float) -> DenseState:
    """Exact e^{-iHt} |state> through the cached eigendecomposition."""
    w, v = ham.eig
    phases = np.exp(-1j * w * t)
    return DenseState(v @ (phases * (v.T @ state.vector)), state.basis)


def evolve_density(density: np.ndarray, ham: DenseHamiltonian, t: float) -> np.ndarray:
    """Exact U rho U^dagger."""
    w, v = ham.eig
    u = v @ np.diag(np.exp(-1j * w * t)) @ v.T
    return u @ density @ u.conj().T


def _site_flipped_mask(basis: SectorBasis, m: int) -> np.ndarray:
    """Boolean mask: basis elements in which site m carries a flipped spin."""
    if basis.kind == "full":
        states = np.arange(basis.dim)
        return ((states >> (m - 1)) & 1).astype(bool)
    if basis.kind == "one_excitation":
        return np.arange(1, basis.n + 1) == m
    flip = np.zeros(basis.dim, dtype=bool)
    if basis.kind == "two_excitation":
        for k, (i, j) in enumerate(basis.pairs):
            flip[k] = m in (i, j)
        return flip
    if basis.kind == "vacuum_one_two":
        flip[1 + m - 1] = True
        for k, (i, j) in enumerate(basis.pairs):
            flip[1 + basis.n + k] = m in (i, j)
        return flip
    raise ValueError(f"unknown basis {basis.kind!r}")


def local_gate_matrix(gate: tuple[complex, complex], m: int, basis: SectorBasis) -> np.ndarray:
    """Matrix of the local gate at site m restricted to the basis.

    Gate convention: V|up> = gamma|up> + delta|down>,
    V|down> = -conj(delta)|up> + gamma|down>. In truncated-excitation bases
    the matrix is the restriction of V; amplitude on pair states not
    containing m would leave a vacuum_one_two basis (three flipped spins) —
    callers must check for that leak (see apply_local).
    """
    gamma, delta = complex(gate[0]), complex(gate[1])
    if abs(abs(gamma) ** 2 + abs(delta) ** 2 - 1.0) > 1e-10:
        raise ValueError("gate (gamma, delta) must satisfy |gamma|^2 + |delta|^2 = 1")
    dim, n = basis.dim, basis.n
    v = np.zeros((dim, dim), dtype=complex)
    if basis.kind == "full":
        states = np.arange(dim)
        down = ((states >> (m - 1)) & 1).astype(bool)
        flipped = states ^ (1 << (m - 1))
        up_states = states[~down]
        dn_states = states[down]
        v[up_states, up_states] = gamma
        v[flipped[~down], up_states] = delta
        v[dn_states, dn_states] = gamma
        v[flipped[down], dn_states] = -np.conj(delta)
        return v
    if basis.kind != "vacuum_one_two":
        raise ValueError(f"gates need the full or vacuum_one_two basis, got {basis.kind}")
    # vacuum <-> magnon at m
    vac, site_m = 0, 1 + m - 1
    v[vac, vac] = gamma
    v[site_m, vac] = delta
    v[vac, site_m] = -np.conj(delta)
    v[site_m, site_m] = gamma
    # magnon at y != m <-> pair {y, m}
    for y in range(1, n + 1):
        if y == m:
            continue
        site_y = 1 + y - 1
        pair_ym = basis.pair_index(y, m)
        v[site_y, site_y] = gamma
        v[pair_ym, site_y] = delta
        v[site_y, pair_ym] = -np.conj(delta)
        v[pair_ym, pair_ym] = gamma
    # pairs not containing m: diagonal gamma (the delta branch leaks to 3 flips)
    for i, j in basis.pairs:
        if m not in (i, j):
            k = basis.pair_index(i, j)
            v[k, k] = gamma
    return v


def apply_local(
    op: str | tuple[complex, complex],
    m: int,
    state: DenseState | np.ndarray,
    *,
    leak_tol: float = 1e-10,
):
    """Apply a local projector ('p0' / 'p1') or gate (gamma, delta) at site m.

    Accepts a DenseState (returns the possibly unnormalized branch) or a
    density matrix (returns O rho O^dagger). Gate application on a truncated
    basis raises if amplitude would leak out of the representable sectors.
    """
    basis = state.basis if isinstance(state, DenseState) else None
    if isinstance(op, str):
        if op not in ("p0", "p1"):
            raise ValueError(f"projector must be 'p0' or 'p1', got {op!r}")
        if basis is None:
            raise ValueError("density-matrix input needs an explicit basis: pass DenseState branches")
        mask = _site_flipped_mask(basis, m)
        keep = mask if op == "p1" else ~mask
        return DenseState(np.where(keep, state.vector, 0.0), basis)
    if basis is None:
        raise ValueError("gate on a raw density matrix is not supported; wrap branches as DenseState")
    if not 1 <= m <= basis.n:
        raise ValueError(f"site {m} out of range 1..{basis.n}")
    matrix = local_gate_matrix(op, m, basis)
    new_vec = matrix @ state.vector
    if basis.kind == "vacuum_one_two":
        delta = complex(op[1])
        leak = 0.0
        for i, j in basis.pairs:
            if m not in (i, j):
                leak += abs(delta) ** 2 * abs(state.vector[basis.pair_index(i, j)]) ** 2
        if leak > leak_tol:
            raise ValueError(
                f"gate at site {m} would move weight {leak:.3e} into the three-magnon "
                "sector, which this basis cannot represent"
            )
    return DenseState(new_vec, basis)


def kraus_measure(m: int, density: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Unread projective measurement of site m: rho -> P0 rho P0 + P1 rho P1."""
    mask = _site_flipped_mask(basis, m)
    p1 = np.where(mask, 1.0, 0.0)
    p0 = 1.0 - p1
    return (
        p0[:, None] * density * p0[None, :]
        + p1[:, None] * density * p1[None, :]
    )


def encoded_state(alpha: complex, beta: complex, basis: SectorBasis) -> DenseState:
    """alpha |all up> + beta |magnon at site 1> in the requested basis."""
    vec = np.zeros(basis.dim, dtype=complex)
    if basis.kind == "full":
        vec[0] = alpha
        vec[1] = beta  # state index 1 = bit of site 1 set
    elif basis.kind == "vacuum_one_two":
        vec[0] = alpha
        vec[1] = beta
    else:
        raise ValueError(f"encoded states need the vacuum in the basis, got {basis.kind}")
    return DenseState(vec, basis)


def rdm_site(state: DenseState, l: int) -> tuple[float, complex]:
    """Single-site reduced density matrix entries of site l.

    Returns (x, y): x = probability of a flipped spin at l, y = coherence
    <flipped| rho_l |unflipped>.
    """
    basis = state.basis
    vec = state.vector
    if basis.kind == "full":
        flipped = (1 << (l - 1))
        states = np.arange(basis.dim)
        down = (states & flipped).astype(bool)
        x = float(np.sum(np.abs(vec[down]) ** 2))
        partners = states[down] ^ flipped
        y = complex(np.vdot(vec[partners], vec[states[down]]))
        return x, y
    if basis.kind == "vacuum_one_two":
        n = basis.n
        x = abs(vec[1 + l - 1]) ** 2
        for i, j in basis.pairs:
            if l in (i, j):
                x += abs(vec[basis.pair_index(i, j)]) ** 2
        y = vec[1 + l - 1] * np.conj(vec[0])
        for y_site in range(1, n + 1):
            if y_site == l:
                continue
            y += vec[basis.pair_index(l, y_site)] * np.conj(vec[1 + y_site - 1])
        return x, complex(y)
    raise ValueError(f"single-site RDM needs full or vacuum_one_two basis, got {basis.kind}")


def rdm_site_density(density: np.ndarray, l: int, basis: SectorBasis) -> tuple[float, complex]:
    """(x, y) of site l from a density matrix over the basis."""
    if basis.kind == "full":
        states = np.arange(basis.dim)
        down = ((states >> (l - 1)) & 1).astype(bool)
        x = float(np.real(np.trace(density[np.ix_(down, down)])))
        partners = states[down] ^ (1 << (l - 1))
        y = complex(np.sum(density[states[down], partners]))
        return x, y
    if basis.kind == "vacuum_one_two":
        mask = _site_flipped_mask(basis, l)
        x = float(np.real(np.trace(density[np.ix_(mask, mask)])))
        # coherence: sum over configurations of the other sites
        y = density[1 + l - 1, 0]
        for y_site in range(1, basis.n + 1):
            if y_site != l:
                y += density[basis.pair_index(l, y_site), 1 + y_site - 1]
        return x, complex(y)
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
    ambiguous: int
    dim: int
    energies: np.ndarray


def _momentum_sector_basis(n: int, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal total-momentum-k basis of the ring two-excitation sector.

    Columns are plane waves over the pair center at fixed ring separation r.
    For even n the antipodal separation r = n/2 pairs are invariant under a
    half-ring shift, so that column exists only in even-k sectors. Returns
    (columns, separations) with columns indexed by the ordered-pair basis.
    """
    pairs = ordered_pairs(n)
    index = {p: idx for idx, p in enumerate(pairs)}
    p_tot = 2.0 * math.pi * k / n
    max_sep = n // 2
    cols, seps = [], []
    for r in range(1, max_sep + 1):
        doubled = (n % 2 == 0) and r == n // 2
        if doubled and k % 2 == 1:
            continue
        col = np.zeros(len(pairs), dtype=complex)
        j_range = range(1, n // 2 + 1) if doubled else range(1, n + 1)
        for j in j_range:
            a = j
            b = (j + r - 1) % n + 1
            lo, hi = (a, b) if a < b else (b, a)
            col[index[(lo, hi)]] += cmath.exp(1j * p_tot * (j + 0.5 * r))
        col /= np.linalg.norm(col)
        cols.append(col)
        seps.append(r)
    return np.column_stack(cols), np.array(seps)


def bound_band_projector(
    spec: ChainSpec,
    *,
    separation_cut: int = 5,
    weight_cut: float = 0.9,
) -> BoundBandResult:
    """Projector onto the two-magnon bound band of a delta = 1 ring.

    The two-excitation sector is block-diagonalized by total momentum P; the
    lowest level of a sector belongs to the bound band when it drops below
    the scattering continuum bottom eps0 - 8*J*|cos(P/2)| at that momentum.
    This counts N - O(1) states (the near-P = 0 sectors have no level split
    off). Bound states whose pair-separation weight within
    ``separation_cut`` falls below ``weight_cut`` are flagged ambiguous:
    they sit below the continuum but are no longer sharply confined.
    """
    if spec.boundary != "closed" or spec.delta != 1.0:
        raise ValueError("bound-band classification needs a closed chain at delta = 1")
    ham = build_hamiltonian(spec, "two_excitation")
    n = spec.n
    dim = ham.basis.dim
    projector = np.zeros((dim, dim), dtype=complex)
    energies = []
    count = 0
    ambiguous = 0
    scale = 8.0 * spec.j
    for k in range(n):
        cols, seps = _momentum_sector_basis(n, k)
        block = cols.conj().T @ ham.matrix @ cols
        w, v = np.linalg.eigh(block)
        bottom = spec.ground_energy - 8.0 * spec.j * abs(math.cos(math.pi * k / n))
        if w[0] < bottom - 1e-9 * scale:
            vec = cols @ v[:, 0]
            projector += np.outer(vec, vec.conj())
            energies.append(w[0])
            count += 1
            close_weight = float(np.sum(np.abs(v[seps <= separation_cut, 0]) ** 2))
            if close_weight < weight_cut:
                ambiguous += 1
    return BoundBandResult(
        projector=projector,
        count=count,
        ambiguous=ambiguous,
        dim=dim,
        energies=np.array(energies),
    )


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
