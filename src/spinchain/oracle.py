"""Brute-force cross-check machinery: dense Hamiltonians and exact evolution.

Everything in this module is built from raw configuration bookkeeping --
never from the analytic dispersion, Bessel, or Bethe formulas -- so that the
analytic modules and this one form two genuinely independent routes to the
same numbers.

A basis is one site table, ``sites``: row k holds the flipped sites of basis
state k. ``lookup`` finds the index of every row of such a table at once, and
it is the one config -> index path. The four sectors hold:

* "full", the 2^N space (N <= 12): bit s - 1 of an index is site s;
* "one_excitation" (N <= 2016): one magnon at site 1, ..., N;
* "two_excitation" (N <= 64): the pairs (i, j), i < j, in lexicographic order;
* "vacuum_one_two" (N <= 64): the vacuum, then the two sectors above.

Each sector supports the Hamiltonian, evolution, local 2 x 2 operators and
site RDMs, from one Hamiltonian rule and one site-m flip map, both array
operations on the site table. An operator refuses to move weight out of the basis
(in vacuum_one_two: onto a third magnon); an RDM sees no coherence with a
sector the basis lacks. Encoded states need the vacuum: the full space or
vacuum_one_two. The bound-band projector lives on the two-excitation ring.

A local process is its Kraus operators K, each a 2 x 2 operator at one site
(``apply_local``), and an unread one is its pure branches K|psi>: evolution
and the site RDM are linear in rho = sum of the branch projectors, so RDM
entries are summed over the separately evolved branches.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .chain import ChainSpec

Sector = Literal["full", "one_excitation", "two_excitation", "vacuum_one_two"]

MAX_FULL_N = 12
MAX_PAIR_N = 64
#: As large as the pair sector at MAX_PAIR_N: 2016 x 2016 doubles, 32 MB.
MAX_ONE_N = MAX_PAIR_N * (MAX_PAIR_N - 1) // 2

# sector -> (largest N, numbers of flipped sites it holds, in basis order)
_SECTORS = {
    "full": (MAX_FULL_N, None),
    "one_excitation": (MAX_ONE_N, (1,)),
    "two_excitation": (MAX_PAIR_N, (2,)),
    "vacuum_one_two": (MAX_PAIR_N, (0, 1, 2)),
}


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """A sector basis: row k of ``sites`` holds the flipped sites of basis state k,
    ascending after the zeros that pad it to the longest config."""

    kind: Sector
    n: int
    sites: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.sites)

    @cached_property
    def pairs(self) -> np.ndarray:
        """The (P, 2) table of the two-magnon configs, in basis order."""
        two = np.count_nonzero(self.sites, axis=1) == 2
        return self.sites[two, -2:].reshape(-1, 2)

    def pair_index(self, i: int, j: int) -> int:
        """Index of the config with sites i and j flipped; KeyError if the basis lacks it."""
        lo, hi = sorted((i, j))
        # a site 0 would read as padding: (0, j) is the one-magnon config (j,)
        k = self.lookup(np.array([[lo, hi]]))[0] if 1 <= lo < hi <= self.n else -1
        if k < 0:
            raise KeyError((lo, hi))
        return int(k)

    def _keys(self, table: np.ndarray) -> np.ndarray:
        """Each row of a ``sites``-style table read as the digits of one number, base n + 1."""
        return table @ (self.n + 1) ** np.arange(table.shape[1] - 1, -1, -1)

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        keys = self._keys(self.sites)
        order = np.argsort(keys)
        return keys[order], order

    def lookup(self, table: np.ndarray) -> np.ndarray:
        """Index of the config in each row of ``table``, or -1 where the basis lacks it.

        Rows are laid out as in ``sites`` (ascending after zero padding) at
        any width; the padding adds nothing to a row's key.
        """
        if not self.dim:
            return np.full(len(table), -1, dtype=np.intp)
        keys, order = self._sorted_keys
        wanted = self._keys(table)
        at = np.minimum(np.searchsorted(keys, wanted), self.dim - 1)
        return np.where(keys[at] == wanted, order[at], -1)


def make_basis(kind: Sector, n: int) -> SectorBasis:
    if kind not in _SECTORS:
        raise ValueError(f"unknown sector {kind!r}")
    limit, counts = _SECTORS[kind]
    if n > limit:
        raise ValueError(f"{kind} sector limited to N <= {limit}, got {n}")
    if counts is None:  # the full space, indexed by its bits: bit s - 1 of k is site s
        bits = np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1
        table = np.sort(bits * np.arange(1, n + 1), axis=1)
    else:
        width = max((count for count in counts if count <= n), default=0)
        rows = [
            (0,) * (width - count) + config
            for count in counts
            for config in itertools.combinations(range(1, n + 1), count)
        ]
        table = np.array(rows, dtype=np.intp).reshape(len(rows), width)
    return SectorBasis(kind, n, table)


@dataclass(frozen=True, eq=False)
class DenseState:
    """Complex amplitude vector over a sector basis."""

    vector: np.ndarray
    basis: SectorBasis


class DenseHamiltonian:
    """Dense real-symmetric Hamiltonian on a sector basis, with cached eigendecomposition."""

    def __init__(self, matrix: np.ndarray, basis: SectorBasis):
        self.matrix = matrix
        self.basis = basis

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)


def build_hamiltonian(spec: ChainSpec, sector: Sector) -> DenseHamiltonian:
    """Dense Hamiltonian of the requested sector; Hermitian, sector-preserving.

    Each config starts at the reference energy -J * n_bonds. Per bond, it
    gains -4 J delta when both ends are flipped, and a -2 J hop to the config
    with the flip moved across the bond when one end is. Only the bonds of
    the flipped sites are walked, all at once: each flipped site has a bond
    to either side. The one-site ring's two bonds are self-bonds and the
    two-site ring's two bonds join the same sites, so their hops count twice.
    """
    basis = make_basis(sector, spec.n)
    n, sites = spec.n, basis.sites
    # [k, p, side]: the site across each bond of the p-th site of config k
    across = sites[:, :, np.newaxis] + np.array([-1, 1])
    if spec.boundary == "closed":
        across = (across - 1) % n + 1
    bond = (sites[:, :, np.newaxis] > 0) & (across >= 1) & (across <= n)
    occupied = (across[..., np.newaxis] == sites[:, np.newaxis, np.newaxis, :]).any(axis=-1)
    contact = bond & occupied & (across != sites[:, :, np.newaxis])
    # each contact bond once, from its lower end, added one at a time
    contacts = np.sum(contact & (sites[:, :, np.newaxis] < across), axis=(1, 2))
    energies = np.full(basis.dim, spec.ground_energy)
    for count in range(1, int(contacts.max(initial=0)) + 1):
        np.add(energies, -4.0 * spec.j * spec.delta, out=energies, where=contacts >= count)
    k, p, side = np.nonzero(bond & ~contact)
    moved = sites[k]
    moved[np.arange(len(k)), p] = across[k, p, side]
    matrix = np.zeros((basis.dim, basis.dim))
    np.add.at(matrix, (basis.lookup(np.sort(moved, axis=1)), k), -2.0 * spec.j)
    matrix[np.diag_indices(basis.dim)] += energies
    return DenseHamiltonian(matrix, basis)


def evolve(state: DenseState, ham: DenseHamiltonian, t: float) -> DenseState:
    """Exact e^{-iHt} |state> through the cached eigendecomposition."""
    w, v = ham.eig
    phases = np.exp(-1j * w * t)
    return DenseState(v @ (phases * (v.T @ state.vector)), state.basis)


def _flip_map(basis: SectorBasis, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Site-m flip map (flipped, partner): flipped[k] says config k holds site m;
    partner[k] indexes config k with site m toggled, or is -1 when that config
    lies outside the basis."""
    if not 1 <= m <= basis.n:
        raise ValueError(f"site {m} out of range 1..{basis.n}")
    held = basis.sites == m
    flipped = held.any(axis=1)
    # m leaves the configs that hold it and joins, in a new first column, the others
    toggled = np.column_stack((np.where(flipped, 0, m), np.where(held, 0, basis.sites)))
    return flipped, basis.lookup(np.sort(toggled, axis=1))


def apply_local(op, m: int, state: DenseState) -> DenseState:
    """Apply a local 2 x 2 operator K = [[a, b], [c, d]] at site m, in the basis (unflipped, flipped).

    K acts on each pair of configs that differ only at site m; it must be
    finite and of norm at most 1, as an operator of a complete Kraus set is.
    It raises when it would move amplitude onto a config outside the basis
    (in vacuum_one_two: c onto a third magnon).
    """
    basis, vec = state.basis, state.vector
    flipped, partner = _flip_map(basis, m)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2) or not np.all(np.isfinite(op)) or not np.linalg.norm(op, 2) <= 1 + 1e-10:
        raise ValueError("a local operator must be a finite 2 x 2 matrix of norm at most 1")
    (a, b), (c, d) = op
    out = np.where(flipped, d * vec, a * vec)
    if b or c:  # only these move amplitude between configs
        outside = partner < 0
        leak = float(np.sum(np.abs(np.where(flipped, b, c)[outside] * vec[outside]) ** 2))
        if leak > 1e-10:
            raise ValueError(
                f"operator at site {m} would move weight {leak:.3e} out of the {basis.kind} basis"
            )
        up = np.flatnonzero(~flipped & (partner >= 0))
        down = partner[up]
        out[up] += b * vec[down]
        out[down] += c * vec[up]
    return DenseState(out, basis)


def encoded_state(alpha: complex, beta: complex, basis: SectorBasis) -> DenseState:
    """alpha |all up> + beta |magnon at site 1> in the requested basis."""
    vacuum, magnon = basis.lookup(np.array([[0], [1]]))
    if vacuum < 0:
        raise ValueError(f"encoded states need the vacuum in the basis, got {basis.kind}")
    vec = np.zeros(basis.dim, dtype=complex)
    vec[vacuum] = alpha
    vec[magnon] = beta
    return DenseState(vec, basis)


def rdm_site(state: DenseState, l: int) -> tuple[float, complex]:
    """Single-site reduced density matrix entries of site l.

    Returns (x, y): x = probability of a flipped spin at l, y = coherence
    <flipped| rho_l |unflipped>. For a mixture of branches, sum the entries
    of the branches.
    """
    vec = state.vector
    flipped, partner = _flip_map(state.basis, l)
    paired = flipped & (partner >= 0)
    x = float(np.sum(np.abs(vec[flipped]) ** 2))
    return x, complex(np.vdot(vec[partner[paired]], vec[paired]))


@dataclass(frozen=True, eq=False)
class BoundBandResult:
    """Spectral split of the two-excitation sector into pair-bound and scattering states."""

    projector: np.ndarray
    count: int


def _momentum_columns(basis: SectorBasis) -> np.ndarray:
    """Orthonormal total-momentum bases of the ring two-excitation sector, all k at once.

    Entry [:, k, c] is column c of sector k = 0..n-1: a plane wave over the
    pair center at ring separation r = c + 1, indexed by ``basis``, the
    two-excitation basis of the ring, whose configs are its pairs. For even
    n the antipodal separation r = n/2 pairs are invariant under a half-ring
    shift, so that column, the last, belongs only to even-k sectors. A table
    from each pair (i, j) to its basis index places every separation's
    entries, and one exponential per separation gives their phases in every
    sector.
    """
    n = basis.n
    table = np.empty((n + 1, n + 1), dtype=np.intp)
    first, second = basis.pairs.T
    table[first, second] = table[second, first] = np.arange(basis.dim)
    p_tot = 2.0 * math.pi * np.arange(n) / n
    cols = np.zeros((basis.dim, n, n // 2), dtype=complex)
    for c in range(n // 2):
        r = c + 1
        j = np.arange(1, (n // 2 if 2 * r == n else n) + 1)
        phases = np.exp(1j * np.multiply.outer(j + 0.5 * r, p_tot))
        cols[table[j, (j + r - 1) % n + 1], :, c] = phases / math.sqrt(len(j))
    return cols


def bound_band_projector(spec: ChainSpec) -> BoundBandResult:
    """Projector onto the two-magnon bound band of a delta = 1 ring.

    The two-excitation sector is block-diagonalized by total momentum P; the
    lowest level of a sector belongs to the bound band when it drops below
    the scattering continuum bottom eps0 - 8*J*|cos(P/2)| at that momentum.
    This counts N - O(1) states (the near-P = 0 sectors have no level split
    off). The projector is V V^H, V the bound levels as columns.
    """
    if spec.boundary != "closed" or spec.delta != 1.0:
        raise ValueError("bound-band classification needs a closed chain at delta = 1")
    ham = build_hamiltonian(spec, "two_excitation")
    n = spec.n
    cols = _momentum_columns(ham.basis)
    bound = []
    scale = 8.0 * spec.j
    for k in range(n):
        width = n // 2 - (n % 2 == 0 and k % 2 == 1)
        sector = cols[:, k, :width]
        # the real Hamiltonian on the interleaved real and imaginary parts of the columns
        h_sector = (ham.matrix @ sector.view(float)).view(complex)
        w, v = np.linalg.eigh(sector.conj().T @ h_sector)
        bottom = spec.ground_energy - 8.0 * spec.j * abs(math.cos(math.pi * k / n))
        if w[0] < bottom - 1e-9 * scale:
            bound.append(sector @ v[:, 0])
    levels = np.array(bound).reshape(-1, ham.basis.dim).T
    return BoundBandResult(projector=levels @ levels.conj().T, count=len(bound))
