"""Two-magnon propagators on closed rings: exact evolution split into bound and scattering parts.

``RingTwoMagnon`` diagonalizes the two-excitation sector of a ring once, as
floor(N/2) + 1 real tridiagonal blocks over pair separations (momenta k and
N - k share one), and evolves any pair state exactly. The blocks are
``eigh``ed a few at a time and overwritten by their modes, so the build
peaks near the N^3 bytes of modes it keeps. A pair state is a symmetric
complex N x N matrix with a zero diagonal: entry (y1 - 1, y2 - 1) holds the
pair {y1, y2}. Its sector eigenstates below the continuum bottom form the
bound band; the rest scatter; the two parts resolve the identity.
An evolution is always two calls: ``project`` (the pair state's coefficients
on the modes, independent of the time), then ``evolve_projected`` (per time);
a caller that evolves one state to many times projects it once.
``green2`` projects one source pair, evolves it and reads one target
entry. Both it and the gate protocol take their kernel from
``ring_kernel``, which keeps one kernel per ring while their modes total at
most those of one ``MAX_RING_SITES`` ring (134.7 MB), dropping the least
recently used first.

Amplitudes inside ``RingTwoMagnon`` are reduced (measured from the polarized
reference, like green1's reduced rows); ``green2`` returns full amplitudes,
carrying the global phase e^{-i*eps0*t}. Open chains have no momentum
sectors and are refused.
"""
from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .bessel import MAX_ARG
from .chain import ChainSpec, reduced_phase

Part = Literal["bound", "scattering", "total"]

#: Largest ring RingTwoMagnon builds. Its floor(N/2) + 1 real blocks of modes
#: take N^3 bytes (134 MB at 512 sites), and the build peaks not far above that.
MAX_RING_SITES = 512
#: Sector blocks per ``eigh`` call; the build's transient is the modes of a
#: few such blocks, not of all of them.
_EIGH_CHUNK = 16
#: Most mode bytes ``ring_kernel`` keeps: the modes of one MAX_RING_SITES ring,
#: (N/2 + 1) blocks of (N/2)^2 float64 values, 134 742 016 bytes.
_MAX_KEPT_BYTES = (MAX_RING_SITES // 2 + 1) * (MAX_RING_SITES // 2) ** 2 * 8
_BOUND_MARGIN = 1e-9  # relative to 8J: how far below the continuum a bound level sits


@dataclass(frozen=True)
class Green2Value:
    """Two-magnon transition amplitude between ordered site pairs."""

    value: complex


def _normalize_pair(x1: int, x2: int) -> tuple[int, int]:
    if x1 == x2:
        raise ValueError(f"two-magnon pair needs distinct sites, got ({x1}, {x2})")
    return (x1, x2) if x1 < x2 else (x2, x1)


def _check_evolution(t: float, part: str, spec: ChainSpec) -> None:
    """Refuse an unknown part, and a time whose phases e^{-iEt} would round away.

    A pair energy is at most 4*J*(|Delta| + 2) in size (a -4*J*Delta contact
    and two hops of 4*J), so 4*J*(|Delta| + 2)*|t| is held to
    ``bessel.MAX_ARG``, as green1 holds 4*J*|t|; NaN and infinity fail the
    bound too.
    """
    if part not in get_args(Part):
        raise ValueError(f"unknown part {part!r}; expected one of {get_args(Part)}")
    z = 4.0 * spec.j * (abs(spec.delta) + 2.0) * t
    if not abs(z) <= MAX_ARG:
        raise ValueError(
            f"4*J*(|Delta| + 2)*|t| must be <= {MAX_ARG}, got {z} at t = {t}, Delta = {spec.delta}"
        )


def _check_ring(spec: ChainSpec) -> None:
    """Refuse a chain ``RingTwoMagnon`` cannot build: open, under 3 or over MAX_RING_SITES sites."""
    if spec.boundary != "closed":
        raise ValueError("ring propagator needs a closed chain")
    if spec.n > MAX_RING_SITES:
        raise ValueError(f"ring of {spec.n} sites is over the limit of {MAX_RING_SITES}")
    if spec.n < 3:
        raise ValueError("two magnons need at least 3 sites")


class RingTwoMagnon:
    """Exact two-magnon evolution on a closed ring, split by total momentum.

    For each total momentum P = 2 pi k / N the pair dynamics reduces to a
    short chain over folded separations r = 1..floor(N/2): nearest-separation
    hopping -2J(1 + e^{iP}) with a -4J*Delta contact well at r = 1 and fold
    corrections at the largest separation (a sqrt(2) hop onto the antipodal
    column for even N, a self term for odd N). Diagonalizing every sector once
    gives machine-precision ring propagation, including through-the-seam
    interaction and winding.

    A pair state is the symmetric N x N matrix with a zero diagonal that
    holds pair {y1, y2} at (y1 - 1, y2 - 1). Internally it is read onto an
    N x floor(N/2) grid over (pair centre site, folded separation): cell
    (x, r) holds the pair {x, x + r} (sites mod N), and an antipodal pair of
    an even ring fills both of its cells with weight 1/sqrt(2). One FFT over
    the centre axis turns the grid into all momentum sectors at once. A
    diagonal gauge per sector makes its block real, and sectors k and N - k
    then share one block, so floor(N/2) + 1 real blocks (N^3 bytes of modes)
    are diagonalized, ``_EIGH_CHUNK`` blocks per ``eigh`` call, each block
    overwritten in place by its modes. ``eigh`` sees each block alone either
    way, so the build holds the blocks plus one chunk's modes rather than
    every block twice.

    Sector eigenstates below the infinite-chain continuum bottom
    -8J|cos(P/2)| form the bound band; the rest scatter. Propagation can be
    restricted to either part.

    Energies and amplitudes are reduced (measured from the polarized
    reference), matching the reduced one-magnon conventions.
    """

    def __init__(self, spec: ChainSpec):
        _check_ring(spec)
        n = spec.n
        self.spec = spec
        j = spec.j

        # grid cell (x, r) reads the pair matrix at (x, x + r mod N)
        r_full = n // 2
        r = np.arange(1, r_full + 1)
        self._cell_cols = (np.arange(n)[:, None] + r) % n
        self._cell_weight = np.where(2 * r == n, 1.0 / math.sqrt(2.0), 1.0)

        # Sector k hops -4J cos(pi k'/N) e^{i pi k'/N}, k' = k - N above N/2, so
        # the gauge e^{-i r pi k'/N} on separation row r makes its block real;
        # sectors k and N - k (equal |cos|, parity and fold term) then share
        # block b = min(k, N - k). Lower band only (eigh reads that triangle).
        k = np.arange(n)
        signed_k = np.where(2 * k > n, k - n, k)
        self._gauge = np.exp(-1j * math.pi * np.outer(signed_k, np.arange(r_full)) / n)
        b = np.arange(r_full + 1)
        cos_b = np.cos(math.pi * b / n)
        blocks = np.zeros((r_full + 1, r_full, r_full))
        rows = np.arange(1, r_full)
        blocks[:, rows, rows - 1] = (-4.0 * j * cos_b)[:, None]
        blocks[:, 0, 0] = -4.0 * j * spec.delta
        live = np.ones((r_full + 1, r_full), dtype=bool)
        if n % 2 == 0:
            odd = b % 2 == 1
            blocks[~odd, -1, -2] *= math.sqrt(2.0)
            # odd sectors have no antipodal row: decouple it and park its
            # level above the whole spectrum, so it is the last mode
            blocks[odd, -1, -2] = 0.0
            blocks[odd, -1, -1] = 4.0 * j * (abs(spec.delta) + 4.0)
            live[odd, -1] = False
        else:
            blocks[:, -1, -1] += -4.0 * j * (-1.0) ** b * cos_b
        # a few blocks per eigh, each overwritten by its own modes
        self._evals = np.empty((r_full + 1, r_full))
        for start in range(0, r_full + 1, _EIGH_CHUNK):
            s = slice(start, start + _EIGH_CHUNK)
            self._evals[s], blocks[s] = np.linalg.eigh(blocks[s])
        self._evecs = blocks
        bound = self._evals < (-8.0 * j * cos_b - _BOUND_MARGIN * 8.0 * j)[:, None]
        # blocks 0 and N/2 serve one sector, every other block two
        sectors_per_block = np.where((b == 0) | (2 * b == n), 1, 2)
        self.bound_count = int(np.sum(bound.sum(axis=1) * sectors_per_block))
        self._keep = {"total": live, "bound": bound, "scattering": live & ~bound}

    def project(self, psi: np.ndarray) -> np.ndarray:
        """Coefficients of a pair state on the ring's modes, for ``evolve_projected``.

        psi is a symmetric N x N matrix with a zero diagonal; entry
        (y1 - 1, y2 - 1) holds the pair {y1, y2}. This is the half of an
        evolution that does not depend on the time: the read onto the
        (centre, separation) grid, the FFT into sectors, the gauge and the
        product onto each block's modes.
        """
        psi = np.asarray(psi, dtype=complex)
        n, blocks = len(self._gauge), len(self._evals)
        if psi.shape != (n, n):
            raise ValueError(f"pair state must have shape ({n}, {n})")
        if np.any(psi != psi.T) or np.any(np.diagonal(psi) != 0):
            raise ValueError("pair state must be symmetric with a zero diagonal")
        grid = psi[np.arange(n)[:, None], self._cell_cols] * self._cell_weight
        sectors = np.fft.fft(grid, axis=0, norm="ortho") * self._gauge
        # sectors k and N - k as the two complex columns of block k, each
        # column a pair of real ones against the shared real modes
        paired = np.stack((sectors[:blocks], sectors[-np.arange(blocks)]), axis=-1)
        return (self._evecs.transpose(0, 2, 1) @ paired.view(float)).view(complex)

    def evolve_projected(self, coeffs: np.ndarray, t: float, part: Part = "total") -> np.ndarray:
        """The pair state whose ``project`` coefficients are coeffs, evolved for time t.

        Only the part that depends on t: the phases and the part's mode mask,
        the product back off the modes, the inverse FFT and the scatter into a
        symmetric N x N matrix with a zero diagonal. coeffs is not modified.
        The bound and scattering parts add up to the total. A NaN or infinite
        t, or 4*J*(|Delta| + 2)*|t| above ``bessel.MAX_ARG``, is refused.
        """
        _check_evolution(t, part, self.spec)
        n, blocks = len(self._gauge), len(self._evals)
        modes = coeffs * (np.exp(-1j * self._evals * t) * self._keep[part])[:, :, None]
        paired = (self._evecs @ modes.view(float)).view(complex)
        sectors = np.concatenate((paired[:, :, 0], paired[n - blocks : 0 : -1, :, 1]))
        sectors *= np.conj(self._gauge)
        back = np.fft.ifft(sectors, axis=0, norm="ortho") * self._cell_weight
        # an antipodal pair has a cell in each triangle; the sum joins them
        half = np.zeros((n, n), dtype=complex)
        half[np.arange(n)[:, None], self._cell_cols] = back
        return half + half.T


_CacheInfo = namedtuple("_CacheInfo", "hits misses currsize kept_bytes")


class _RingKernels:
    """``ring_kernel(spec)``: the ring's kernel, built on its first request and kept.

    ``green2`` and ``protocols.UnitaryQdpEngine`` both read their kernel
    here, so gate commands and ``green2`` calls share one build per ring,
    also when they alternate between rings. Kernels stay alive after their
    callers return. After each build the least recently used kernels are
    dropped until the modes kept (``_evecs.nbytes``) total at most
    ``_MAX_KEPT_BYTES``, the modes of one MAX_RING_SITES ring (134.7 MB);
    the kernel just built is never dropped. ``cache_clear()`` frees them all,
    and ``cache_info()`` reports hits, misses, kernels kept and their mode
    bytes, which depend on what the process asked before. A kernel is
    shared read-only: nothing mutates it after the build.
    """

    def __init__(self) -> None:
        self._kernels: OrderedDict[ChainSpec, RingTwoMagnon] = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, spec: ChainSpec) -> RingTwoMagnon:
        kernel = self._kernels.get(spec)
        if kernel is not None:
            self._hits += 1
            self._kernels.move_to_end(spec)
            return kernel
        self._misses += 1
        kernel = self._kernels[spec] = RingTwoMagnon(spec)
        while len(self._kernels) > 1 and self._kept_bytes() > _MAX_KEPT_BYTES:
            self._kernels.popitem(last=False)
        return kernel

    def _kept_bytes(self) -> int:
        return sum(kernel._evecs.nbytes for kernel in self._kernels.values())

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, len(self._kernels), self._kept_bytes())

    def cache_clear(self) -> None:
        self._kernels.clear()
        self._hits = self._misses = 0


ring_kernel = _RingKernels()


def green2(
    x1: int, x2: int, x1p: int, x2p: int, t: float, spec: ChainSpec, part: Part = "total"
) -> Green2Value:
    """Two-magnon amplitude (x1, x2) -> (x1p, x2p) after time t on the ring ``spec``.

    ``part`` restricts the propagation to the bound band or the scattering
    states; the two add up to the total. Open chains raise ValueError, and
    so do the times ``RingTwoMagnon.evolve_projected`` refuses. The source
    pair is projected onto the kernel's modes and evolved once. The ring's
    kernel comes from ``ring_kernel``: built on the first call for ``spec``
    and kept for later calls, its N^3 bytes of modes alive after the call
    returns, under the store's ceiling of one 512-site ring's modes
    (134.7 MB). Arguments are checked before the kernel is looked up.
    """
    s1, s2 = _normalize_pair(x1, x2)
    d1, d2 = _normalize_pair(x1p, x2p)
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if min(s1, d1) < 1 or max(s2, d2) > spec.n:
        raise ValueError(f"pair sites must lie in 1..{spec.n}")
    _check_evolution(t, part, spec)
    source = np.zeros((spec.n, spec.n), dtype=complex)
    source[s1 - 1, s2 - 1] = source[s2 - 1, s1 - 1] = 1.0
    ring = ring_kernel(spec)
    evolved = ring.evolve_projected(ring.project(source), t, part)
    value = reduced_phase(spec, t) * complex(evolved[d1 - 1, d2 - 1])
    return Green2Value(value)
