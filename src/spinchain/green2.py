"""Two-magnon propagators on closed rings: exact evolution split into bound and scattering parts.

``RingTwoMagnon`` diagonalizes the two-excitation sector of a ring once, as
floor(N/2) + 1 real tridiagonal blocks over pair separations (momenta k and
N - k share one), and evolves any pair state exactly. Each block's modes are
Bethe-ansatz waves (bound ones included) at the roots of its first-row
condition, found by safeguarded Newton steps in brackets set by interlacing;
they are filled one separation row at a time into the N^3 bytes of modes the
kernel keeps, and the build holds little beyond them. A pair state is a symmetric
complex N x N matrix with a zero diagonal: entry (y1 - 1, y2 - 1) holds the
pair {y1, y2}. Its sector eigenstates below the continuum bottom form the
bound band; the rest scatter; the two parts resolve the identity.
An evolution is always two calls: ``project`` (the pair state's coefficients
on the modes, independent of the time), then ``evolve_projected`` (per time,
one write per cell and its mirror); a caller that evolves one state to many
times projects it once.
``green2`` projects one source pair, evolves it and reads one target
entry. Both it and the spin chain's pair channel, ``protocols.SpinChain.pairs``,
take their kernel from ``ring_kernel``, which keeps one kernel per ring in
the dict ``kernels`` while their modes total at most those of one
``MAX_RING_SITES`` ring (134.7 MB), dropping the least recently used first;
``kernels.clear()`` frees them.

Amplitudes inside ``RingTwoMagnon`` are reduced (measured from the polarized
reference, like green1's reduced rows); ``green2`` returns full amplitudes,
carrying the global phase e^{-i*eps0*t}. Open chains have no momentum
sectors and are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .bessel import MAX_ARG
from .chain import ChainSpec, reduced_phase

Part = Literal["bound", "scattering", "total"]

#: Largest ring RingTwoMagnon builds. Its floor(N/2) + 1 real blocks of modes
#: take N^3 bytes (134 MB at 512 sites); the build's transient is O(N^2) beside them.
MAX_RING_SITES = 512
#: Rows per restart of the rotation e^{ik} that fills a mode; the modes stay
#: within 1e-14 of direct cos and sin (5.1e-15 measured up to N = 512).
_ROTATION_ROWS = 16
#: Roots iterate until a step is this small relative to the root (absolute below 1).
_ROOT_EPS = 2.0 * np.finfo(float).eps
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


def _newton_roots(fdf, lo: np.ndarray, hi: np.ndarray, s_hi: np.ndarray, *params: np.ndarray):
    """The positive root of fdf in each bracket [lo, hi], where it has sign s_hi at hi and -s_hi at lo.

    fdf(x, *params) returns the function and its derivative. Every
    evaluation shrinks its bracket. A Newton step is clipped to the bracket
    (a root can sit at its end to rounding); one that then reaches 0, stays
    put or is not half the step before last splits the bracket instead. A
    root is done when its Newton step or its bracket is at rounding (brackets
    lie in [0, inf)); done roots drop out.
    """
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    step, last = 2.0 * (hi - lo), 2.0 * (hi - lo)
    todo = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(todo):
            at = x[todo]
            f, df = fdf(at, *(p[todo] for p in params))
            high = np.sign(f) == s_hi[todo]
            hi[todo[high]] = at[high]
            lo[todo[~high]] = at[~high]
            low, up = lo[todo], hi[todo]
            newton = at - f / df
            tol = _ROOT_EPS * np.maximum(np.abs(at), 1.0)
            rounded = np.abs(newton - at) <= tol
            target = np.clip(newton, low, up)
            bisect = ~(target > 0.0) | (target == at) | (np.abs(2.0 * f) > np.abs(last[todo] * df))
            # a bracket over decades (a root near a threshold) splits at its geometric mean
            middle = np.where(low > 0.0, np.sqrt(low * up), 0.5 * (low + up))
            new = np.where(rounded, newton, np.where(bisect, middle, target))
            last[todo], step[todo] = step[todo], new - at
            x[todo] = new
            todo = todo[~rounded & (up - low > tol)]
    return x


def _one_plus(sigma: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 + sigma*e^y for sigma = +-1 and y <= 0, without cancellation at sigma = -1."""
    return np.where(sigma > 0, 1.0 + np.exp(y), -np.expm1(y))


def _phase_condition(k, c, d, h, floor):
    """G(k) = s - arccot((d - c*cos(k))/(c*sin(k))), s = (k - floor)(h - 1), and G'(k).

    floor is the k where a gap of the roots kappa_j begins: across the gap s
    runs over (0, pi), psi(1) = +-sin(s) and psi(0) = +-sin(s + k), so f(k) = 0
    is cot(s) = (d - c*cos(k))/(c*sin(k)), and G's root in the gap is f's.
    G is near linear with slope h - 1, and both of its terms are small at a
    root near the floor, where thresholds sit.
    """
    cos, sin = np.cos(k), np.sin(k)
    near = c - d * cos
    size = np.hypot(near, d * sin)
    return (
        (k - floor) * (h - 1.0) - np.arctan2(np.abs(c) * sin, np.sign(c) * (d - c * cos)),
        (h - 1.0) + (c / size) * (near / size),
    )


def _bound_condition(kappa, c, d, h, sigma):
    """The same condition at k = i*kappa, on psi(r) = e^{-kappa*r}(1 + sigma*e^{-2*kappa(h - r)}).

    This scaling of the mode cannot overflow for any kappa.
    """
    x, p, q = np.exp(-kappa), np.exp(-2.0 * kappa * h), np.exp(-2.0 * kappa * (h - 1.0))
    f = c * _one_plus(sigma, -2.0 * kappa * h) - d * x * _one_plus(sigma, -2.0 * kappa * (h - 1.0))
    return f, d * x * (1.0 + sigma * (2.0 * h - 1.0) * q) - 2.0 * sigma * c * h * p


def _sector_roots(n: int, c: np.ndarray, d: float):
    """Ascending levels of the floor(N/2) + 1 real sector blocks, and what their modes need.

    Block b hops c[b] between separations r and r + 1 (r = 1..floor(N/2)), has
    the contact d at r = 1 and its fold at the far end: for even N a sqrt(2)
    hop onto the antipodal row, or for odd b no antipodal row (its level is
    parked at |d| + 4, its mode the unit vector, both last); for odd N a self term
    sigma*c, sigma = (-1)^b. With h = N/2 every mode is w_r*psi(r),
    psi(r) = cos(k(r - h)) (sigma = +1) or sin(k(r - h)) (sigma = -1),
    w_r = sqrt(2) off the antipodal row and 1 on it, at level 2c*cos(k), and
    it solves the first row if f(k) = c*psi(0) - d*psi(1) = 0 (H. Bethe,
    Z. Phys. 71, 205 (1931); bound modes: M. Wortis, Phys. Rev. 132, 85 (1963)).

    Dropping row 1 leaves the roots kappa_j of psi(1) = 0, which interlace
    the block's: one root in each gap between them, and the lowest below
    kappa_1, or at k = i*kappa (a bound mode) when f does not change sign on
    (0, kappa_1). The staggered block (hop -c, sigma flipped for odd N, mode
    times (-1)^r) has the same levels in reverse, so the upper half of the
    roots are taken as its lower half, where k stays small and so do the
    phases k(r - h); its k = i*kappa is the antibound mode. 1 x 1 blocks are
    their diagonal entry.

    Returns the levels, each column's k, whether it is a sine and whether it
    is staggered, and the bound and antibound columns: their (block, column)
    and their modes over r, unnormalized.
    """
    r_full, h = n // 2, n / 2
    blocks = len(c)
    sigma = np.where(np.arange(blocks) % 2 == 0, 1.0, -1.0)
    parks = (n % 2 == 0) & (sigma < 0)
    size = np.where(parks, r_full - 1, r_full)

    # lower and upper half of each block's roots, the upper from the staggered block
    two = np.flatnonzero(size >= 2)
    half_block = np.concatenate((two, two))
    stagger = np.repeat([False, True], len(two))
    half_c = np.where(stagger, -c[half_block], c[half_block])
    half_sigma = np.where(stagger & (n % 2 == 1), -1.0, 1.0) * sigma[half_block]
    half_size = (size[half_block] + ~stagger) // 2
    half, index = np.nonzero(np.arange((r_full + 1) // 2) < half_size[:, None])
    block, hop, parity, staggered = half_block[half], half_c[half], half_sigma[half], stagger[half]
    # columns ascend in k, so in level while c < 0; b = N/2 can round to c > 0
    col = np.where(staggered == (c[block] < 0), size[block] - 1 - index, index)
    # sign of f(0+) (of f/k for sigma = -1), as seen from the bound side k = i*kappa
    at_zero = np.sign(np.where(parity > 0, hop - d, hop * h - d * (h - 1.0)))
    beyond = (index == 0) & (at_zero == -np.sign(hop))

    # f(0) = 0 (f/k -> 0 for sigma = -1): the root is k -> 0+, where cos(k(r - h))
    # is 1 and sin(k(r - h)) is k(r - h) to rounding
    flat = (index == 0) & (at_zero == 0)
    solve = ~beyond & ~flat
    k = np.where(flat, 1e-100, 0.0)
    gap = math.pi / (h - 1.0)  # roots of psi(1) = 0: kappa_j = gap*(j - 1/2) or gap*j
    floor = gap * (index[solve] - 0.5 * (parity[solve] > 0))
    k[solve] = _newton_roots(
        lambda k, c_, floor_: _phase_condition(k, c_, d, h, floor_),
        np.maximum(floor, 0.0), floor + gap, np.ones(len(floor)), hop[solve], floor,
    )

    # each column is cos(k(r - h)) or sin(k(r - h)), times (-1)^r if staggered;
    # the parked, 1 x 1 and bound columns start from k = 0 and are set below
    evals = np.empty((blocks, r_full))
    wave = np.zeros((blocks, r_full))
    sine = np.zeros((blocks, r_full), dtype=bool)
    flipped = np.zeros((blocks, r_full), dtype=bool)
    evals[size == 1, 0] = d + (n % 2) * sigma[size == 1] * c[size == 1]
    evals[parks, -1] = abs(d) + 4.0
    real = ~beyond
    evals[block[real], col[real]] = 2.0 * hop[real] * np.cos(k[real])
    wave[block[real], col[real]] = k[real]
    sine[block[real], col[real]] = parity[real] < 0
    flipped[block, col] = staggered

    # bound and antibound modes, at k = i*kappa
    bound_block, bound_col, bc, bs = block[beyond], col[beyond], hop[beyond], parity[beyond]
    # e^kappa = (d/c)(1 + sigma*e^{-2kappa(h-1)})/(1 + sigma*e^{-2kappa h}), that factor
    # in [1, 2) for sigma = +1 and in ((h - 1)/h, 1] for sigma = -1 (h >= 5/2 here),
    # so kappa lies within 1 of log(d/c)
    ratio = np.log(np.full(len(bc), abs(d))) - np.log(np.abs(bc))
    kappa = _newton_roots(
        lambda x, c_, s_: _bound_condition(x, c_, d, h, s_),
        np.maximum(ratio - 1.0, 0.0),
        ratio + 1.0,
        np.sign(bc), bc, bs,
    )
    # 2c*cosh(kappa), with c*e^kappa from the root condition: no cancellation at large kappa
    evals[bound_block, bound_col] = d * _one_plus(bs, -2.0 * kappa * (h - 1.0)) / _one_plus(
        bs, -2.0 * kappa * h
    ) + bc * np.exp(-kappa)
    r = np.arange(1, r_full + 1)
    bound_modes = np.exp(-kappa[:, None] * (r - 1)) * _one_plus(bs[:, None], -2.0 * kappa[:, None] * (h - r))
    bound_modes[staggered[beyond]] *= (-1.0) ** r
    return evals, wave, sine, flipped, (bound_block, bound_col, bound_modes)


def _sector_modes(n: int, c: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending levels and orthonormal modes of the sector blocks (see ``_sector_roots``).

    The modes are filled one separation row of every block at a time, straight into the N^3
    bytes they take: one complex row, turned by e^{ik} from row to row and restarted from
    the direct exponential every ``_ROTATION_ROWS`` rows.
    """
    evals, wave, sine, flipped, (bound_block, bound_col, bound_modes) = _sector_roots(n, c, d)
    blocks, r_full = wave.shape
    # row i, at separation r = i + 1, is e^{ik(r - h)}: row i - 1 turned by e^{ik}, times -1
    # per row where staggered, restarted every _ROTATION_ROWS rows (always at an odd r)
    turn = np.exp(1j * wave) * np.where(flipped, -1.0, 1.0)
    row = np.empty((blocks, r_full), dtype=complex)
    evecs = np.empty((blocks, r_full, r_full))
    for i in range(r_full):
        if i % _ROTATION_ROWS:
            row *= turn
        else:
            np.exp(1j * wave * (i + 1 - n / 2), out=row)
            row[sine] *= -1j  # Re(-i e^{ix}) = sin(x) with no rounding of pi/2
        evecs[:, i] = row.real
    evecs[bound_block, :, bound_col] = bound_modes
    if n % 2 == 0:
        evecs[:, -1] *= math.sqrt(0.5)  # w on the antipodal row, relative to the rest
        evecs[1::2, -1, :] = 0.0  # an odd block's parked level: the unit vector on that row
        evecs[1::2, :, -1] = 0.0
        evecs[1::2, -1, -1] = 1.0
    evecs /= np.sqrt(np.einsum("brk,brk->bk", evecs, evecs))[:, None, :]
    return evals, evecs


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
    are diagonalized. No block is formed: its modes are cos or sin waves
    over the separations (or decaying ones, for a bound or antibound level)
    at the roots of the block's first-row condition (``_sector_roots``), and
    the build holds the modes plus one complex separation row of every block.

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

        # grid cell (x, r): the pair matrix's flat entry (x, x + r mod N) and its mirror
        r_full = n // 2
        r = np.arange(1, r_full + 1)
        sites, partners = np.arange(n)[:, None], (np.arange(n)[:, None] + r) % n
        self._cells, self._mirrors = sites * n + partners, partners * n + sites
        self._cell_weight = np.where(2 * r == n, 1.0 / math.sqrt(2.0), 1.0)

        # Sector k hops -4J cos(pi k'/N) e^{i pi k'/N}, k' = k - N above N/2, so
        # the gauge e^{-i r pi k'/N} on separation row r makes its block real;
        # sectors k and N - k (equal |cos|, parity and fold term) then share
        # block b = min(k, N - k).
        k = np.arange(n)
        signed_k = np.where(2 * k > n, k - n, k)
        self._gauge = np.exp(-1j * math.pi * np.outer(signed_k, np.arange(r_full)) / n)
        self._gauge_conj = np.conj(self._gauge)
        b = np.arange(r_full + 1)
        cos_b = np.cos(math.pi * b / n)
        # the blocks in units of 4J: hop -cos(pi b/N), contact -Delta, so no J
        # that ChainSpec admits rounds a hop to 0
        levels, self._evecs = _sector_modes(n, -cos_b, -spec.delta)
        self._evals = 4.0 * j * levels
        live = np.ones((r_full + 1, r_full), dtype=bool)
        if n % 2 == 0:
            live[1::2, -1] = False  # the parked level of an odd sector
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
        grid = psi.ravel()[self._cells] * self._cell_weight
        sectors = np.fft.fft(grid, axis=0, norm="ortho") * self._gauge
        # sectors k and N - k as the two complex columns of block k, each
        # column a pair of real ones against the shared real modes
        paired = np.stack((sectors[:blocks], sectors[-np.arange(blocks)]), axis=-1)
        return (self._evecs.transpose(0, 2, 1) @ paired.view(float)).view(complex)

    def evolve_projected(self, coeffs: np.ndarray, t: float, part: Part = "total") -> np.ndarray:
        """The pair state whose ``project`` coefficients are coeffs, evolved for time t.

        Only the part that depends on t: the phases cos(Et) + i sin(-Et) (the bits
        of e^{-iEt}, cheaper), the part's mode mask, the product back off the modes,
        the inverse FFT and the write of each cell and its mirror into a symmetric
        N x N matrix with a zero diagonal. coeffs is not modified.
        The bound and scattering parts add up to the total. A NaN or infinite
        t, or 4*J*(|Delta| + 2)*|t| above ``bessel.MAX_ARG``, is refused.
        """
        _check_evolution(t, part, self.spec)
        n, blocks = len(self._gauge), len(self._evals)
        angles, phases = self._evals * t, np.empty(self._evals.shape, dtype=complex)
        np.cos(angles, out=phases.real)
        np.sin(-angles, out=phases.imag)
        modes = coeffs * (phases * self._keep[part])[:, :, None]
        paired = (self._evecs @ modes.view(float)).view(complex)
        sectors = np.concatenate((paired[:, :, 0], paired[n - blocks : 0 : -1, :, 1]))
        sectors *= self._gauge_conj
        back = np.fft.ifft(sectors, axis=0, norm="ortho") * self._cell_weight
        pairs = np.empty(n * n, dtype=complex)
        pairs[self._cells] = back
        pairs[self._mirrors] = back
        pairs[:: n + 1] = 0.0
        if n % 2 == 0:  # an antipodal pair has two cells, (x, N/2) and (x + N/2, N/2): their sum
            pairs[self._cells[:, -1]] = back[:, -1] + back[np.arange(n) - n // 2, -1]
        return pairs.reshape(n, n)


#: The kernels ``ring_kernel`` keeps, least recently used first.
kernels: dict[ChainSpec, RingTwoMagnon] = {}


def ring_kernel(spec: ChainSpec) -> RingTwoMagnon:
    """The ring's kernel, built on its first request and kept in ``kernels``.

    ``green2`` and ``protocols.SpinChain.pairs`` both read their kernel
    here, so gate commands and ``green2`` calls share one build per ring,
    also when they alternate between rings. After each build the least
    recently used kernels are dropped until the modes kept
    (``_evecs.nbytes``) total at most ``_MAX_KEPT_BYTES``, the modes of one
    MAX_RING_SITES ring (134.7 MB); the kernel just built is never dropped,
    and a build that raises stores nothing. A kernel is shared read-only:
    nothing mutates it after the build.
    """
    if spec in kernels:
        kernel = kernels[spec] = kernels.pop(spec)  # to the end: dict order is use order
        return kernel
    kernel = kernels[spec] = RingTwoMagnon(spec)
    while len(kernels) > 1 and sum(k._evecs.nbytes for k in kernels.values()) > _MAX_KEPT_BYTES:
        del kernels[next(iter(kernels))]
    return kernel


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
