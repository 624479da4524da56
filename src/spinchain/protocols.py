"""State-transfer protocols: free evolution and one local process at site m, time t0.

A single excitation encodes a qubit (alpha, beta) as alpha|vacuum> + beta|site 1>.
The protocols track the reduced density matrix of every target site through
free evolution, or through one instantaneous local process given by its Kraus
operators (a ``chain.LocalProcess``): the measurement, the gate or any other.
Fidelities are reported per encoded state or averaged over the Bloch sphere.

Every stream is a sequence of (times x N) row blocks, each of
max(1, ``_BLOCK_CELLS`` // N) times. A dynamics yields them from a source
site: ``SpinChain.rows`` takes one ``reduced_profile`` call per block, and
``harper.KickedChain.rows`` steps a vector once per kick. Readouts act
elementwise on blocks. ``fidelity_from_amplitudes`` reads the free rows, its
Bloch average in closed form. A process on either dynamics is read through
``ProcessEngine(dynamics, process)``: its ``rows`` are blocks of g =
g(1 -> l; t), g_tau = g(m -> l; t - t0), u0(m) = g(1 -> m; t0) (the
dynamics' own row at t0, read once) and, when an operator flips an unflipped
site m, the contractions of the dynamics' pair matrix L, one L at a time.
On the spin chain its ``fidelity_rows`` and ``split_rows`` take a whole time
axis, split it at t0 and check, before any block, the last time of every
row they read; the block readouts ``process_fidelity``, ``site_rdm`` and
``occupation_change`` read ``rows`` blocks. With k = u0(m) g_tau, each
operator K = [[a, b], [c, d]] gives the one-magnon row A = beta (a g + (d - a) k) +
alpha c g_tau, the vacuum V = alpha a + beta b u0(m) and the pairs P = beta c L.
The site RDM sums over K: x = sum (|A|^2 + sum_y |P_ly|^2) and
y = <flipped|rho|unflipped> = sum (A conj(V) + P conj(A)). The one readout,
``_forms``, expands both in the amplitudes, so a block's rows are formed once
and each state only weighs them; the Bloch average is the mean over six
states. The change against free evolution is read in a reduced form: by
completeness, sum K^dagger K = 1, each of its terms carries R = A - a beta g,
c, or sum |a|^2 - 1. ``grid_csv`` turns each arriving block into a checked
chunk of CSV text, built from 4-byte words of digits, so no command holds its
grid. Readouts consume reduced amplitudes (the e^{-i*eps0*t} reference phase
drops out); the pieces of a one-operator process (UnitaryState) carry full phases.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, InitialState, LocalProcess, reduced_phase
from .green1 import propagator_argument, reduced_profile
from .green2 import Part, _check_evolution, _check_ring, ring_kernel


# --------------------------------------------------------------------------
# Reduced-density-matrix elements and fidelity forms
# --------------------------------------------------------------------------


def _check_rdm(x, y) -> None:
    """Raise unless every (x, y) is a physical site RDM: x in [0, 1], |y|^2 <= x(1-x)."""
    # written as "all inside" so that NaN, which compares False, fails too
    if not np.all((x >= -1e-9) & (x <= 1.0 + 1e-9)):
        raise ValueError(f"excitation weight x outside [0, 1]: {np.min(x)} .. {np.max(x)}")
    excess = np.abs(y) ** 2 - x * (1.0 - x)
    if np.any(excess > 1e-9):
        raise ValueError(f"coherence |y|^2 exceeds the bound x(1-x) by {np.max(excess):.3e}")


def _projector(initial: InitialState) -> tuple:
    """The encoded state's projector entries (|alpha|^2, |beta|^2, beta conj(alpha))."""
    return abs(initial.alpha) ** 2, abs(initial.beta) ** 2, initial.beta * np.conj(initial.alpha)


#: The projector entries of the six +-z, +-x and +-y Bloch states, stacked on
#: a leading axis before a block's (times, sites). Every fidelity here is
#: linear in the state's projector times an RDM linear in it, so the mean over
#: the six is the exact Bloch average (they form a 3-design; Bowdrey et al.,
#: Phys. Lett. A 294, 258 (2002)).
_SIX_STATES = tuple(np.array(entry).reshape(6, 1, 1) for entry in (
    [1.0, 0.0, 0.5, 0.5, 0.5, 0.5],
    [0.0, 1.0, 0.5, 0.5, 0.5, 0.5],
    [0.0, 0.0, 0.5, -0.5, 0.5j, -0.5j],
))


def _fidelity(x, y, state: tuple, base: float = 1.0):
    """Fidelity rows of the states ``state`` (``_projector`` entries) from RDM rows (x, y).

    With ``base`` 0 and the changes of (x, y) against free evolution: the fidelity's change."""
    aa, bb, ba = state
    return aa * (base - x) + bb * x + (2.0 * np.conj(ba) * y).real


def _forms(process: LocalProcess, g, g_tau, u0_m: complex, pair, change: bool) -> tuple:
    """The readout of one block: the rows (X_bb, X_aa, X_ba, Y_ba, Y_bb, Y_aa, Y_ab).

    A state (alpha, beta) then has the site RDM rows
    x = |beta|^2 X_bb + |alpha|^2 X_aa + 2 Re(beta conj(alpha) X_ba) and
    y = beta conj(alpha) Y_ba + |beta|^2 Y_bb + |alpha|^2 Y_aa + alpha conj(beta) Y_ab
    (``_rdm``), the sums over K of the pieces A, V and P. ``pair`` is None
    or the block's (sum_y |L_ly|^2, L conj(g), L conj(g_tau)). With
    ``change`` the rows are those of x - |beta|^2 |g|^2 and
    y - beta conj(alpha) g, in the reduced form. A row no term reaches is 0.0.
    """
    k = u0_m * g_tau
    x_bb = x_aa = x_ba = y_ba = y_bb = y_aa = y_ab = 0.0  # each += below makes a new array first
    for (a, b), (c, d) in process.kraus:
        r = (d - a) * k  # the beta part of R = A - a beta g; its alpha part is h below
        one = a * g + r  # the beta part of A
        x_bb += 2.0 * (a * g * np.conj(r)).real + np.abs(r) ** 2 if change else np.abs(one) ** 2
        y_ba += np.conj(a) * (r if change else one)
        if b:
            y_bb += np.conj(b * u0_m) * (r if change else one)
        if c:
            weight, l_g, l_tau = pair
            h = c * g_tau
            x_bb += abs(c) ** 2 * weight
            x_aa += np.abs(h) ** 2
            x_ba += one * np.conj(h)
            y_ba += abs(c) ** 2 * l_tau
            y_bb += c * (np.conj(a) * l_g + np.conj((d - a) * u0_m) * l_tau)
            y_aa += np.conj(a) * h
            y_ab += np.conj(b * u0_m) * h
    if change:  # the free terms, each with sum |a|^2 - 1 or, by completeness, sum c conj(d)
        excess = float(np.sum(np.abs(process.kraus[:, 0, 0]) ** 2)) - 1.0
        x_bb += excess * np.abs(g) ** 2
        y_ba += excess * g
        y_bb -= np.sum(process.kraus[:, 1, 0] * np.conj(process.kraus[:, 1, 1])) * np.conj(u0_m) * g
    return x_bb, x_aa, x_ba, y_ba, y_bb, y_aa, y_ab


def _rdm(forms: tuple, state: tuple):
    """Site RDM rows (x, y), or their changes, of the states ``state`` from ``_forms``."""
    x_bb, x_aa, x_ba, y_ba, y_bb, y_aa, y_ab = forms
    aa, bb, ba = state
    x = bb * x_bb + aa * x_aa + (2.0 * ba * x_ba).real
    return x, ba * y_ba + bb * y_bb + aa * y_aa + np.conj(ba) * y_ab


def fidelity_from_amplitudes(u: np.ndarray, initial: InitialState | None = None) -> np.ndarray:
    """Transfer fidelity per site from the amplitudes u of an excitation released at site 1.

    Without ``initial``: the Bloch average 1/2 + |u_l|^2/6 + Re(u_l)/3 in
    closed form. With it: the per-state fidelity of (alpha, beta).
    """
    abs2 = np.abs(u) ** 2
    if initial is None:
        # summed as (1/2 - |u|^2/6) + |u|^2/3 + Re(u)/3: the printed grids' last digits depend on it
        return 0.5 - abs2 * (1.0 / 6.0) + abs2 * (1.0 / 3.0) + u.real * (1.0 / 3.0)
    state = _projector(initial)
    x, y = state[1] * abs2, state[2] * u
    _check_rdm(x, y)
    return _fidelity(x, y, state)


# --------------------------------------------------------------------------
# Row blocks and the local-process stream
# --------------------------------------------------------------------------


#: Cells (times x sites) of one row block: every stream yields
#: max(1, _BLOCK_CELLS // N) times per block, the last block fewer.
_BLOCK_CELLS = 8192


def _blocks(times, n: int) -> Iterator:
    """``times`` cut into consecutive runs of max(1, _BLOCK_CELLS // n), the last one shorter."""
    step = max(1, _BLOCK_CELLS // n)
    return (times[start : start + step] for start in range(0, len(times), step))


def _zero_rows(times, n: int) -> Iterator[np.ndarray]:
    """Blocks of zero rows at ``times``: a change, or a pair term, before the process."""
    return (np.zeros((len(chunk), n)) for chunk in _blocks(times, n))


class SpinChain:
    """The spin chain's dynamics: reduced rows from a source site at any times; on rings, pairs."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.n = spec.n

    def check(self, t: float) -> None:
        """Refuse a time the rows refuse (t < 0, NaN, 4Jt over ``MAX_ARG``), computing none."""
        propagator_argument(t, self.spec)

    def rows(self, source: int, times) -> Iterator[np.ndarray]:
        """Blocks of the reduced rows g(source -> l; t), one ``reduced_profile`` call per block."""
        return (reduced_profile(source, chunk, self.spec) for chunk in _blocks(times, self.n))

    def check_pairs(self, t: float, part: Part) -> None:
        """Refuse a chain with no pair channel (rings of 3 to 512 sites have one), a pair time, a part."""
        _check_ring(self.spec)
        _check_evolution(t, part, self.spec)

    def pairs(self, m: int, u0: np.ndarray):
        """The evolution (t, part) -> L of the pairs {m, y} from amplitudes u0(y), per call one
        ``evolve_projected`` of the source projected once on the ring's shared ``ring_kernel``."""
        source = np.zeros((self.n, self.n), dtype=complex)
        source[m - 1] = source[:, m - 1] = u0
        source[m - 1, m - 1] = 0.0
        ring = ring_kernel(self.spec)
        return functools.partial(ring.evolve_projected, ring.project(source))


def _check_measurement_times(t: float, t0: float) -> None:
    if t < t0:
        raise ValueError(
            f"t = {t} precedes the measurement at t0 = {t0}; use the free forms "
            "for earlier times (at t = t0 the measurement has already occurred)"
        )


def site_rdm(process: LocalProcess, block: tuple, initial: InitialState):
    """Checked site RDM rows (x, y) of ``initial`` after ``process``, from one engine ``rows`` block."""
    x, y = _rdm(_forms(process, *block, change=False), _projector(initial))
    _check_rdm(x, y)
    return x, y


def process_fidelity(process: LocalProcess, blocks, initial: InitialState | None = None,
                     change: bool = False) -> Iterator[np.ndarray]:
    """Per-state or Bloch-averaged (no ``initial``) fidelity rows of every engine ``rows`` block.

    With ``change``, each row minus the free row, in the reduced form."""
    state = _SIX_STATES if initial is None else _projector(initial)
    for block in blocks:
        x, y = _rdm(_forms(process, *block, change), state)
        if not change:
            _check_rdm(x, y)
        rows = _fidelity(x, y, state, 0.0 if change else 1.0)
        yield rows if initial is not None else rows.mean(axis=0)


def occupation_change(process: LocalProcess, blocks, initial: InitialState) -> Iterator[np.ndarray]:
    """Detector rows of every engine ``rows`` block: site occupation with minus without it.

    Each row of a number-keeping process (the measurement) sums to zero; ValueError unless
    it does to 1e-9."""
    for block in blocks:
        occupation, _ = site_rdm(process, block, initial)
        change = occupation - abs(initial.beta) ** 2 * np.abs(block[0]) ** 2
        worst = float(np.max(np.abs(np.sum(change, axis=1))))
        # written as "not within" so that NaN, which compares False, fails too
        if not worst <= 1e-9:
            raise ValueError(f"detector profile must sum to 0, got |sum| = {worst:.3e}")
        yield change


# --------------------------------------------------------------------------
# The local process on the spin chain: one- and two-magnon channels
# --------------------------------------------------------------------------


def _pair_weights(pairs: np.ndarray) -> np.ndarray:
    """The row weights sum_y |L_ly|^2 of a pair matrix, as sums of squares over its float view."""
    return np.einsum("ij,ij->i", pairs.view(float), pairs.view(float))


@dataclass(frozen=True, eq=False)
class UnitaryState:
    """The pieces V, A and P (full phases) of a one-operator process: its sector amplitudes.

    two_magnon is symmetric with a zero diagonal, entry (y1 - 1, y2 - 1) the pair {y1, y2};
    without a pair channel, a read-only view of zeros. norm_defect is |1 - total norm^2|."""

    vacuum: complex
    one_magnon: np.ndarray
    two_magnon: np.ndarray
    norm_defect: float


class ProcessEngine:
    """A local process on a dynamics, ``SpinChain`` or ``harper.KickedChain``, read at any times.

    Building it refuses, before any row is computed, a site m above the dynamics' n and a
    process that flips site m on a dynamics whose ``check_pairs`` refuses it (below).

    ``rows`` yields the blocks a block readout (``process_fidelity``, ``site_rdm``,
    ``occupation_change``) reads at times t >= t0. The readouts ``fidelity_rows`` and
    ``split_rows`` take a whole time axis and split it at t0 themselves; they and ``state``
    refuse, when called and before any row or kernel, the last time of every row and pair
    evolution they will read (the dynamics' ``check`` refuses every time of a kicked chain).

    A process that flips site m (some c != 0) pairs the amplitude u0 = g(1 -> l; t0) of each
    companion site with site m, and the dynamics evolves the pairs into L(y1, y2; t): its
    ``check_pairs(t, part)`` refuses what it cannot, and its ``pairs(m, u0)``, taken at the
    first time at or after t0 (so never for a grid that ends before t0), gives L per time,
    one held at a time. Any other process runs on either dynamics, in O(N) memory.
    """

    def __init__(self, dynamics, process: LocalProcess):
        if process.m > dynamics.n:  # LocalProcess refuses m < 1
            raise ValueError(f"site m={process.m} out of range 1..{dynamics.n}")
        if process.opens_pairs:
            dynamics.check_pairs(0.0, "total")
        self.dynamics = dynamics
        self.process = process

    @functools.cached_property
    def u0(self) -> np.ndarray:
        """The dynamics' own row g(1 -> l; t0), computed on its first read."""
        return next(self.dynamics.rows(1, [self.process.t0]))[0]

    @functools.cached_property
    def _pairs(self):
        """The dynamics' pair evolution (t - t0, part) -> L from site m and ``u0``, on first read."""
        return self.dynamics.pairs(self.process.m, self.u0)

    def _pair_matrix(self, t: float, part: Part) -> np.ndarray | None:
        """Reduced L of one part, symmetric with zero diagonal (row l holds L(l, y)), or None."""
        _check_measurement_times(t, self.process.t0)
        return self._pairs(t - self.process.t0, part) if self.process.opens_pairs else None

    def _pair_rows(self, times, g: np.ndarray, g_tau: np.ndarray) -> tuple:
        """A block's pair contractions (sum_y |L_ly|^2, L conj(g), L conj(g_tau)), one L at a time."""
        right = np.conj(np.stack((g, g_tau), axis=-1))  # each time's (N, 2) right-hand side
        weight, products = np.empty(g.shape), np.empty_like(right)
        for i, t in enumerate(times):
            pairs = self._pair_matrix(t, "total")
            weight[i] = _pair_weights(pairs)
            np.matmul(pairs, right[i], out=products[i])
        return weight, products[..., 0], products[..., 1]

    def rows(self, times) -> Iterator[tuple]:
        """(g, g_tau, u0_m, pair) blocks of the process at the ascending ``times`` >= t0.

        g holds the rows ``dynamics.rows(1, times)``, g_tau ``dynamics.rows(m, times - t0)``,
        u0_m entry m of ``u0``; ``pair`` is None without a pair channel, else the block's
        pair contractions."""
        if not len(times):
            return
        t0, m = self.process.t0, self.process.m
        _check_measurement_times(times[0], t0)
        rows = zip(_blocks(times, self.dynamics.n), self.dynamics.rows(1, times),
                   self.dynamics.rows(m, np.asarray(times) - t0))
        for chunk, g, g_tau in rows:
            # u0 after the first rows, so that a time out of range fails on t, not t0
            pair = self._pair_rows(chunk, g, g_tau) if self.process.opens_pairs else None
            yield g, g_tau, self.u0[m - 1], pair

    def fidelity_rows(self, times, change: bool) -> Iterator[np.ndarray]:
        """Blocks of the Bloch-averaged fidelity rows at the ascending ``times``, or their changes.

        With ``change``, each row minus the free row, in the reduced form. Before t0 the free
        rows, or zeros; a process that is a global phase reads as free evolution over the axis.
        When called: ValueError at the last time the rows from site 1 are read, if any, and at
        the pair evolution's (the rows from site m and at t0 reach no later time)."""
        times, process, n = np.asarray(times), self.process, self.dynamics.n
        cut = len(times) if process.is_phase else int(np.searchsorted(times, process.t0))
        if cut < len(times) or (cut and not change):
            self.dynamics.check(times[-1])
        if cut < len(times) and process.opens_pairs:
            self.dynamics.check_pairs(times[-1] - process.t0, "total")
        if change:
            before = _zero_rows(times[:cut], n)
        else:
            before = (fidelity_from_amplitudes(u) for u in self.dynamics.rows(1, times[:cut]))
        after = process_fidelity(process, self.rows(times[cut:]), change=change)
        return itertools.chain(before, after)

    def split_rows(self, times, part: Part) -> Iterator[np.ndarray]:
        """Blocks of one propagator part's two-magnon contribution to the averaged fidelity.

        The six states' mean change by the pair term |beta c|^2 sum_y |L_ly|^2 of x alone at
        the ascending ``times``, which moves only the flipped input's x: sum |c|^2 sum_y
        |L_ly|^2 / 6. Zeros before t0 and without a pair channel. Bound and scattering
        cross only in the total pair amplitudes. When called: ValueError at t0 and at the last
        time where the pair source or its evolution refuses them."""
        times, process, n = np.asarray(times), self.process, self.dynamics.n
        cut = int(np.searchsorted(times, process.t0)) if process.opens_pairs else len(times)
        if cut < len(times):
            self.dynamics.check(process.t0)
            self.dynamics.check_pairs(times[-1] - process.t0, part)
        flips = float(np.sum(np.abs(process.kraus[:, 1, 0]) ** 2))
        weights = (np.stack([_pair_weights(self._pair_matrix(t, part)) for t in chunk])
                   for chunk in _blocks(times[cut:], n))
        after = (flips * w / 6.0 for w in weights)  # the flipped input is one of the six states
        return itertools.chain(_zero_rows(times[:cut], n), after)

    def state(self, t: float, initial: InitialState) -> UnitaryState:
        """Full-phase pieces V, A, P of a one-operator process for one state; checked norm."""
        if len(self.process.kraus) != 1:
            raise ValueError("sector amplitudes need a process of one operator")
        self.dynamics.check(t)  # before any row or kernel, as fidelity_rows checks
        if self.process.opens_pairs:
            self.dynamics.check_pairs(t - self.process.t0, "total")
        (((a, b), (c, d)),) = self.process.kraus
        pairs = self._pair_matrix(t, "total")
        spec, m, alpha, beta = self.dynamics.spec, self.process.m, initial.alpha, initial.beta
        g, g_tau = (next(self.dynamics.rows(x, [s]))[0] for x, s in ((1, t), (m, t - self.process.t0)))
        u0_m, phase = self.u0[m - 1], reduced_phase(spec, t)
        vac = phase * (alpha * a + beta * b * u0_m)
        one = phase * (beta * (a * g + (d - a) * u0_m * g_tau) + alpha * c * g_tau)
        norm_sq = abs(vac) ** 2 + float(np.sum(np.abs(one) ** 2))
        if pairs is None:
            two = np.broadcast_to(np.complex128(0.0), (spec.n, spec.n))
        else:
            two = phase * beta * c * pairs
            norm_sq += abs(beta * c) ** 2 * float(np.sum(np.abs(pairs) ** 2)) / 2.0
        defect = abs(1.0 - norm_sq)
        if not defect <= 1e-10:  # NaN fails this test too
            raise ValueError(f"norm defect {defect:.3e} after the process at site {m}")
        return UnitaryState(complex(vac), one, two, defect)


# --------------------------------------------------------------------------
# Fidelity grids
# --------------------------------------------------------------------------


#: Bytes of one value field: the widest ``%.11e`` text, "-1.00000000000e-300".
_FIELD = 19
#: How close to .5 a scaled fraction may come before Python decides the
#: rounding. The scaled value carries at most two roundings of 2^-53 each,
#: under 2.3e-4 of a unit at 1e12, so outside this margin the nearest
#: integer is that of the exact product.
_TIE_MARGIN = 1e-3
#: Four ASCII digits of every n in 0..9999, packed so that a uint8 view of
#: a gathered uint32 array reads them in order. It is built from grids of
#: the uint8 codes 48..57 of '0'..'9': integer arithmetic would raise the
#: import's peak memory by about 1 MB.
_DIGITS4 = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    .view(np.uint32)
    .ravel()
)
#: Correctly rounded 10^k for k = -90..112 at index k + 90: the scales
#: 10^(11 - e) for the two-digit exponents e and one step past them.
_POW10 = np.array([float(f"1e{k}") for k in range(-90, 113)])


def _words(texts) -> np.ndarray:
    """Texts of four ASCII bytes each as uint32 words whose uint8 view reads them in order."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


#: Bytes 0..3 of a value field, at 100 * (sign bit) + the first two digits:
#: the sign (a zero pad byte for +), the lead digit, '.' and the next digit.
_HEAD = _words(f"{sign}{d // 10}.{d % 10}" for sign in "\0-" for d in range(100))
#: Bytes 12..15, at 100 * (e < 0) + the last two digits: the digits, 'e', the exponent sign.
_TAIL = _words(f"{d:02d}e{sign}" for sign in "+-" for d in range(100))
#: Bytes 16..19 per separator, at |e|: the exponent digits, a pad byte, the separator.
_EXPONENTS = {sep: _words(f"{e:02d}\0{sep}" for e in range(100)) for sep in ",\n"}


def _padded(texts, width: int | None = None) -> np.ndarray:
    """ASCII texts (no zero byte) as zero-padded uint8 rows, by default the longest in whole words."""
    data = [text.encode() for text in texts]
    width = -(-max(map(len, data), default=0) // 4) * 4 if width is None else width
    return np.frombuffer(b"".join(d.ljust(width, b"\0") for d in data), np.uint8).reshape(
        len(data), width
    )


def _format_e11(x: np.ndarray, out: np.ndarray, sep: str) -> None:
    """Write ``f"{v:.11e}"`` of every float v in x, then ``sep``, into the rows of ``out``.

    ``out`` is a (len(x), 5) uint32 view: each row's 20 bytes get the text
    padded with zero bytes to byte 18 and ``sep`` (',' or newline) in byte
    19, five word gathers from ``_HEAD``, ``_DIGITS4``, ``_TAIL`` and
    ``_EXPONENTS``. The 12-digit significand is the int64 nearest to
    |v|*10^(11 - e), cut into digit groups by ``//`` and subtraction.
    Python formats the cells where it can differ from the exact decimal
    rounding (a scaled fraction within ``_TIE_MARGIN`` of .5) and those
    outside the two-digit-exponent form (three-digit exponents, inf, nan)
    into bytes 0..18, leaving the separator.
    """
    finite = np.isfinite(x)
    a = np.where(finite, np.abs(x), 0.0)
    live = a > 0.0
    e = np.clip(np.floor(np.log10(np.where(live, a, 1.0))), -100, 100).astype(np.int64)
    # log10 may land one decade off next to a power of ten
    scaled = a * _POW10[101 - e]
    e += (scaled >= 1e12) & live
    e -= (scaled < 1e11) & live
    scaled = a * _POW10[101 - e]
    python = ~finite | (live & ((scaled < 1e11) | (scaled >= 1e12)))
    scaled[python] = 0.0
    whole = np.floor(scaled)
    frac = scaled - whole
    python |= np.abs(frac - 0.5) < _TIE_MARGIN
    significand = whole.astype(np.int64) + (frac >= 0.5)
    carry = significand == 10**12  # 9.999999999995e4 prints as 1.00000000000e+05
    significand[carry] = 10**11
    e += carry
    python |= np.abs(e) >= 100

    del a, scaled, whole, frac  # a lower peak for the digit groups
    lead = significand // 10**10
    significand -= lead * 10**10
    middle = significand // 10**6
    significand -= middle * 10**6
    low = significand // 100
    out[:, 0] = _HEAD[lead + 100 * np.signbit(x)]
    out[:, 1] = _DIGITS4[middle]
    out[:, 2] = _DIGITS4[low]
    out[:, 3] = _TAIL[significand - low * 100 + 100 * (e < 0)]
    out[:, 4] = _EXPONENTS[sep][np.minimum(np.abs(e), 99)]  # Python rewrites |e| >= 100
    if python.any():
        texts = (f"{v:.11e}" for v in x[python].tolist())
        out.view(np.uint8)[python, :_FIELD] = _padded(texts, _FIELD)


def grid_csv(l_values, t_values, blocks, lo: float = 0.0) -> Iterator:
    """A grid's CSV rows l,t,value, time outer, 12 significant digits, as checked ASCII chunks.

    ``blocks`` yields (times, sites) row blocks over every site, in time
    order; each becomes one chunk, its 1-based ``l_values`` picked out, so
    neither the grid nor more than a block of its text is held. Before a
    chunk is yielded: ValueError unless its values lie in [lo, 1] to 1e-9
    (NaN fails; ``lo`` is -1 for differences, 0 for fidelities), and unless
    the blocks hold exactly ``len(t_values)`` rows. The text, byte for byte
    ``f"{l},{t:.11e},{value:.11e}"`` per cell, is formatted in one uint32
    buffer of zero-padded words, as large as the largest block yet: the
    ``l,`` words set once, then each block's times (five words ending in a
    comma) and values (five ending in a newline) by ``_format_e11``; one
    ``bytes.translate`` drops the pad bytes.
    """
    picks = np.asarray(l_values, dtype=np.int64) - 1
    sites = _padded(f"{l}," for l in l_values).view(np.uint32)
    count, time_at = len(t_values), sites.shape[1]
    text = np.empty((0, len(sites), time_at + 10), np.uint32)
    yield b"l,t,value\n"
    start = 0
    for block in blocks:
        chunk = block[:, picks]
        stop = start + len(chunk)
        if stop > count:
            raise ValueError(f"more than {count} grid rows")
        # NaN propagates through min and max, and then fails both comparisons
        if not (chunk.min(initial=np.inf) >= lo - 1e-9
                and chunk.max(initial=-np.inf) <= 1.0 + 1e-9):
            raise ValueError(f"grid values leave [{lo:g}, 1] or are NaN")
        if len(text) < len(chunk):  # grown to the largest block yet; a smaller one uses its head
            text = np.empty((len(chunk), *text.shape[1:]), np.uint32)
            text[:, :, :time_at] = sites
        rows = text[: len(chunk)]  # contiguous, so its reshape below is a view
        times = np.empty((len(chunk), 5), np.uint32)  # contiguous: a faster copy source
        _format_e11(np.asarray(t_values[start:stop], dtype=float), times, ",")
        rows[:, :, time_at : time_at + 5] = times[:, None]
        _format_e11(chunk.reshape(-1), rows.reshape(-1, rows.shape[-1])[:, time_at + 5 :], "\n")
        yield rows.tobytes().translate(None, b"\0")
        start = stop
    if start < count:
        raise ValueError(f"{start} grid rows, expected {count}")
