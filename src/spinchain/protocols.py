"""State-transfer protocols: free evolution, mid-evolution measurement, local gates.

A single excitation encodes a qubit (alpha, beta) as alpha|vacuum> + beta|site 1>.
The protocols track the reduced density matrix of every target site through
free evolution, an instantaneous projective measurement of site m at time t0,
or an instantaneous local unitary gate at site m at t0 (which opens the
two-magnon channel). Fidelities are reported per encoded state or averaged
analytically over the Bloch sphere.

Every stream is a sequence of (times x N) row blocks, each of
max(1, ``_BLOCK_CELLS`` // N) times. A dynamics yields them from a source
site: ``SpinChain.rows`` stacks ``reduced_profile`` rows, and
``harper.KickedChain.rows`` steps a vector once per kick. Readouts act
elementwise, so they take whole blocks: ``fidelity_from_amplitudes`` reads
the free rows, and ``measured(dynamics, m, t0, times)`` gives a
measurement's (g, k) blocks, the free row g and the collapse row k, for
``fidelity_change`` (qdp-diff), ``occupation_change`` (the detector) and
``_rdm_row``. The measurement's survive/collapse rule is one formula,
``_projective_parts(g, k)``: it gives the site weight |h|^2 + |k|^2 and the
survive row h = g - k. ``_rdm_row`` and ``_fidelity_row`` turn a site weight
and a coherent amplitude into the checked RDM rows (x, y),
y = <flipped|rho|unflipped>, and the fidelity. The gate's readouts,
``_gate_fidelity_row`` and ``_gate_state``, are formulas on reduced rows and
on the pair matrix that ``UnitaryQdpEngine`` supplies one time at a time.
``grid_csv`` turns each arriving block into a checked chunk of CSV text, built
from 4-byte words of digits, so no command holds its grid.

Phase bookkeeping: the gate's public amplitudes (UnitaryState) carry full
phases. Fidelity formulas consume reduced amplitudes (the e^{-i*eps0*t}
reference phase drops out of every physical combination). The survive row
is read here as h = g - k; ``oracle-check`` composes it independently, as
the literal sum over the intermediate sites y'' != m, and tests h + k = g.
"""
from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, InitialState, LocalGate, reduced_phase
from .green1 import reduced_profile
from .green2 import Part, RingTwoMagnon, _check_ring, ring_kernel


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


def state_fidelity(x, y, alpha: complex, beta: complex):
    """Transfer fidelity of the encoded state against RDM elements (x, y); rows allowed."""
    return (
        abs(alpha) ** 2 * (1.0 - x)
        + abs(beta) ** 2 * x
        + 2.0 * (alpha * np.conj(beta) * y).real
    )


# Uniform Bloch-sphere averages of the qubit amplitudes, alpha = cos(theta/2)
# and beta = sin(theta/2) e^{i phi}: <|alpha|^2> = 1/2, <|alpha|^2 |beta|^2> = 1/6
# and <|alpha|^4> = 1/3.
_ABS_ALPHA_SQ = 0.5
_ALPHA_SQ_BETA_SQ = 1.0 / 6.0
_ABS_ALPHA_4 = 1.0 / 3.0


def _bloch_from_quadratic(abs2, re_coherence):
    """Bloch average of |alpha|^2(1-x) + |beta|^2 x + 2|alpha|^2|beta|^2 Re(c).

    Valid whenever x = |beta|^2 * abs2 and the coherence term is
    |alpha|^2 |beta|^2 * re_coherence; uses the exact sphere moments.
    """
    return (
        _ABS_ALPHA_SQ
        - _ALPHA_SQ_BETA_SQ * abs2
        + _ABS_ALPHA_4 * abs2
        + 2.0 * _ALPHA_SQ_BETA_SQ * re_coherence
    )


def _rdm_row(weight: np.ndarray, amp: np.ndarray, initial: InitialState):
    """Checked RDM rows (x, y) from the site weight per |beta|^2 and the coherent amplitude.

    y = beta * conj(alpha) * amp is the element <flipped|rho|unflipped>.
    """
    x = abs(initial.beta) ** 2 * weight
    y = initial.beta * np.conj(initial.alpha) * amp
    _check_rdm(x, y)
    return x, y


def _fidelity_row(weight: np.ndarray, amp: np.ndarray, initial: InitialState | None) -> np.ndarray:
    """Bloch-averaged (no ``initial``) or per-state fidelity row."""
    if initial is None:
        return _bloch_from_quadratic(weight, amp.real)
    x, y = _rdm_row(weight, amp, initial)
    return state_fidelity(x, y, initial.alpha, initial.beta)


# --------------------------------------------------------------------------
# Free transfer
# --------------------------------------------------------------------------


def fidelity_from_amplitudes(u: np.ndarray, initial: InitialState | None = None) -> np.ndarray:
    """Transfer fidelity per site from the amplitudes u of an excitation released at site 1.

    Without ``initial``: the analytic Bloch-sphere average
    1/2 + |u_l|^2/6 + Re(u_l)/3.  With it: the per-state fidelity of (alpha, beta).
    """
    return _fidelity_row(np.abs(u) ** 2, u, initial)


# --------------------------------------------------------------------------
# Row blocks and the measurement stream
# --------------------------------------------------------------------------


#: Cells (times x sites) of one row block: every stream yields
#: max(1, _BLOCK_CELLS // N) times per block, the last block fewer.
_BLOCK_CELLS = 8192
#: Largest |sum over sites| of a detector row (see ``occupation_change``).
_ZERO_SUM = 1e-9


def _blocks(times, n: int) -> Iterator:
    """``times`` cut into consecutive runs of max(1, _BLOCK_CELLS // n), the last one shorter."""
    step = max(1, _BLOCK_CELLS // n)
    return (times[start : start + step] for start in range(0, len(times), step))


def row_blocks(row, times, n: int) -> Iterator[np.ndarray]:
    """The length-n rows ``row(t)`` of every time, stacked a block of times at a time."""
    for chunk in _blocks(times, n):
        yield np.stack([row(t) for t in chunk])


class SpinChain:
    """The spin chain's one-magnon dynamics: reduced rows from a source site at any times."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.n = spec.n

    def rows(self, source: int, times) -> Iterator[np.ndarray]:
        """Blocks of the reduced rows g(source -> l; t), one ``reduced_profile`` per time."""
        return row_blocks(lambda t: reduced_profile(source, t, self.spec), times, self.n)


def _check_measurement_times(t: float, t0: float) -> None:
    if t0 < 0:
        raise ValueError(f"measurement time t0 must be >= 0, got {t0}")
    if t < t0:
        raise ValueError(
            f"t = {t} precedes the measurement at t0 = {t0}; use the free forms "
            "for earlier times (at t = t0 the measurement has already occurred)"
        )


def measured(dynamics, m: int, t0, times) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(g, k) blocks of a measurement of site m at t0, read at the ascending ``times`` >= t0.

    g holds the rows ``dynamics.rows(1, times)`` and k the collapse rows
    u(t0)[m] * ``dynamics.rows(m, times - t0)``, u(t0) the row from site 1 at
    t0, so the survive rows are h = g - k (``_projective_parts``).
    """
    if not len(times):
        return
    _check_measurement_times(times[0], t0)
    u0 = None
    for g, k in zip(dynamics.rows(1, times), dynamics.rows(m, np.asarray(times) - t0)):
        if u0 is None:  # after the first rows, so that a time out of range fails on t, not t0
            (u0,) = next(dynamics.rows(1, [t0]))
        yield g, u0[m - 1] * k


def _projective_parts(g: np.ndarray, k: np.ndarray):
    """(site weight, coherent amplitude) rows after the measurement: |h|^2 + |k|^2 and h.

    g is the free row and k the collapse row, so the survive row is h = g - k.
    """
    h = g - k
    return np.abs(h) ** 2 + np.abs(k) ** 2, h


def fidelity_change(blocks) -> Iterator[np.ndarray]:
    """Bloch-averaged fidelity change, measured minus free, of every ``measured`` block.

    Exact reduced form (|k|^2 - Re(conj(g) k) - Re k)/3, algebraically equal
    to the projective minus the free averaged fidelity.
    """
    for g, k in blocks:
        yield (np.abs(k) ** 2 - (np.conj(g) * k).real - k.real) / 3.0


def occupation_change(blocks, initial: InitialState) -> Iterator[np.ndarray]:
    """Detector rows of every ``measured`` block: site occupation with minus without it.

    Each row sums to zero, since the measurement keeps the expected particle
    number; ValueError unless it does to ``_ZERO_SUM``.
    """
    for g, k in blocks:
        occupation, _ = _rdm_row(*_projective_parts(g, k), initial)
        change = occupation - abs(initial.beta) ** 2 * np.abs(g) ** 2
        worst = float(np.max(np.abs(np.sum(change, axis=1))))
        # written as "not within" so that NaN, which compares False, fails too
        if not worst <= _ZERO_SUM:
            raise ValueError(f"detector profile must sum to 0, got |sum| = {worst:.3e}")
        yield change


# --------------------------------------------------------------------------
# Local unitary gate: one- and two-magnon channels
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnitaryState:
    """Sector amplitudes (full phases) after a local gate at site m, time t0.

    two_magnon is a symmetric N x N matrix with a zero diagonal: entry
    (y1 - 1, y2 - 1) holds the pair {y1, y2}; after a phase-only gate it is
    a read-only view of zeros. norm_defect is
    |1 - total norm^2|, which the exact sector propagators keep at rounding
    level for every gate; ``_gate_state`` raises above 1e-10.
    """

    vacuum: complex
    one_magnon: np.ndarray
    two_magnon: np.ndarray
    norm_defect: float


def _gate_fidelity_row(gate: LocalGate, g_t, g_tau, pairs) -> np.ndarray:
    """Bloch-averaged transfer fidelity at every site l after the gate.

    Takes the reduced rows g_t = g(1 -> l; t) and g_tau = g(m -> l; t - t0)
    and the reduced pair matrix L (None for an empty pair channel, where the
    gate is a global phase and the row is the free readout of g_t).
    Otherwise gamma * g_t is read by the free Bloch rule, and L adds its
    weight and its interference with delta * g_tau.
    """
    if pairs is None:
        return fidelity_from_amplitudes(g_t)
    gamma2 = abs(gate.gamma) ** 2
    free = _bloch_from_quadratic(gamma2 * np.abs(g_t) ** 2, gamma2 * g_t.real)
    pair_sum = np.sum(np.abs(pairs) ** 2, axis=1)
    cross = np.conj(pairs) @ g_tau
    return free + (abs(gate.delta) ** 2 / 6.0) * (pair_sum - np.abs(g_tau) ** 2 + 2.0 * cross.real)


def _gate_state(
    gate: LocalGate, u0_m: complex, g_t, g_tau, pairs, phase: complex, initial: InitialState
) -> UnitaryState:
    """Sector amplitudes for one encoded state from ``_gate_fidelity_row``'s inputs.

    ``u0_m`` is g(1 -> m; t0) and ``phase`` the full phase at t; a norm defect
    above 1e-10 raises ValueError.
    """
    alpha, beta = initial.alpha, initial.beta
    gamma, delta = gate.gamma, gate.delta
    vac = phase * (alpha * gamma - beta * np.conj(delta) * u0_m)
    one = phase * (alpha * delta * g_tau + beta * gamma * g_t)
    norm_sq = abs(vac) ** 2 + float(np.sum(np.abs(one) ** 2))
    if pairs is None:
        two = np.broadcast_to(np.complex128(0.0), (len(g_t), len(g_t)))
    else:
        two = phase * beta * delta * pairs
        norm_sq += abs(beta * delta) ** 2 * float(np.sum(np.abs(pairs) ** 2)) / 2.0
    defect = abs(1.0 - norm_sq)
    # written as "not within" so that NaN, which compares False, fails too
    if not defect <= 1e-10:
        raise ValueError(f"norm defect {defect:.3e} after the gate at site {gate.m}")
    return UnitaryState(complex(vac), one, two, defect)


class UnitaryQdpEngine:
    """The gate protocol's pair source, read at any observation time t >= t0.

    The gate (a ``chain.LocalGate``) turns the one-magnon wavepacket amplitude
    at each companion site into a source pair with the gate site, which then
    evolves into the pair amplitudes L(y1, y2; t). ``_pair_matrix`` picks the
    propagator: the exact kernel of ``green2.ring_kernel``, which refuses any
    chain but a ring of 3 to 512 sites. It reads the source row u0 =
    g(1 -> l; t0), takes the kernel and projects the source onto its modes
    (``RingTwoMagnon.project``) once, on the first time at or after t0, so a
    grid that ends before t0 computes nothing at t0, however far off t0 is;
    each time then runs only ``RingTwoMagnon.evolve_projected``. Engines on
    one ring share its kernel, kept in ``green2.kernels``. The per-time
    methods hand L and the one-magnon rows g(1 -> l; t) and g(m -> l; t - t0)
    to ``_gate_fidelity_row`` and ``_gate_state``. A
    phase-only gate (delta = 0) opens no pair channel: it runs on any chain,
    in O(N) memory, its fidelity rows are the free readout
    ``fidelity_from_amplitudes`` of g_t for every gamma ``LocalGate`` admits,
    and ``state`` holds no N x N matrix.
    """

    def __init__(self, spec: ChainSpec, gate: LocalGate):
        if gate.m > spec.n:
            raise ValueError(f"gate site m={gate.m} out of range 1..{spec.n}")
        # A phase-only gate conserves the magnon number: no pair channel.
        if gate.delta != 0.0:
            _check_ring(spec)
        self.spec = spec
        self.gate = gate
        # the kernel and the projected source, set by the first _pair_matrix
        self.ring: RingTwoMagnon | None = None
        self._source_modes: np.ndarray | None = None

    @functools.cached_property
    def u0(self) -> np.ndarray:
        """The reduced row g(1 -> l; t0), computed on its first read."""
        return reduced_profile(1, self.gate.t0, self.spec)

    def _pair_matrix(self, t: float, part: Part) -> np.ndarray | None:
        """Reduced L of one propagator part, symmetric with zero diagonal: row l holds L(l, y).

        None for a phase-only gate, whose pair channel stays empty.
        """
        _check_measurement_times(t, self.gate.t0)
        if self.gate.delta == 0.0:
            return None
        if self.ring is None:
            # each pair holding the gate site starts with the amplitude of its partner
            m = self.gate.m - 1
            source = np.zeros((self.spec.n, self.spec.n), dtype=complex)
            source[m] = source[:, m] = self.u0
            source[m, m] = 0.0
            self.ring = ring_kernel(self.spec)
            self._source_modes = self.ring.project(source)
        return self.ring.evolve_projected(self._source_modes, t - self.gate.t0, part)

    def _rows(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Reduced rows g(1 -> l; t) and g(m -> l; t - t0) over every site l."""
        spec, gate = self.spec, self.gate
        return reduced_profile(1, t, spec), reduced_profile(gate.m, t - gate.t0, spec)

    def fidelity_row(self, t: float) -> np.ndarray:
        """Bloch-averaged transfer fidelity at every site."""
        pairs = self._pair_matrix(t, "total")
        return _gate_fidelity_row(self.gate, *self._rows(t), pairs)

    def _change_row(self, t: float) -> np.ndarray:
        """``fidelity_row`` minus the free fidelity row, both read off one row g(1 -> l; t)."""
        pairs = self._pair_matrix(t, "total")
        g_t, g_tau = self._rows(t)
        return _gate_fidelity_row(self.gate, g_t, g_tau, pairs) - fidelity_from_amplitudes(g_t)

    def split_row(self, t: float, part: Part) -> np.ndarray:
        """Two-magnon contribution of one propagator part to the averaged fidelity, every site.

        Cross terms between bound and scattering parts appear only in the
        total pair amplitudes, never inside a single part.
        """
        pairs = self._pair_matrix(t, part)
        if pairs is None:
            return np.zeros(self.spec.n)
        delta2 = abs(self.gate.delta) ** 2
        return (delta2 / 6.0) * np.sum(np.abs(pairs) ** 2, axis=1)

    def state(self, t: float, initial: InitialState) -> UnitaryState:
        """Full-phase sector amplitudes for one encoded state."""
        pairs = self._pair_matrix(t, "total")
        u0_m, phase = self.u0[self.gate.m - 1], reduced_phase(self.spec, t)
        return _gate_state(self.gate, u0_m, *self._rows(t), pairs, phase, initial)


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
    buffer of zero-padded words, kept while the blocks keep their size: the
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
        if len(text) != len(chunk):  # kept for every block of the same size
            text = np.empty((len(chunk), *text.shape[1:]), np.uint32)
            text[:, :, :time_at] = sites
        times = np.empty((len(chunk), 5), np.uint32)  # contiguous: a faster copy source
        _format_e11(np.asarray(t_values[start:stop], dtype=float), times, ",")
        text[:, :, time_at : time_at + 5] = times[:, None]
        _format_e11(chunk.reshape(-1), text.reshape(-1, text.shape[-1])[:, time_at + 5 :], "\n")
        yield text.tobytes().translate(None, b"\0")
        start = stop
    if start < count:
        raise ValueError(f"{start} grid rows, expected {count}")
