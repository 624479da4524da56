"""State-transfer protocols: free evolution, mid-evolution measurement, local gates.

A single excitation encodes a qubit (alpha, beta) as alpha|vacuum> + beta|site 1>.
The protocols track the reduced density matrix of every target site through
free evolution, an instantaneous projective measurement of site m at time t0,
or an instantaneous local unitary gate at site m at t0 (which opens the
two-magnon channel). Fidelities are reported per encoded state or averaged
analytically over the Bloch sphere.

Every readout is a row over all target sites at one time
(``fidelity_free_row``, ``fidelity_projective_row``, ``projective_rdm_row``,
``delta_fidelity_projective_row``, ``UnitaryQdpEngine.fidelity_row``), and
``grid_values`` stacks one row per time into a checked grid. ``_rdm_row``
and ``_fidelity_row`` turn a site-weight row and a coherent-amplitude row
into the checked RDM rows (x, y), y = <flipped|rho|unflipped>, and the
fidelity row; the kicked chain (``harper``) reads its measured run through
the same two.

Phase bookkeeping: public amplitudes (QdpPropagators, UnitaryState) carry full
phases, so H + K reproduces the one-magnon propagator exactly. Fidelity
formulas consume reduced amplitudes (the e^{-i*eps0*t} reference phase drops
out of every physical combination).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import BLOCH_MOMENTS, ChainSpec, InitialState, QdpEvent, reduced_phase
from .green1 import reduced_profile
from .green2 import Part, RingTwoMagnon


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


def _bloch_from_quadratic(abs2, re_coherence):
    """Bloch average of |alpha|^2(1-x) + |beta|^2 x + 2|alpha|^2|beta|^2 Re(c).

    Valid whenever x = |beta|^2 * abs2 and the coherence term is
    |alpha|^2 |beta|^2 * re_coherence; uses the exact sphere moments.
    """
    m = BLOCH_MOMENTS
    return (
        m.abs_alpha_sq
        - m.alpha_sq_beta_sq * abs2
        + m.abs_alpha_4 * abs2
        + 2.0 * m.alpha_sq_beta_sq * re_coherence
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


def fidelity_free_row(t: float, spec: ChainSpec, initial: InitialState | None = None) -> np.ndarray:
    """Transfer fidelity at every site under free evolution from site 1.

    Without ``initial`` the result is the analytic Bloch-sphere average
    1/2 + |g|^2/6 + Re(g)/3 in reduced phases; with it, the per-state value.
    """
    g = reduced_profile(1, t, spec)
    return _fidelity_row(np.abs(g) ** 2, g, initial)


# --------------------------------------------------------------------------
# Projective mid-evolution measurement
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QdpPropagators:
    """Survive (h) and collapse (k) amplitudes of a measurement at site m, time t0.

    Full-phase amplitudes: h + k equals the free propagator from y to yp over
    time t, because h excludes exactly the intermediate configuration that k
    captures.
    """

    h: complex
    k: complex

    @property
    def x(self) -> complex:
        return self.h + self.k


def _check_measurement_times(t: float, t0: float) -> None:
    if t0 < 0:
        raise ValueError(f"measurement time t0 must be >= 0, got {t0}")
    if t < t0:
        raise ValueError(
            f"t = {t} precedes the measurement at t0 = {t0}; use the free forms "
            "for earlier times (at t = t0 the measurement has already occurred)"
        )


def hk_propagators(y: int, yp: int, m: int, t: float, t0: float, spec: ChainSpec) -> QdpPropagators:
    """Measurement-split propagators by the literal intermediate-site sum.

    h is accumulated as sum_{y'' != m} g(y -> y''; t0) g(y'' -> yp; t - t0),
    not as g - k, so the h + k = g identity is a real composition test.
    """
    _check_measurement_times(t, t0)
    if not 1 <= m <= spec.n:
        raise ValueError(f"measured site m={m} out of range 1..{spec.n}")
    first = reduced_profile(y, t0, spec)
    second = reduced_profile(yp, t - t0, spec)  # = g(y'' -> yp) by symmetry
    sites = np.arange(1, spec.n + 1)
    keep = sites != m
    h_red = np.sum(first[keep] * second[keep])
    k_red = first[m - 1] * second[m - 1]
    phase = reduced_phase(spec, t)
    return QdpPropagators(h=complex(phase * h_red), k=complex(phase * k_red))


def _reduced_gk_rows(m: int, t: float, t0: float, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reduced free (g) and collapse (k) rows from source site 1 to every site; h = g - k."""
    _check_measurement_times(t, t0)
    g_tau = reduced_profile(m, t - t0, spec)
    return reduced_profile(1, t, spec), reduced_profile(1, t0, spec)[m - 1] * g_tau


def _projective_parts(m: int, t: float, t0: float, spec: ChainSpec):
    """(site weight, coherent amplitude) rows after the measurement: |h|^2 + |k|^2 and h."""
    g, k = _reduced_gk_rows(m, t, t0, spec)
    h = g - k
    return np.abs(h) ** 2 + np.abs(k) ** 2, h


def delta_fidelity_projective_row(m: int, t: float, t0: float, spec: ChainSpec) -> np.ndarray:
    """Bloch-averaged fidelity change at every site caused by measuring site m at t0.

    Exact reduced form (|k|^2 - Re(conj(g) k) - Re k)/3, algebraically equal
    to the projective minus the free averaged fidelity.
    """
    g, k = _reduced_gk_rows(m, t, t0, spec)
    return (np.abs(k) ** 2 - (np.conj(g) * k).real - k.real) / 3.0


def projective_rdm_row(
    m: int, t: float, t0: float, spec: ChainSpec, initial: InitialState
) -> tuple[np.ndarray, np.ndarray]:
    """RDM rows (x, y) at every site after a projective measurement of site m at t0."""
    return _rdm_row(*_projective_parts(m, t, t0, spec), initial)


def fidelity_projective_row(
    m: int, t: float, t0: float, spec: ChainSpec, initial: InitialState | None = None
) -> np.ndarray:
    """Transfer fidelity at every site with a site-m measurement at t0 (Bloch or per-state)."""
    return _fidelity_row(*_projective_parts(m, t, t0, spec), initial)


# --------------------------------------------------------------------------
# Local unitary gate: one- and two-magnon channels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitaryState:
    """Sector amplitudes (full phases) after a local gate at site m, time t0.

    two_magnon is a symmetric N x N matrix with a zero diagonal: entry
    (y1 - 1, y2 - 1) holds the pair {y1, y2}. norm_defect is
    |1 - total norm^2|, which the exact sector propagators keep at rounding
    level for every gate; ``UnitaryQdpEngine.state`` raises above 1e-10.
    """

    vacuum: complex
    one_magnon: np.ndarray
    two_magnon: np.ndarray
    norm_defect: float


class UnitaryQdpEngine:
    """Gate-protocol amplitudes on a closed ring, for any observation time t >= t0.

    The gate turns the one-magnon wavepacket amplitude at each companion site
    into a source pair with the gate site, which then evolves through the
    exact ring two-magnon propagator into the pair amplitudes L(y1, y2; t).
    What does not depend on t -- the ring kernel, the amplitudes at t0 and
    the source pair state -- is built once here; each per-time method
    evolves the source once per propagator part it needs. A phase-only gate
    (delta = 0) opens no pair channel: it builds neither and its rows hold
    O(N) memory. One-magnon pieces use the exact finite-ring propagator, so
    all sector norms are conserved to rounding.
    """

    def __init__(self, spec: ChainSpec, event: QdpEvent):
        if event.kind != "local_unitary":
            raise ValueError(f"engine needs a local_unitary event, got {event.kind!r}")
        if spec.boundary != "closed":
            raise ValueError(
                "two-magnon gate amplitudes are implemented on closed chains; "
                "the open-boundary pair channel is not available"
            )
        if event.m > spec.n:
            raise ValueError(f"gate site m={event.m} out of range 1..{spec.n}")
        self.spec = spec
        self.event = event
        self.u0 = reduced_profile(1, event.t0, spec)
        # A phase-only gate conserves the magnon number: no pair channel.
        self.ring = RingTwoMagnon(spec) if event.delta != 0.0 else None
        if self.ring is not None:
            # each pair holding the gate site starts with the amplitude of its partner
            m = event.m - 1
            self._source = np.zeros((spec.n, spec.n), dtype=complex)
            self._source[m] = self._source[:, m] = self.u0
            self._source[m, m] = 0.0

    def _pair_matrix(self, t: float, part: Part) -> np.ndarray | None:
        """Reduced L of one propagator part, symmetric with zero diagonal: row l holds L(l, y).

        None for a phase-only gate, whose pair channel stays empty.
        """
        _check_measurement_times(t, self.event.t0)
        if self.ring is None:
            return None
        return self.ring.evolve_pair_state(self._source, t - self.event.t0, part)

    def two_magnon_weight(self, t: float) -> float:
        """sum over pairs |L|^2; equals sum_{y'' != m} |g(1 -> y''; t0)|^2 exactly."""
        pairs = self._pair_matrix(t, "total")
        return 0.0 if pairs is None else float(np.sum(np.abs(pairs) ** 2)) / 2.0

    def fidelity_row(self, t: float) -> np.ndarray:
        """Bloch-averaged transfer fidelity at every site."""
        gamma2 = abs(self.event.gamma) ** 2
        delta2 = abs(self.event.delta) ** 2
        pairs = self._pair_matrix(t, "total")
        g_t = reduced_profile(1, t, self.spec)
        free = 0.5 + (gamma2 / 6.0) * (np.abs(g_t) ** 2 + 2.0 * g_t.real)
        if pairs is None:
            return free
        g_tau = reduced_profile(self.event.m, t - self.event.t0, self.spec)
        pair_sum = np.sum(np.abs(pairs) ** 2, axis=1)
        cross = np.conj(pairs) @ g_tau
        return free + (delta2 / 6.0) * (pair_sum - np.abs(g_tau) ** 2 + 2.0 * cross.real)

    def split_row(self, t: float, part: Part) -> np.ndarray:
        """Two-magnon contribution of one propagator part to the averaged fidelity, every site.

        Cross terms between bound and scattering parts appear only in the
        total pair amplitudes, never inside a single part.
        """
        pairs = self._pair_matrix(t, part)
        if pairs is None:
            return np.zeros(self.spec.n)
        delta2 = abs(self.event.delta) ** 2
        return (delta2 / 6.0) * np.sum(np.abs(pairs) ** 2, axis=1)

    def state(self, t: float, initial: InitialState) -> UnitaryState:
        """Full-phase sector amplitudes for one encoded state."""
        alpha, beta = initial.alpha, initial.beta
        ev = self.event
        gamma, delta = ev.gamma, ev.delta
        amps = self._pair_matrix(t, "total")
        if amps is None:
            amps = np.zeros((self.spec.n, self.spec.n), dtype=complex)
        g_t = reduced_profile(1, t, self.spec)
        g_tau = reduced_profile(ev.m, t - ev.t0, self.spec)
        phase = reduced_phase(self.spec, t)
        vac = phase * (alpha * gamma - beta * np.conj(delta) * self.u0[ev.m - 1])
        one = phase * (alpha * delta * g_tau + beta * gamma * g_t)
        norm_sq = (
            abs(vac) ** 2
            + float(np.sum(np.abs(one) ** 2))
            + abs(beta * delta) ** 2 * float(np.sum(np.abs(amps) ** 2)) / 2.0
        )
        defect = abs(1.0 - norm_sq)
        # written as "not within" so that NaN, which compares False, fails too
        if not defect <= 1e-10:
            raise ValueError(f"norm defect {defect:.3e} after the gate at site {ev.m}")
        return UnitaryState(
            vacuum=complex(vac),
            one_magnon=one,
            two_magnon=phase * beta * delta * amps,
            norm_defect=defect,
        )


# --------------------------------------------------------------------------
# Fidelity grids
# --------------------------------------------------------------------------


def grid_csv(l_values, t_values, values: np.ndarray) -> str:
    """CSV rows l,t,value, time outer, 12 significant digits: one ``%`` per time's column."""
    template = "".join(f"{l},%s,%.11e\n" for l in l_values)
    blocks = ["l,t,value\n"]
    for t, column in zip(t_values, values.T):
        blocks.append(template.replace("%s", f"{t:.11e}") % tuple(column.tolist()))
    return "".join(blocks)


def grid_values(l_values, rows, lo: float = 0.0) -> np.ndarray:
    """Stack site rows, one per time and each over every site, into a checked grid.

    Picks the 1-based sites ``l_values`` out of every row and returns the
    (len(l_values), times) array. Raises ValueError unless every value lies
    in [lo, 1] to 1e-9; ``lo`` is -1 for differences and 0 for fidelities.
    """
    sites = np.asarray(l_values, dtype=np.int64) - 1
    columns = [row[sites] for row in rows]
    # the reshape keeps the (sites, 0) shape of a grid with no times
    values = np.array(columns).reshape(len(columns), len(sites)).T
    # written as "all inside" so that NaN, which compares False, fails too
    if not np.all((values >= lo - 1e-9) & (values <= 1.0 + 1e-9)):
        raise ValueError(f"grid values leave [{lo:g}, 1] or are NaN")
    return values

