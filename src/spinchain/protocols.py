"""State-transfer protocols: free evolution, mid-evolution measurement, local gates.

A single excitation encodes a qubit (alpha, beta) as alpha|vacuum> + beta|site 1>.
The protocols track the site-l reduced density matrix through free evolution,
an instantaneous projective measurement of site m at time t0, or an
instantaneous local unitary gate at site m at t0 (which opens the two-magnon
channel). Fidelities are reported per encoded state or averaged analytically
over the Bloch sphere.

Phase bookkeeping: public amplitudes (QdpPropagators, UnitaryState) carry full
phases, so H + K reproduces the one-magnon propagator exactly. Fidelity
formulas consume reduced amplitudes (the e^{-i*eps0*t} reference phase drops
out of every physical combination).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .chain import BLOCH_MOMENTS, ChainSpec, InitialState, QdpEvent
from .green1 import green1_reduced, reduced_profile
from .green2 import RingTwoMagnon

Scenario = Literal["free", "projective_qdp", "unitary_qdp", "difference"]
Green2Part = Literal["bound", "scattering", "total"]


# --------------------------------------------------------------------------
# Reduced-density-matrix elements and fidelity forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RdmElements:
    """Site-l qubit reduced density matrix: excitation weight x and coherence y."""

    x: float
    y: complex
    l: int
    t: float

    def __post_init__(self):
        if not -1e-9 <= self.x <= 1.0 + 1e-9:
            raise ValueError(f"excitation weight x = {self.x} outside [0, 1]")
        if abs(self.y) ** 2 > self.x * (1.0 - self.x) + 1e-9:
            raise ValueError(
                f"coherence |y|^2 = {abs(self.y)**2:.3e} violates RDM positivity "
                f"bound x(1-x) = {self.x * (1.0 - self.x):.3e}"
            )


def state_fidelity(x: float, y: complex, alpha: complex, beta: complex) -> float:
    """Transfer fidelity of the encoded state against RDM elements (x, y)."""
    return float(
        abs(alpha) ** 2 * (1.0 - x)
        + abs(beta) ** 2 * x
        + 2.0 * (alpha * np.conj(beta) * y).real
    )


def _bloch_from_quadratic(abs2: float, re_coherence: float) -> float:
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


# --------------------------------------------------------------------------
# Free transfer
# --------------------------------------------------------------------------


def free_rdm(l: int, t: float, spec: ChainSpec, initial: InitialState) -> RdmElements:
    """RDM elements at site l after free evolution of the encoded state."""
    g = green1_reduced(1, l, t, spec)
    x = abs(initial.beta) ** 2 * abs(g) ** 2
    y = initial.beta * np.conj(initial.alpha) * g
    return RdmElements(x=float(x), y=complex(y), l=l, t=t)


def fidelity_free(
    l: int, t: float, spec: ChainSpec, *, initial: InitialState | None = None
) -> float:
    """Transfer fidelity at site l under free evolution.

    Without ``initial`` the result is the analytic Bloch-sphere average
    1/2 + |g|^2/6 + Re(g)/3 in reduced phases; with it, the per-state value.
    """
    g = green1_reduced(1, l, t, spec)
    if initial is None:
        return _bloch_from_quadratic(abs(g) ** 2, g.real)
    rdm = free_rdm(l, t, spec, initial)
    return state_fidelity(rdm.x, rdm.y, initial.alpha, initial.beta)


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
    y: int
    yp: int
    m: int
    t: float
    t0: float

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
    first = reduced_profile(y, t0, spec)
    second = reduced_profile(yp, t - t0, spec)  # = g(y'' -> yp) by symmetry
    sites = np.arange(1, spec.n + 1)
    keep = sites != m
    h_red = np.sum(first[keep] * second[keep])
    k_red = first[m - 1] * second[m - 1]
    phase = cmath.exp(-1j * spec.ground_energy * t)
    return QdpPropagators(
        h=complex(phase * h_red), k=complex(phase * k_red), y=y, yp=yp, m=m, t=t, t0=t0
    )


def _reduced_hk_rows(m: int, t: float, t0: float, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (h, k) from source site 1 to every site, via the fast difference route."""
    g_t = reduced_profile(1, t, spec)
    g_tau = reduced_profile(m, t - t0, spec)
    k_row = reduced_profile(1, t0, spec)[m - 1] * g_tau
    return g_t - k_row, k_row


def projective_rdm(
    l: int, m: int, t: float, t0: float, spec: ChainSpec, initial: InitialState
) -> RdmElements:
    """RDM elements at site l after a projective measurement of site m at t0."""
    _check_measurement_times(t, t0)
    h_row, k_row = _reduced_hk_rows(m, t, t0, spec)
    h, k = h_row[l - 1], k_row[l - 1]
    b2 = abs(initial.beta) ** 2
    x = b2 * (abs(h) ** 2 + abs(k) ** 2)
    y = initial.beta * np.conj(initial.alpha) * h
    return RdmElements(x=float(x), y=complex(y), l=l, t=t)


def fidelity_projective(
    l: int,
    m: int,
    t: float,
    t0: float,
    spec: ChainSpec,
    *,
    initial: InitialState | None = None,
) -> float:
    """Transfer fidelity at site l with a site-m measurement at t0 (Bloch or per-state)."""
    _check_measurement_times(t, t0)
    h_row, k_row = _reduced_hk_rows(m, t, t0, spec)
    h, k = h_row[l - 1], k_row[l - 1]
    if initial is None:
        return _bloch_from_quadratic(abs(h) ** 2 + abs(k) ** 2, h.real)
    rdm = projective_rdm(l, m, t, t0, spec, initial)
    return state_fidelity(rdm.x, rdm.y, initial.alpha, initial.beta)


def delta_fidelity_projective(l: int, m: int, t: float, t0: float, spec: ChainSpec) -> float:
    """Bloch-averaged fidelity change caused by the measurement.

    Exact reduced form (|k|^2 - Re(conj(g) k) - Re k)/3, algebraically equal
    to fidelity_projective - fidelity_free.
    """
    _check_measurement_times(t, t0)
    g = green1_reduced(1, l, t, spec)
    k = green1_reduced(1, m, t0, spec) * green1_reduced(m, l, t - t0, spec)
    return float((abs(k) ** 2 - (np.conj(g) * k).real - k.real) / 3.0)


# --------------------------------------------------------------------------
# Local unitary gate: one- and two-magnon channels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitaryState:
    """Sector amplitudes (full phases) after a local gate at site m, time t0.

    two_magnon maps ordered ring pairs (y1 < y2) to amplitudes; norm_defect
    is |1 - total norm^2|, which the exact sector propagators keep at
    rounding level for every gate.
    """

    vacuum: complex
    one_magnon: np.ndarray
    two_magnon: dict[tuple[int, int], complex]
    t: float
    event: QdpEvent
    norm_defect: float


class UnitaryQdpEngine:
    """Gate-protocol amplitudes on a closed ring at one observation time.

    Builds the two-magnon pair amplitudes L(y1, y2): the gate turns the
    one-magnon wavepacket amplitude at each companion site into a source
    pair with the gate site, which then evolves through the exact ring
    two-magnon propagator. One-magnon pieces use the exact finite-ring
    propagator, so all sector norms are conserved to rounding.
    """

    def __init__(self, spec: ChainSpec, event: QdpEvent, t: float):
        if event.kind != "local_unitary":
            raise ValueError(f"engine needs a local_unitary event, got {event.kind!r}")
        _check_measurement_times(t, event.t0)
        if spec.boundary != "closed":
            raise ValueError(
                "two-magnon gate amplitudes are implemented on closed chains; "
                "the open-boundary pair channel is not available"
            )
        self.spec = spec
        self.event = event
        self.t = t
        self.tau = t - event.t0
        n = spec.n
        m = event.m

        self.u0 = reduced_profile(1, event.t0, spec, method="momentum_sum")
        self.g_t = reduced_profile(1, t, spec, method="momentum_sum")
        self.g_tau = reduced_profile(m, self.tau, spec, method="momentum_sum")

        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.pairs = pairs
        self.pair_index = {p: idx for idx, p in enumerate(pairs)}

        n_pairs = len(pairs)
        self.l_scattering = np.zeros(n_pairs, dtype=complex)
        self.l_bound = np.zeros(n_pairs, dtype=complex)
        self.bound_count = 0
        if event.delta == 0.0:
            # Phase-only gate: the magnon number is conserved, no pair channel.
            self.l_total = self.l_scattering + self.l_bound
            return

        ring = RingTwoMagnon(spec)
        self.bound_count = ring.bound_count
        source = np.zeros(n_pairs, dtype=complex)
        for y2 in range(1, n + 1):
            if y2 == m:
                continue
            pair = (m, y2) if m < y2 else (y2, m)
            source[self.pair_index[pair]] = self.u0[y2 - 1]
        self.l_scattering = ring.evolve_pair_state(source, self.tau, "scattering")
        self.l_bound = ring.evolve_pair_state(source, self.tau, "bound")
        self.l_total = self.l_scattering + self.l_bound

    def pair_table(self, part: Green2Part = "total") -> np.ndarray:
        return {
            "bound": self.l_bound,
            "scattering": self.l_scattering,
            "total": self.l_total,
        }[part]

    def two_magnon_weight(self) -> float:
        """sum over pairs |L|^2; equals sum_{y'' != m} |g(1 -> y''; t0)|^2 exactly."""
        return float(np.sum(np.abs(self.l_total) ** 2))

    def _partner_view(self, l: int, part: Green2Part) -> tuple[np.ndarray, np.ndarray]:
        """(partner sites y, L(l, y)) for all y != l."""
        table = self.pair_table(part)
        ys, vals = [], []
        for y in range(1, self.spec.n + 1):
            if y == l:
                continue
            pair = (l, y) if l < y else (y, l)
            ys.append(y)
            vals.append(table[self.pair_index[pair]])
        return np.array(ys, dtype=np.int64), np.array(vals, dtype=complex)

    def fidelity(self, l: int) -> float:
        """Bloch-averaged transfer fidelity at site l."""
        gamma2 = abs(self.event.gamma) ** 2
        delta2 = abs(self.event.delta) ** 2
        g_t_l = self.g_t[l - 1]
        g_tau_l = self.g_tau[l - 1]
        ys, l_vals = self._partner_view(l, "total")
        pair_sum = float(np.sum(np.abs(l_vals) ** 2))
        cross = complex(np.sum(self.g_tau[ys - 1] * np.conj(l_vals)))
        return float(
            0.5
            + (gamma2 / 6.0) * (abs(g_t_l) ** 2 + 2.0 * g_t_l.real)
            + (delta2 / 6.0) * (pair_sum - abs(g_tau_l) ** 2 + 2.0 * cross.real)
        )

    def split_fidelity(self, l: int, part: Green2Part) -> float:
        """Two-magnon contribution of one propagator part to the averaged fidelity."""
        delta2 = abs(self.event.delta) ** 2
        _, l_vals = self._partner_view(l, part)
        return float((delta2 / 6.0) * np.sum(np.abs(l_vals) ** 2))

    def state(self, initial: InitialState) -> UnitaryState:
        """Full-phase sector amplitudes for one encoded state."""
        alpha, beta = initial.alpha, initial.beta
        ev = self.event
        gamma, delta = ev.gamma, ev.delta
        phase = cmath.exp(-1j * self.spec.ground_energy * self.t)
        vac = phase * (alpha * gamma - beta * np.conj(delta) * self.u0[ev.m - 1])
        one = phase * (alpha * delta * self.g_tau + beta * gamma * self.g_t)
        two = {
            pair: phase * beta * delta * self.l_total[idx]
            for pair, idx in self.pair_index.items()
            if abs(self.l_total[idx]) > 0.0
        }
        norm_sq = (
            abs(vac) ** 2
            + float(np.sum(np.abs(one) ** 2))
            + abs(beta * delta) ** 2 * self.two_magnon_weight()
        )
        return UnitaryState(
            vacuum=complex(vac),
            one_magnon=one,
            two_magnon=two,
            t=self.t,
            event=ev,
            norm_defect=abs(1.0 - norm_sq),
        )


def unitary_qdp_state(
    event: QdpEvent, t: float, spec: ChainSpec, initial: InitialState
) -> UnitaryState:
    """Sector amplitudes after encoding, free flight to t0, local gate, flight to t."""
    engine = UnitaryQdpEngine(spec, event, t)
    state = engine.state(initial)
    if abs(event.delta) == 0.0 and state.norm_defect > 1e-10:
        raise ValueError(f"norm defect {state.norm_defect:.3e} with a phase-only gate")
    return state


def unitary_rdm(
    l: int, event: QdpEvent, t: float, spec: ChainSpec, initial: InitialState
) -> RdmElements:
    """RDM elements at site l after the gate protocol (closed ring)."""
    engine = UnitaryQdpEngine(spec, event, t)
    state = engine.state(initial)
    a_l = state.one_magnon[l - 1]
    ys, l_vals = engine._partner_view(l, "total")
    phase = cmath.exp(-1j * spec.ground_energy * t)
    b_vals = phase * initial.beta * event.delta * l_vals
    x = abs(a_l) ** 2 + float(np.sum(np.abs(b_vals) ** 2))
    y = a_l * np.conj(state.vacuum) + complex(
        np.sum(b_vals * np.conj(state.one_magnon[ys - 1]))
    )
    return RdmElements(x=float(x), y=complex(y), l=l, t=t)


def fidelity_unitary_qdp(l: int, event: QdpEvent, t: float, spec: ChainSpec) -> float:
    """Bloch-averaged transfer fidelity at site l under the gate protocol."""
    return UnitaryQdpEngine(spec, event, t).fidelity(l)


def two_magnon_split_fidelity(
    l: int,
    event: QdpEvent,
    t: float,
    spec: ChainSpec,
    part: Green2Part,
) -> float:
    """Two-magnon fidelity contribution restricted to one propagator part.

    Cross terms between bound and scattering parts appear only in the total
    pair amplitudes, never inside a single part.
    """
    return UnitaryQdpEngine(spec, event, t).split_fidelity(l, part)


# --------------------------------------------------------------------------
# Fidelity grids
# --------------------------------------------------------------------------


def grid_csv(l_values, t_values, values: np.ndarray) -> str:
    """CSV rows l,t,value with time as the outer loop, 12 significant digits."""
    lines = ["l,t,value"]
    for j, t in enumerate(t_values):
        for i, l in enumerate(l_values):
            lines.append(f"{l},{t:.11e},{values[i, j]:.11e}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FidelityGrid:
    """Fidelity values over a site x time lattice for one scenario."""

    values: np.ndarray
    l_values: tuple[int, ...]
    t_values: tuple[float, ...]
    scenario: Scenario
    event: QdpEvent
    spec: ChainSpec

    def __post_init__(self):
        if self.values.shape != (len(self.l_values), len(self.t_values)):
            raise ValueError("grid shape must be (len(l_values), len(t_values))")
        lo, hi = (-1.0, 1.0) if self.scenario == "difference" else (0.0, 1.0)
        # written as "all inside" so that NaN, which compares False, fails too
        if not np.all((self.values >= lo - 1e-9) & (self.values <= hi + 1e-9)):
            raise ValueError(f"{self.scenario} grid values leave [{lo}, {hi}] or are NaN")

    def to_csv(self) -> str:
        """CSV rows l,t,value with time as the outer loop, 12 significant digits."""
        return grid_csv(self.l_values, self.t_values, self.values)


def fidelity_grid(
    spec: ChainSpec,
    scenario: Scenario,
    l_values,
    t_values,
    *,
    event: QdpEvent | None = None,
    initial: InitialState | None = None,
) -> FidelityGrid:
    """Fill a fidelity lattice; times before t0 fall back to free values (0 for difference).

    ``scenario='difference'`` subtracts the free average from the event's
    scenario average (projective or unitary by event kind).
    """
    l_values = tuple(int(l) for l in l_values)
    t_values = tuple(float(t) for t in t_values)
    if event is None:
        event = QdpEvent(kind="none", m=1, t0=0.0)
    needs_event = scenario in ("projective_qdp", "unitary_qdp") or (
        scenario == "difference" and event.kind != "none"
    )
    if needs_event and event.kind == "none":
        raise ValueError(f"scenario {scenario!r} needs a QDP event")
    values = np.zeros((len(l_values), len(t_values)))
    for j, t in enumerate(t_values):
        before = t < event.t0 and event.kind != "none"
        if scenario == "free" or (before and scenario != "difference"):
            col = [fidelity_free(l, t, spec, initial=initial) for l in l_values]
        elif before and scenario == "difference":
            col = [0.0 for _ in l_values]
        elif scenario == "projective_qdp" or (
            scenario == "difference" and event.kind == "projective"
        ):
            if scenario == "difference":
                col = [delta_fidelity_projective(l, event.m, t, event.t0, spec) for l in l_values]
            else:
                col = [
                    fidelity_projective(l, event.m, t, event.t0, spec, initial=initial)
                    for l in l_values
                ]
        elif scenario == "unitary_qdp" or (
            scenario == "difference" and event.kind == "local_unitary"
        ):
            engine = UnitaryQdpEngine(spec, event, t)
            col = [engine.fidelity(l) for l in l_values]
            if scenario == "difference":
                col = [c - fidelity_free(l, t, spec) for c, l in zip(col, l_values)]
        else:
            raise ValueError(f"unknown scenario {scenario!r}")
        values[:, j] = col
    return FidelityGrid(
        values=values,
        l_values=l_values,
        t_values=t_values,
        scenario=scenario,
        event=event,
        spec=spec,
    )
