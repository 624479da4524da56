"""Transfer protocols: split propagators, measurement and gate fidelities, grids."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bloch_reference import bloch_average
from csv_reference import grid_csv_reference
from spinchain import green2, oracle
from spinchain import protocols
from engine_rows import fidelity_row, gate_process, split_row
from spinchain.chain import MEASUREMENT, ChainSpec, InitialState, LocalProcess, reduced_phase
from spinchain.cli import _write_outputs
from spinchain.bessel import MAX_ARG, truncation_order
from spinchain.green1 import HALF_INFINITE_MIN_N, free_propagator, reduced_profile
from spinchain.harper import HarperSpec, KickedChain
from spinchain.protocols import (
    _BLOCK_CELLS,
    ProcessEngine,
    SpinChain,
    UnitaryState,
    _format_e11,
    _pair_weights,
    fidelity_from_amplitudes,
    grid_csv,
    occupation_change,
    process_fidelity,
    site_rdm,
)

OPEN12 = ChainSpec(12, "open", 0.5, 1.0)
CLOSED12 = ChainSpec(12, "closed", 0.5, 1.0)


def _change_row(m: int, t: float, t0: float, spec: ChainSpec) -> np.ndarray:
    """The fidelity change row at one time, as ``qdp-diff`` reads it."""
    process = LocalProcess(m, t0, MEASUREMENT)
    ((row,),) = process_fidelity(process, ProcessEngine(SpinChain(spec), process).rows([t]), change=True)
    return row


def _projective_rdm_row(m: int, t: float, t0: float, spec: ChainSpec, initial: InitialState):
    """RDM rows (x, y) at one time after measuring site m at t0."""
    process = LocalProcess(m, t0, MEASUREMENT)
    (block,) = ProcessEngine(SpinChain(spec), process).rows([t])
    x, y = site_rdm(process, block, initial)
    return x[0], y[0]


def _free_row(t: float, spec: ChainSpec) -> np.ndarray:
    return fidelity_from_amplitudes(reduced_profile(1, t, spec))


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_split_propagator_rows_match_dense_golden(golden, hk_propagators, boundary):
    record = golden("hk_n12")
    spec = ChainSpec(12, boundary, 0.5, 1.0)
    m, t0 = record["inputs"]["m"], record["inputs"]["t0"]
    for t in record["inputs"]["times"]:
        rows = [hk_propagators(1, yp, m, t, t0, spec) for yp in range(1, spec.n + 1)]
        phase = reduced_phase(spec, t)
        got_h, got_k = np.array(rows).T / phase
        assert np.max(np.abs(got_h - record["values"][f"{boundary}_h_t{t}"])) <= record["tolerance"]
        assert np.max(np.abs(got_k - record["values"][f"{boundary}_k_t{t}"])) <= record["tolerance"]


def test_survive_and_collapse_compose_to_free_propagator(hk_propagators):
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 30))
        spec = ChainSpec(n, rng.choice(["open", "closed"]), 0.5, 1.0)
        y, yp, m = (int(v) for v in rng.integers(1, n + 1, size=3))
        t0 = float(rng.uniform(0, 4))
        t = t0 + float(rng.uniform(0, 4))
        h, k = hk_propagators(y, yp, m, t, t0, spec)
        free = reduced_profile(y, t, spec)[yp - 1] * reduced_phase(spec, t)
        assert h + k == pytest.approx(free, abs=1e-12)


def test_measurement_map_preserves_total_weight(hk_propagators):
    spec = ChainSpec(18, "open", 0.5, 1.0)
    m, t0, t = 7, 1.2, 3.9
    rows = [hk_propagators(1, yp, m, t, t0, spec) for yp in range(1, spec.n + 1)]
    total = sum(abs(h) ** 2 + abs(k) ** 2 for h, k in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measurement_fidelities_match_dense_kraus_golden(golden, fidelity_projective_row):
    record = golden("projective_n12")
    m, t0 = record["inputs"]["m"], record["inputs"]["t0"]
    sites = record["inputs"]["sites"]
    for label, (ar, ai, br, bi) in record["inputs"]["states"].items():
        initial = InitialState(complex(ar, ai), complex(br, bi))
        for t in record["inputs"]["times"]:
            row = fidelity_projective_row(m, t, t0, OPEN12, initial)
            got = np.array([row[l - 1] for l in sites])
            want = record["values"][f"{label}_t{t}"].real
            assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_fidelity_change_identity(fidelity_projective_row):
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(4, 28))
        spec = ChainSpec(n, rng.choice(["open", "closed"]), 0.5, 1.0)
        l, m = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        t0 = float(rng.uniform(0, 3))
        t = t0 + float(rng.uniform(0, 3))
        direct = _change_row(m, t, t0, spec)[l - 1]
        recomposed = fidelity_projective_row(m, t, t0, spec) - _free_row(t, spec)
        assert direct == pytest.approx(recomposed[l - 1], abs=1e-12)


def test_rdm_is_physical():
    initial = InitialState(np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.9j))
    x, y = _projective_rdm_row(6, 3.0, 1.0, OPEN12, initial)
    x4, y4 = x[3], y[3]
    assert 0.0 <= x4 <= 1.0
    assert abs(y4) ** 2 <= x4 * (1 - x4) + 1e-12


def _crafted_block(g, g_tau=(0.0, 0.0)) -> tuple:
    """A one-time engine ``rows`` block on two sites, u0(m) = 1 and no pairs: one no dynamics gives."""
    return np.array([g], dtype=complex), np.array([g_tau], dtype=complex), 1.0, None


@pytest.mark.parametrize("g, initial, message", [
    # the identity gate reads x = |beta|^2 |g|^2 and y = beta conj(alpha) g
    ([math.sqrt(1.0 + 2e-9), 0.5], InitialState(0.0, 1.0),
     r"excitation weight x outside \[0, 1\]: 0\.25 \.\. 1\.00000000[12]"),
    ([math.nan, 0.5], InitialState(0.0, 1.0), r"excitation weight x outside \[0, 1\]: nan \.\. nan"),
    # x = (1 + 8e-9)/2 lies inside [0, 1], but |y|^2 - x(1 - x) = (1 + 8e-9) 2e-9
    ([math.sqrt(1.0 + 8e-9), 0.5], InitialState(math.sqrt(0.5), math.sqrt(0.5)),
     r"coherence \|y\|\^2 exceeds the bound x\(1-x\) by 2\.000e-09"),
], ids=["x-over-one", "x-nan", "coherence"])
def test_block_readouts_refuse_an_unphysical_rdm(g, initial, message):
    identity = gate_process(2, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=message):
        site_rdm(identity, _crafted_block(g), initial)
    with pytest.raises(ValueError, match=message):
        next(occupation_change(identity, [_crafted_block(g)], initial))


def test_detector_refuses_a_row_that_does_not_sum_to_zero():
    # the measurement moves x by 2|k|^2 - 2 Re(g conj(k)), k = u0(m) g_tau: here 2e-9 at site 1
    crafted = _crafted_block([0.0, 0.0], [math.sqrt(1e-9), 0.0])
    with pytest.raises(ValueError, match=r"detector profile must sum to 0, got \|sum\| = 2\.000e-09"):
        next(occupation_change(LocalProcess(2, 0.0, MEASUREMENT), [crafted], InitialState(0.0, 1.0)))


def test_gate_channels_match_dense_golden(golden, channel_fidelity):
    record = golden("unitary_n12")
    m, t0, t = record["inputs"]["m"], record["inputs"]["t0"], record["inputs"]["t"]
    alpha = complex(*record["inputs"]["alpha"])
    beta = complex(*record["inputs"]["beta"])
    initial = InitialState(alpha, beta)
    tol = record["tolerance"]
    phase = reduced_phase(CLOSED12, t)
    for label, (gr, gi, dr, di) in record["inputs"]["gates"].items():
        gate = gate_process(m, t0, complex(gr, gi), complex(dr, di))
        state = ProcessEngine(SpinChain(CLOSED12), gate).state(t, initial)
        assert state.norm_defect < 1e-12
        assert state.vacuum / phase == pytest.approx(
            complex(record["values"][f"{label}_vacuum"][0]), abs=tol
        )
        assert np.max(
            np.abs(state.one_magnon / phase - record["values"][f"{label}_one"])
        ) <= tol
        got_pairs = state.two_magnon[np.triu_indices(12, 1)] / phase
        assert np.max(np.abs(got_pairs - record["values"][f"{label}_two"])) <= tol
        got_fids = np.array(
            [channel_fidelity(state, l, initial) for l in record["inputs"]["sites"]]
        )
        assert np.max(np.abs(got_fids - record["values"][f"{label}_fidelity"].real)) <= 1e-9


def test_averaged_gate_row_matches_bloch_average_of_state_fidelities(channel_fidelity):
    # the row's partner sums against a per-pair loop over the sector amplitudes,
    # averaged over the Bloch sphere by a rule that is exact for these integrands
    # a rotation by 1.1 about the equatorial axis (0.6, 0.8): (cos 1.1, (0.8 + 0.6i) sin 1.1)
    gate = gate_process(4, 1.5, np.cos(1.1), (0.8 + 0.6j) * np.sin(1.1))
    engine = ProcessEngine(SpinChain(CLOSED12), gate)
    t = 3.2
    row = fidelity_row(engine, t)
    for l in (1, 4, 7, 12):

        def fidelity(alpha, beta):
            initial = InitialState(alpha, beta)
            return channel_fidelity(engine.state(t, initial), l, initial)

        assert row[l - 1] == pytest.approx(bloch_average(fidelity), abs=1e-12)


def test_gate_state_matches_dense_evolution_on_random_rings():
    # rings of 3..12 sites (odd and even) at three anisotropies, random gates,
    # sites, times and encoded states, against the dense paired-sector oracle
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for case in range(42):
        n = 3 + case % 10
        spec = ChainSpec(n, "closed", 0.5, (0.0, 0.5, 1.0)[case % 3])
        # a rotation by a random angle about a random equatorial axis (cos a, sin a)
        axis = rng.uniform(0.0, 2.0 * np.pi)
        angle = rng.uniform(0.0, np.pi)
        amplitudes = (np.cos(angle), (np.sin(axis) + 1j * np.cos(axis)) * np.sin(angle))
        gate = gate_process(int(rng.integers(1, n + 1)), float(rng.uniform(0.0, 3.0)), *amplitudes)
        t = gate.t0 + float(rng.uniform(0.0, 3.0))
        alpha2 = rng.uniform(0.0, 1.0)
        initial = InitialState(np.sqrt(alpha2),
                               np.sqrt(1.0 - alpha2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))

        basis = oracle.make_basis("vacuum_one_two", n)
        ham = oracle.build_hamiltonian(spec, "vacuum_one_two")
        mid = oracle.evolve(oracle.encoded_state(initial.alpha, initial.beta, basis), ham, gate.t0)
        dense = oracle.evolve(oracle.apply_local(gate.kraus[0], gate.m, mid), ham, t - gate.t0).vector

        state = ProcessEngine(SpinChain(spec), gate).state(t, initial)
        two = [
            state.two_magnon[y1 - 1, y2 - 1] - dense[basis.pair_index(y1, y2)]
            for y1, y2 in basis.pairs
        ]
        worst = max(
            worst,
            abs(state.vacuum - dense[0]),
            float(np.max(np.abs(state.one_magnon - dense[1 : n + 1]))),
            float(np.max(np.abs(two))),
        )
    assert worst <= 1e-10


def test_gate_identity_at_origin_reduces_to_free_interference():
    # a balanced gate applied at the source site before any propagation leaves
    # the averaged fidelity pinned to the free interference term
    spec = ChainSpec(24, "closed", 0.5, 1.0)
    gate = gate_process(1, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2))
    engine = ProcessEngine(SpinChain(spec), gate)
    for t in (0.5, 2.0, 6.5):
        row = fidelity_row(engine, t)
        g = reduced_profile(1, t, spec)
        for l in (1, 5, 12, 24):
            assert row[l - 1] - 0.5 - g[l - 1].real / 6 == pytest.approx(0.0, abs=1e-10)


def test_phase_only_gate_has_no_pair_channel(monkeypatch):
    builds = []
    monkeypatch.setattr(green2.RingTwoMagnon, "__init__", lambda self, spec: builds.append(spec))
    green2.kernels.clear()
    gate = gate_process(3, 1.0, 1.0, 0.0)
    engine = ProcessEngine(SpinChain(CLOSED12), gate)
    assert engine._pair_matrix(2.5, "total") is None
    assert builds == []
    green2.kernels.clear()


class _ForwardingDynamics:
    """No ``SpinChain``, but every member the engine reads is one's: the interface is all it asks."""

    def __init__(self, chain: SpinChain):
        self.n, self.spec, self.rows, self.check = chain.n, chain.spec, chain.rows, chain.check
        self.check_pairs, self.pairs = chain.check_pairs, chain.pairs


def test_a_flipping_gate_reads_the_pair_channel_of_any_dynamics():
    gate = gate_process(4, 1.5, 0.6, 0.8)
    times = np.arange(0.0, 4.01, 0.25)  # across t0, so both halves of the axis are read
    for change in (False, True):
        rows = [np.concatenate(list(ProcessEngine(dynamics, gate).fidelity_rows(times, change)))
                for dynamics in (SpinChain(CLOSED12), _ForwardingDynamics(SpinChain(CLOSED12)))]
        assert np.array_equal(rows[1], rows[0])
    # and it is refused as the chain refuses it: an open chain has no pair channel
    with pytest.raises(ValueError, match="ring propagator needs a closed chain"):
        ProcessEngine(_ForwardingDynamics(SpinChain(OPEN12)), gate)


def _kicked_engine(monkeypatch, process: LocalProcess) -> ProcessEngine:
    """An engine on a 6-site kicked chain whose rows fail the test if any is computed."""
    chain = KickedChain(HarperSpec(n=6, g=1.0, tau=0.5))
    monkeypatch.setattr(chain, "rows", lambda *args: pytest.fail("a row was computed"))
    return ProcessEngine(chain, process)


_KICKED_REFUSAL = "the kicked chain is read at kicks through ProcessEngine.rows, not at times"
_KICKED_PHASE = gate_process(4, 2, 0.6 + 0.8j, 0.0)  # opens no pairs, so the kicked chain admits it
_KICKED_MEASUREMENT = LocalProcess(4, 2, MEASUREMENT)


def test_a_kicked_chain_state_is_refused_before_any_row(monkeypatch):
    engine = _kicked_engine(monkeypatch, _KICKED_PHASE)
    with pytest.raises(ValueError) as refused:
        engine.state(4, InitialState(0.6, 0.8))
    assert str(refused.value) == _KICKED_REFUSAL


@pytest.mark.parametrize("process, change", [
    (_KICKED_PHASE, False), (_KICKED_MEASUREMENT, False), (_KICKED_MEASUREMENT, True),
], ids=["phase", "measurement", "measurement-change"])
def test_a_kicked_chain_fidelity_axis_is_refused_before_any_row(monkeypatch, process, change):
    engine = _kicked_engine(monkeypatch, process)
    with pytest.raises(ValueError) as refused:
        engine.fidelity_rows([1, 2, 3], change)
    assert str(refused.value) == _KICKED_REFUSAL
    # a change grid that reads no row is zeros, as on the spin chain: a phase's, or one before t0
    times = [1, 2, 3] if process is _KICKED_PHASE else [0, 1]
    assert not np.any(np.concatenate(list(engine.fidelity_rows(times, True))))


def test_gate_state_refuses_a_pair_time_before_any_row_or_kernel(monkeypatch):
    # 4*J*t = 90 000 is under MAX_ARG, the pair time's 4*J*(|Delta| + 2)*(t - t0) = 269 994 over it
    builds = []
    monkeypatch.setattr(green2.RingTwoMagnon, "__init__", lambda self, spec: builds.append(spec))
    green2.kernels.clear()
    chain = SpinChain(CLOSED12)
    monkeypatch.setattr(chain, "rows", lambda *args: pytest.fail("a row was computed"))
    engine = ProcessEngine(chain, gate_process(3, 1.0, 0.6, 0.8))
    with pytest.raises(ValueError, match=r"4\*J\*\(\|Delta\| \+ 2\)\*\|t\| must be <="):
        engine.state(45000.0, InitialState(0.6, 0.8))
    assert builds == [] and not green2.kernels
    green2.kernels.clear()


def test_gate_state_refuses_a_norm_defect(monkeypatch):
    engine = ProcessEngine(SpinChain(CLOSED12), gate_process(3, 1.0, 0.6, 0.8))
    pairs = engine._pair_matrix
    monkeypatch.setattr(engine, "_pair_matrix", lambda t, part: 1.01 * pairs(t, part))
    with pytest.raises(ValueError, match="norm defect"):
        engine.state(2.5, InitialState(0.6, 0.8))


def test_phase_only_gate_holds_no_pair_matrix():
    # no pair channel, so nothing of size N x N: 144 MB of zeros at N = 3000
    spec = ChainSpec(3000, "closed", 0.5, 1.0)
    gate = gate_process(15, 1.0, 1.0, 0.0)
    tracemalloc.start()
    try:
        engine = ProcessEngine(SpinChain(spec), gate)
        # the spliced readout, the route a global phase takes in the CLI
        rows = np.concatenate(list(engine.fidelity_rows([1.0, 2.0, 3.0], False)))
        split = split_row(engine, 2.0, "total")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
    assert split.shape == (3000,) and np.all(split == 0.0)
    for t, row in zip((1.0, 2.0, 3.0), rows):
        # the one free Bloch rule, so exactly the free rows
        assert np.array_equal(row, _free_row(t, spec))
    # state() too: its two_magnon is a read-only zero view, no N x N matrix
    engine = ProcessEngine(SpinChain(ChainSpec(1000, "open", 0.5, 1.0)), gate)
    tracemalloc.start()
    try:
        state = engine.state(2.0, InitialState(0.6, 0.8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert state.two_magnon.shape == (1000, 1000) and not np.any(state.two_magnon)
    assert not state.two_magnon.flags.writeable
    assert state.norm_defect <= 1e-10


def _pair_weight(engine, t):
    """sum over pairs |L|^2, off the total pair matrix, which holds each pair twice."""
    return float(np.sum(np.abs(engine._pair_matrix(t, "total")) ** 2)) / 2.0


def test_pair_weight_equals_injected_companion_weight():
    gate = gate_process(4, 2.0, 0.0, 1.0)
    engine = ProcessEngine(SpinChain(CLOSED12), gate)
    u0 = reduced_profile(1, 2.0, CLOSED12)
    expected = float(np.sum(np.abs(u0) ** 2) - abs(u0[3]) ** 2)
    assert _pair_weight(engine, 5.0) == pytest.approx(expected, abs=1e-12)
    # and it is a constant of the motion
    assert _pair_weight(engine, 9.0) == pytest.approx(expected, abs=1e-12)


def test_split_fidelity_parts_add_up_over_the_ring():
    gate = gate_process(4, 2.0, 0.0, 1.0)
    engine = ProcessEngine(SpinChain(CLOSED12), gate)
    totals = split_row(engine, 5.0, "total")
    bounds = split_row(engine, 5.0, "bound")
    scatters = split_row(engine, 5.0, "scattering")
    assert np.all(totals >= 0.0) and np.all(bounds >= 0.0) and np.all(scatters >= 0.0)
    # the projector split is orthogonal, so the cross term cancels once every
    # pair is counted (each pair shows up in the partner sums of both its sites)
    assert np.sum(bounds) + np.sum(scatters) == pytest.approx(np.sum(totals), abs=1e-10)
    gate_weight = abs(gate.kraus[0, 1, 0]) ** 2 / 6.0
    assert np.sum(totals) == pytest.approx(
        2.0 * gate_weight * _pair_weight(engine, 5.0), abs=1e-10
    )


def _single_row(x: int, t: float, spec: ChainSpec) -> np.ndarray:
    """The row at one time from the float ``free_propagator`` call on its own ring width."""
    z = 4.0 * spec.j * t
    width = spec.n
    if spec.boundary == "open" and spec.n >= HALF_INFINITE_MIN_N:
        width += truncation_order(z)
    return free_propagator(width, spec.boundary, z, x)[: spec.n]


@pytest.mark.parametrize("dt", [0.05, 0.5])
@pytest.mark.parametrize("n, boundary", [
    (12, "closed"), (100, "closed"), (13, "open"), (99, "open"), (100, "open"), (150, "open"),
])
def test_spin_chain_rows_are_the_single_rows_bit_for_bit(n, boundary, dt):
    # from t = 0 across the first block boundary; on the half-infinite chains
    # dt = 0.05 gives runs of times with one ring width, dt = 0.5 mostly lone times
    spec = ChainSpec(n, boundary, 0.5, 1.0)
    step = _BLOCK_CELLS // n
    times = np.round(np.arange(step + 5) * dt, 12)
    for source in (1, n // 2 + 1, n):
        blocks = list(SpinChain(spec).rows(source, times))
        assert [len(block) for block in blocks] == [step, 5]
        rows = np.concatenate(blocks)
        assert np.array_equal(rows, np.stack([reduced_profile(source, t, spec) for t in times]))
        assert np.array_equal(rows, np.stack([_single_row(source, t, spec) for t in times]))


@pytest.mark.parametrize("bad, message", [
    (-0.5, "time must be >= 0, got -0.5"),
    (float("nan"), f"4*J*t must be <= {MAX_ARG}, got nan"),
    (MAX_ARG, f"4*J*t must be <= {MAX_ARG}, got {2.0 * MAX_ARG}"),
])
@pytest.mark.parametrize("spec", [CLOSED12, ChainSpec(100, "open", 0.5, 1.0)])
def test_spin_chain_rows_refuse_the_first_bad_time_of_a_block(spec, bad, message):
    with pytest.raises(ValueError) as single:
        reduced_profile(1, bad, spec)
    assert str(single.value) == message
    step = _BLOCK_CELLS // spec.n
    # a later bad time (-1) in the same block does not decide the message
    times = np.concatenate((np.arange(step) * 0.5, [1.0, bad, -1.0, 2.0]))
    rows = SpinChain(spec).rows(1, times)
    assert len(next(rows)) == step  # the block before the bad time is yielded whole
    with pytest.raises(ValueError) as block:
        next(rows)
    assert str(block.value) == message


def test_pair_weights_are_the_row_sums_of_squared_moduli():
    # the float view's sums of squares against |L|^2 summed along each row;
    # 5e-14 is about 100x the worst difference measured here (5.6e-16)
    for n in (3, 4, 12, 13, 100, 101):
        spec = ChainSpec(n, "closed", 0.5, 1.0)
        for m, t0, gamma, delta in ((1, 0.0, 0.6, 0.8), (n // 2 + 1, 1.5, 0.0, 1j)):
            engine = ProcessEngine(SpinChain(spec), gate_process(m, t0, gamma, delta))
            for t in (t0, t0 + 0.3, t0 + 2.5, t0 + 11.0):
                for part in ("total", "bound", "scattering"):
                    pairs = engine._pair_matrix(t, part)
                    want = np.sum(np.abs(pairs) ** 2, axis=1)
                    assert np.max(np.abs(_pair_weights(pairs) - want)) <= 5e-14


def test_pair_rows_conjugate_once_per_block_and_keep_each_product():
    # each time's products are today's L @ conj([g, g_tau]), bit for bit
    spec = ChainSpec(13, "closed", 0.5, 1.0)
    engine = ProcessEngine(SpinChain(spec), gate_process(5, 1.0, 0.6, 0.8))
    times = np.array([1.0, 1.25, 3.5, 7.0])
    ((g, g_tau, _, (weight, l_g, l_tau)),) = engine.rows(times)
    for i, t in enumerate(times):
        pairs = engine._pair_matrix(t, "total")
        assert np.array_equal(weight[i], _pair_weights(pairs))
        want = (pairs @ np.conj(np.stack((g[i], g_tau[i]), axis=1))).T
        assert np.array_equal(l_g[i], want[0]) and np.array_equal(l_tau[i], want[1])


def test_a_gate_grid_reads_the_row_at_t0_once(monkeypatch):
    # the engine's u0 serves both the pair source and u0(m) of every block
    t0, reads, real = 1.0, [], protocols.reduced_profile

    def counting(x, t, spec):
        if np.atleast_1d(t).tolist() == [t0]:
            reads.append(x)
        return real(x, t, spec)

    monkeypatch.setattr(protocols, "reduced_profile", counting)
    engine = ProcessEngine(SpinChain(CLOSED12), gate_process(4, t0, 0.6, 0.8))
    times = t0 + 0.25 * np.arange(1, _BLOCK_CELLS // 12 + 10)
    rows = list(process_fidelity(engine.process, engine.rows(times)))
    assert [len(row) for row in rows] == [_BLOCK_CELLS // 12, 9]
    assert reads == [1]


def _as_blocks(rows):
    """The rows cut into blocks as every stream cuts them: max(1, _BLOCK_CELLS // N) rows each."""
    rows = np.asarray(rows)
    step = max(1, _BLOCK_CELLS // rows.shape[1])
    return [rows[start : start + step] for start in range(0, len(rows), step)]


def _site_rows(l_values, values: np.ndarray) -> list[np.ndarray]:
    """``values.T`` as row blocks over sites 1..max(l_values); the sites left out hold NaN.

    ``grid_csv`` must never pick, or check, a site outside ``l_values``.
    """
    rows = np.full((values.shape[1], max(l_values)), np.nan)
    rows[:, np.asarray(l_values) - 1] = values.T
    return _as_blocks(rows)


def _csv_text(l_values, t_values, values) -> str:
    """``grid_csv``'s chunks, from the (sites, times) array ``values``, joined into one text."""
    return b"".join(grid_csv(l_values, t_values, _site_rows(l_values, values), lo=-1.0)).decode()


def test_grid_csv_layout():
    csv = _csv_text((1, 2), (0.0, 1.5), np.array([[0.5, 0.25], [1.0, 0.125]]))
    lines = csv.strip().split("\n")
    assert lines[0] == "l,t,value"
    assert lines[1].startswith("1,0.00000000000e+00,5.00000000000e-01")
    # time is the outer loop: both sites at t=0 come before any t=1.5 row
    assert lines[2].startswith("2,0.00000000000e+00")
    assert lines[3].startswith("1,1.50000000000e+00")


_EDGE_VALUES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, -1.0, 1.0)


def _kicked_times(count):
    return [k * 0.1 for k in range(count)]


def _rounded_times(count, tmin=0.3, dt=0.1):
    return [round(tmin + k * dt, 12) for k in range(count)]


def _assert_same_csv(got: str, want: str) -> None:
    """Byte equality, reported as the first differing line (a full diff takes minutes)."""
    if got == want:
        return
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    line, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    pytest.fail(f"line {line}: {a!r} != reference {b!r} (lengths {len(got)}, {len(want)})")


@pytest.mark.parametrize("sites, times", [
    (range(1, 2), _kicked_times(1)),
    (range(1, 2), _rounded_times(1)),
    (range(1, 2), _kicked_times(len(_EDGE_VALUES))),  # every edge value in one site row
    (range(1, 101), _kicked_times(501)),
    (range(1, 101), _rounded_times(501, tmin=0.0, dt=0.25)),
    (range(1, 11), _kicked_times(1000)),
    (range(1, 11), _rounded_times(1000, dt=0.01)),
    (range(7, 20), _rounded_times(40, tmin=2.5)),  # --lmin 7
    (range(1, 6), []),
], ids=["1x1-kicked", "1x1-rounded", "1x8-edges", "100x501-kicked", "100x501-rounded",
        "10x1000-kicked", "10x1000-rounded", "lmin7", "no-times"])
def test_grid_csv_matches_the_per_cell_reference(sites, times):
    ls = list(sites)
    rng = np.random.default_rng(len(ls) * 1009 + len(times))
    values = rng.uniform(-1.0, 1.0, size=(len(ls), len(times)))
    # plant every edge value along the flattened grid
    values.flat[: len(_EDGE_VALUES)] = _EDGE_VALUES[: values.size]
    _assert_same_csv(_csv_text(ls, times, values), grid_csv_reference(ls, times, values))
    if not times:
        assert _csv_text(ls, times, values) == "l,t,value\n"


def _every_exponent():
    """Random doubles in every decade from 1e-320 to 1e308, both signs."""
    rng = np.random.default_rng(20)
    decades = np.arange(-320, 308)[:, None] + rng.uniform(0.0, 1.0, size=(628, 4))
    values = np.concatenate([10.0 ** decades.ravel(), [1e308, np.finfo(float).max]])
    return np.concatenate([values, -values])


def _subnormals_zeros_ones():
    tiny = np.finfo(float).tiny
    values = [0.0, 1.0, 5e-324, 1e-323, 1e-320, 1e-310, tiny / 3, tiny - 5e-324, tiny]
    return np.array([sign * v for v in values for sign in (1.0, -1.0)])


def _carries():
    """One ulp either side of 9.999999999995e k, the rounding into the next decade."""
    edges = np.array([float(f"9.999999999995e{k}") for k in range(-320, 308)])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return np.concatenate([values, -values])


def _decimal_ties():
    """The doubles nearest the 13-digit decimal ties d.ddddddddddd5e k."""
    rng = np.random.default_rng(21)
    digits = [str(d) for d in rng.integers(10**11, 10**12, size=2)]
    values = np.array([float(f"{d[0]}.{d[1:]}5e{k}") for k in range(-110, 110) for d in digits])
    return np.concatenate([values, -values])


def _near_ties():
    """Doubles whose exact |v| * 10^(11 - e) lies within 1e-9 of n + 1/2, exact ties included.

    For v = m * 2^p and k = 11 - e >= 0 the scaled value m * 5^k * 2^(k + p)
    has s = -(k + p) bits below the point, so picking m = (2^(s-1) + j) / 5^k
    mod 2^s puts its fraction at 1/2 + j / 2^s.
    """
    found = []
    for e in range(-4, 12):
        k = 11 - e
        for lead in (1.1, 2.5, 4.7, 8.3):
            p = math.frexp(lead * 10.0**e)[1] - 53  # m = v / 2^p in [2^52, 2^53)
            s = -(k + p)
            if not 1 <= s <= 50:
                continue
            for j in (-1, 0, 1):
                residue = (2 ** (s - 1) + j) * pow(5**k, -1, 2**s) % 2**s
                m = round(lead * 10.0**e / 2.0**p) >> s << s | residue
                v = math.ldexp(m, p)
                exact = Fraction(v) * 10**k
                if (Fraction(10) ** e <= Fraction(v) < Fraction(10) ** (e + 1)
                        and abs(exact % 1 - Fraction(1, 2)) < Fraction(1, 10**9)):
                    found += [v, -v]
    assert len(found) > 100
    return np.array(found)


@pytest.mark.parametrize("make", [
    _every_exponent, _subnormals_zeros_ones, _carries, _decimal_ties, _near_ties,
    lambda: np.array([np.inf, -np.inf, 0.5, -np.inf]),
], ids=["every-exponent", "subnormals-zeros-ones", "carries", "decimal-ties", "near-ties", "inf"])
def test_grid_csv_matches_the_reference_on_adversarial_values(make):
    # grid_csv refuses values outside [-1, 1], so its value field, _format_e11, is held to
    # the reference's f-string directly: into words that held other text and separators
    values = make()
    out = np.zeros((len(values), 5), np.uint32)
    _format_e11(np.roll(values, 1), out, ",")
    _format_e11(values, out, "\n")
    got = out.tobytes().translate(None, b"\0").decode()  # grid_csv drops the pad bytes
    _assert_same_csv(got, "".join(f"{v:.11e}\n" for v in values.tolist()))


def test_grid_csv_reuses_its_buffer_across_python_formatted_cells():
    # Python writes 5e-324 and -1e-300 (three-digit exponents) into bytes 0..18 of their
    # fields, in another slot of every block; the next block's regular cells in those
    # slots must clear byte 18, and no cell may lose its separator byte
    ls, step = list(range(1, 8)), _BLOCK_CELLS // 7
    ts = _rounded_times(5 * step + 3)  # five whole blocks, then a ragged one
    values = np.random.default_rng(23).uniform(-1.0, 1.0, size=(len(ls), len(ts)))
    for block in range(5):
        for k, v in enumerate((5e-324, -1e-300)):
            values[(block + 2 * k) % len(ls), block * step + 2 * block + k] = v
    _assert_same_csv(_csv_text(ls, ts, values), grid_csv_reference(ls, ts, values))


@pytest.mark.parametrize("sites, times", [
    (1, _BLOCK_CELLS - 1), (1, _BLOCK_CELLS), (1, _BLOCK_CELLS + 1),
    (3, _BLOCK_CELLS // 3 * 2 + 1),  # two whole blocks and a ragged one-row block
    (_BLOCK_CELLS + 1, 2),  # a row wider than a block
], ids=["chunk-minus-one", "chunk", "chunk-plus-one", "ragged", "wide-column"])
def test_grid_csv_matches_the_reference_across_chunks(sites, times):
    rng = np.random.default_rng(sites * 31 + times)
    shape = (sites, times)
    # 45 decades below 1: grid_csv refuses values outside [-1, 1]
    values = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** (rng.integers(-40, 5, size=shape) - 4)
    values.flat[: len(_EDGE_VALUES)] = _EDGE_VALUES
    ls, ts = list(range(1, sites + 1)), _rounded_times(times)
    _assert_same_csv(_csv_text(ls, ts, values), grid_csv_reference(ls, ts, values))


def test_grid_csv_streams_in_bounded_memory(tmp_path):
    # 100 x 2001 cells, about 7.8 MB of text and 1.6 MB of values, from a stream of blocks
    ls, times = list(range(1, 101)), _rounded_times(2001, tmin=0.0, dt=0.05)
    rng = np.random.default_rng(22)
    step = _BLOCK_CELLS // len(ls)
    blocks = (rng.uniform(size=(len(times[start : start + step]), len(ls)))
              for start in range(0, len(times), step))
    args = SimpleNamespace(out=str(tmp_path / "x.csv"))
    _write_outputs(args, grid_csv(ls[:1], times[:1], [np.ones((1, 1))]), {})  # numpy's lazy set-up
    tracemalloc.start()
    try:
        _write_outputs(args, grid_csv(ls, times, blocks), {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "x.csv").stat().st_size
    assert size > 7_000_000
    # a few blocks of text and one block of values at most, however large the grid grows
    chunk = _BLOCK_CELLS * size / (len(ls) * len(times))
    assert peak < 4 * chunk + 8 * _BLOCK_CELLS


@pytest.mark.parametrize(
    "bad, lo", [(np.nan, 0.0), (1.5, 0.0), (-1.5, -1.0)], ids=["nan", "above-one", "below-lo"]
)
def test_grid_rejects_nan_values(bad, lo):
    # one site, so a block holds _BLOCK_CELLS times: the bad value in the first or second block
    for at in (1, _BLOCK_CELLS + 5):
        rows = np.full((2 * _BLOCK_CELLS + 1, 1), 0.5)
        rows[at] = bad
        yielded = []
        with pytest.raises(ValueError, match="grid values leave"):
            yielded.extend(grid_csv([1], _kicked_times(len(rows)), _as_blocks(rows), lo=lo))
        # the header and the chunks before the bad one, and no later chunk
        assert len(yielded) == 1 + at // _BLOCK_CELLS


@pytest.mark.parametrize("rows", [0, 1, 3], ids=["none", "fewer", "more"])
def test_grid_refuses_a_row_count_other_than_count(rows):
    times = [0.0, 0.5]
    # as one-row blocks and as one block
    with pytest.raises(ValueError, match="grid rows"):
        b"".join(grid_csv([1, 2], times, (np.array([[0.5, 0.25]]) for _ in range(rows))))
    with pytest.raises(ValueError, match="grid rows"):
        b"".join(grid_csv([1, 2], times, [np.full((rows, 2), 0.5)]))
    # site 2 of each row
    text = b"".join(grid_csv([2], times, [np.array([[0.5, 0.25]] * 2)])).decode()
    assert text == grid_csv_reference([2], times, np.full((1, 2), 0.25))


@pytest.mark.parametrize("make", [
    lambda: oracle.DenseState(np.zeros(3, dtype=complex), oracle.make_basis("one_excitation", 3)),
    lambda: oracle.BoundBandResult(np.eye(3), 1),
    lambda: UnitaryState(1.0 + 0.0j, np.zeros(3, dtype=complex), np.zeros((3, 3), complex), 0.0),
], ids=["DenseState", "BoundBandResult", "UnitaryState"])
def test_array_records_compare_and_hash_by_identity(make):
    # field-wise == over arrays would raise (ambiguous truth value), and so would hash()
    first, second = make(), make()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2


def test_sites_outside_the_chain_are_rejected(fidelity_projective_row, hk_propagators):
    # the measured site picks an entry of a row over the chain; no index may wrap
    with pytest.raises(ValueError):
        _change_row(13, 2.0, 1.0, OPEN12)
    with pytest.raises(ValueError):
        fidelity_projective_row(0, 2.0, 1.0, OPEN12)
    with pytest.raises(ValueError):
        _projective_rdm_row(13, 2.0, 1.0, OPEN12, InitialState(0.6, 0.8))
    # the measured site of the split propagators is checked too
    with pytest.raises(ValueError):
        hk_propagators(1, 2, 0, 2.0, 1.0, OPEN12)
    with pytest.raises(ValueError):
        hk_propagators(1, 2, 13, 2.0, 1.0, OPEN12)


def test_time_ordering_validation(fidelity_projective_row):
    with pytest.raises(ValueError):
        fidelity_projective_row(2, 1.0, 2.0, OPEN12)
    with pytest.raises(ValueError, match="precedes the measurement"):
        _projective_rdm_row(2, 1.0, 2.0, OPEN12, InitialState(0.6, 0.8))
    with pytest.raises(ValueError):
        fidelity_row(ProcessEngine(SpinChain(CLOSED12), gate_process(2, 3.0, 0.0, 1.0)), 2.0)
    with pytest.raises(ValueError):
        ProcessEngine(SpinChain(OPEN12), gate_process(2, 1.0, 0.0, 1.0))
