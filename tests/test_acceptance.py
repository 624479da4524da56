"""Acceptance gate: one test per numbered library guarantee, tolerances pinned.

Every test here measures a shipped promise end-to-end and asserts the stated
band; nothing is mocked, and the dense-matrix oracle is rebuilt live where a
cross-validation is promised.  Criterion 04 carries a known-red middle clause:
the measured extreme of the measurement-induced fidelity change for the
matched mid-chain probe is ~0.077 under every defensible definition of the
change, below the promised [0.10, 0.20] band.  The faithful computation is
kept and left failing rather than widened to pass.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from golden_io import transfer_fidelity
from spinchain import oracle
from spinchain.chain import ChainSpec, InitialState, LocalGate, reduced_phase
from spinchain.cli import main as cli_main
from spinchain.green1 import reduced_profile
from spinchain.green2 import green2
from spinchain.harper import HarperSpec, KickedChain, floquet_step, spread_metric
from spinchain.protocols import (
    SpinChain,
    UnitaryQdpEngine,
    fidelity_change,
    fidelity_from_amplitudes,
    measured,
    occupation_change,
)

from bessel_reference import reduced_hop_amplitudes

OPEN100 = ChainSpec(100, "open", 0.5, 1.0)


def _change_row(m: int, t: float, t0: float, spec: ChainSpec) -> np.ndarray:
    """The measurement's fidelity change row at one time, as ``qdp-diff`` reads it."""
    (row,) = next(fidelity_change(measured(SpinChain(spec), m, t0, [t])))
    return row


def _averaged_free_row(spec: ChainSpec, t: float) -> np.ndarray:
    g = reduced_profile(1, t, spec)
    return 0.5 + np.abs(g) ** 2 / 6.0 + g.real / 3.0


def test_criterion_01_one_magnon_propagator_matches_dense_evolution():
    start = time.perf_counter()
    spec = ChainSpec(12, "open", 0.5, 1.0)
    basis = oracle.make_basis("one_excitation", 12)
    ham = oracle.build_hamiltonian(spec, "one_excitation")
    seed = oracle.DenseState(np.eye(12, dtype=complex)[0], basis)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        dense = oracle.evolve(seed, ham, t).vector
        mine = reduced_phase(spec, t) * reduced_profile(1, t, spec)
        worst = max(worst, float(np.max(np.abs(mine - dense))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_free_transfer_peak_time_tracks_half_the_site_index():
    start = time.perf_counter()
    sites = (20, 40, 60, 80, 100)
    best_t = dict.fromkeys(sites, 0.0)
    best_f = dict.fromkeys(sites, -1.0)
    for k in range(1, 601):
        t = 0.1 * k
        row = _averaged_free_row(OPEN100, t)
        for l in sites:
            if row[l - 1] > best_f[l]:
                best_f[l], best_t[l] = float(row[l - 1]), t
    elapsed = time.perf_counter() - start
    for l in sites:
        assert abs(best_t[l] - l / 2.0) <= 0.15 * (l / 2.0), (l, best_t[l])
    assert elapsed < 10.0


def test_criterion_03_long_time_fidelity_saturates_to_one_half():
    row = _averaged_free_row(OPEN100, 200.0)
    assert float(np.max(np.abs(row[:20] - 0.5))) <= 0.02


def _measurement_delta_row(
    spec: ChainSpec, m: int, t0: float, t: float, source_at_probe: complex
) -> np.ndarray:
    g = reduced_profile(1, t, spec)
    k = source_at_probe * reduced_profile(m, t - t0, spec)
    return (np.abs(k) ** 2 - (np.conj(g) * k).real - k.real) / 3.0


def test_criterion_04_measurement_induced_fidelity_extremes():
    start = time.perf_counter()
    offsets = np.concatenate(
        [np.arange(0.02, 20.0 + 1e-9, 0.02), np.arange(20.25, 100.0 + 1e-9, 0.25)]
    )
    extremes = {}
    for label, m, t0 in (
        ("immediate_probe_at_source", 1, 0.0),
        ("matched_mid_chain_probe", 20, 10.0),
        ("late_probe_at_source", 1, 10.0),
    ):
        source_at_probe = complex(reduced_profile(1, t0, OPEN100)[m - 1])
        worst = 0.0
        for off in offsets:
            row = _measurement_delta_row(OPEN100, m, t0, t0 + float(off), source_at_probe)
            worst = max(worst, float(np.max(np.abs(row))))
        extremes[label] = worst
    # tie the vectorized rows to the library's row form
    probe = _change_row(1, 3.5, 0.0, OPEN100)[6]
    row = _measurement_delta_row(OPEN100, 1, 0.0, 3.5, complex(reduced_profile(1, 0.0, OPEN100)[0]))
    assert row[6] == pytest.approx(probe, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert 0.3 <= extremes["immediate_probe_at_source"] <= 0.5
    assert extremes["late_probe_at_source"] <= 0.02
    # known red: measured extreme is ~0.077, below the promised band floor
    assert 0.10 <= extremes["matched_mid_chain_probe"] <= 0.20


def test_criterion_05_matched_measurement_arrival_population_plateau():
    for l in range(40, 101, 5):
        m, t0 = l, l / 2.0
        source_at_probe = complex(reduced_profile(1, t0, OPEN100)[m - 1])
        best_free, best_measured = 0.0, 0.0
        for k in range(1, 1201):
            t = t0 + 0.05 * k
            g = reduced_profile(1, t, OPEN100)
            k_l = source_at_probe * reduced_profile(m, t - t0, OPEN100)[l - 1]
            h_l = g[l - 1] - k_l
            best_free = max(best_free, abs(g[l - 1]) ** 2)
            best_measured = max(best_measured, abs(h_l) ** 2 + abs(k_l) ** 2)
        gain = best_measured - best_free
        assert 0.05 <= gain <= 0.15, (l, gain)


def test_criterion_06_measurement_splitting_identities(fidelity_projective_row, hk_propagators):
    rng = np.random.default_rng(20260814)
    worst_split, worst_trace, worst_delta = 0.0, 0.0, 0.0
    for i in range(1000):
        spec = ChainSpec(12, "open" if i % 2 == 0 else "closed", 0.5, 1.0)
        y, yp, m, l = (int(v) for v in rng.integers(1, 13, size=4))
        t0 = float(rng.uniform(0.0, 4.0))
        t = t0 + float(rng.uniform(0.0, 4.0))

        h, k = hk_propagators(y, yp, m, t, t0, spec)
        free = reduced_phase(spec, t) * reduced_profile(y, t, spec)[yp - 1]
        worst_split = max(worst_split, abs(h + k - free))

        source_at_probe = reduced_profile(y, t0, spec)[m - 1]
        k_row = source_at_probe * reduced_profile(m, t - t0, spec)
        h_row = reduced_profile(y, t, spec) - k_row
        weight = float(np.sum(np.abs(h_row) ** 2 + np.abs(k_row) ** 2))
        worst_trace = max(worst_trace, abs(weight - 1.0))

        direct = _change_row(m, t, t0, spec)[l - 1]
        free = fidelity_from_amplitudes(reduced_profile(1, t, spec))
        recomposed = fidelity_projective_row(m, t, t0, spec) - free
        worst_delta = max(worst_delta, abs(direct - recomposed[l - 1]))
    assert worst_split <= 1e-9
    assert worst_trace <= 1e-9
    assert worst_delta <= 1e-10


def test_criterion_07_gate_protocol_matches_dense_evolution(channel_fidelity):
    spec = ChainSpec(12, "closed", 0.5, 1.0)
    basis = oracle.make_basis("vacuum_one_two", 12)
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")
    initial = InitialState(math.sqrt(0.3), math.sqrt(0.7))
    for amplitudes in ((1 / math.sqrt(2), 1 / math.sqrt(2)), (0.0, 1.0)):
        gate = LocalGate(4, 2.0, *amplitudes)
        mid = oracle.evolve(oracle.encoded_state(initial.alpha, initial.beta, basis), ham, 2.0)
        final = oracle.evolve(oracle.apply_local(amplitudes, 4, mid), ham, 2.0)
        state = UnitaryQdpEngine(spec, gate).state(4.0, initial)

        assert abs(state.vacuum - final.vector[0]) <= 1e-10
        one_dense = final.vector[1:13]
        assert float(np.max(np.abs(state.one_magnon - one_dense))) <= 1e-10
        worst_two = max(
            abs(state.two_magnon[y1 - 1, y2 - 1] - final.vector[basis.pair_index(y1, y2)])
            for y1, y2 in basis.pairs
        )
        assert worst_two <= 1e-10
        for l in (1, 4, 8, 12):
            x, y = oracle.rdm_site(final, l)
            dense_fid = transfer_fidelity(x, y, initial.alpha, initial.beta)
            assert abs(channel_fidelity(state, l, initial) - dense_fid) <= 1e-10
    # a balanced gate at the source site before any motion pins the averaged
    # fidelity to one half plus the free interference term
    ring = ChainSpec(24, "closed", 0.5, 1.0)
    gate = LocalGate(1, 0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    engine = UnitaryQdpEngine(ring, gate)
    for t in (0.5, 2.0, 6.5):
        g = reduced_profile(1, t, ring)
        residual = float(np.max(np.abs(engine.fidelity_row(t) - 0.5 - g.real / 6.0)))
        assert residual <= 1e-10


def test_criterion_08_pair_kernel_completeness_and_free_factorization():
    start = time.perf_counter()
    ring40 = ChainSpec(40, "closed", 0.5, 1.0)
    assert abs(green2(10, 11, 10, 11, 0.0, ring40).value - 1.0) <= 1e-12
    for target in ((11, 12), (9, 13), (8, 10)):
        assert abs(green2(10, 11, *target, 0.0, ring40).value) <= 1e-12

    gate = LocalGate(10, 2.0, 0.0, 1.0)
    engine = UnitaryQdpEngine(ring40, gate)
    # sum over pairs |L|^2; the pair matrix holds each pair twice
    weights = [float(np.sum(np.abs(engine._pair_matrix(t, "total")) ** 2)) / 2.0 for t in (3.0, 7.0)]
    assert abs(weights[0] - weights[1]) <= 1e-3

    free = ChainSpec(40, "closed", 0.5, 0.0)
    t = 1.5
    z = 4.0 * free.j * t
    for src, dst in [((18, 21), (19, 23)), ((18, 19), (18, 19)), ((16, 21), (17, 18))]:
        got = green2(*src, *dst, t, free).value / reduced_phase(free, t)
        hops = reduced_hop_amplitudes(
            [dst[0] - src[0], dst[1] - src[1], dst[0] - src[1], dst[1] - src[0]], z
        )
        assert got == pytest.approx(hops[0] * hops[1] - hops[2] * hops[3], abs=1e-12)
    assert time.perf_counter() - start < 300.0


def test_criterion_09_paired_band_census_and_scattering_dominance():
    census = oracle.bound_band_projector(ChainSpec(20, "closed", 0.5, 1.0))
    assert 17 <= census.count <= 20

    ring = ChainSpec(100, "closed", 0.5, 1.0)
    gate = LocalGate(10, 5.0, 0.0, 1.0)

    engine = UnitaryQdpEngine(ring, gate)

    def part_weights(t: float) -> tuple[float, float]:
        return (
            float(np.sum(engine.split_row(t, "scattering"))),
            float(np.sum(engine.split_row(t, "bound"))),
        )

    scattering, bound = part_weights(6.0)
    assert scattering > bound
    scattering_later, bound_later = part_weights(9.0)
    assert abs(scattering - scattering_later) <= 1e-9
    assert abs(bound - bound_later) <= 1e-9


def test_criterion_10_gate_induced_relative_fidelity_gain_region():
    ring = ChainSpec(100, "closed", 0.5, 1.0)
    gate = LocalGate(15, 7.5, 0.0, 1.0)
    best = -math.inf
    region_points = 0
    engine = UnitaryQdpEngine(ring, gate)
    for k in range(1, 19):
        t = 7.5 + 0.25 * k
        free = _averaged_free_row(ring, t)
        gated = engine.fidelity_row(t)
        gain = (gated - free) / free
        best = max(best, float(np.max(gain)))
        region_points += int(np.sum(gain >= 0.15))
    assert region_points >= 1
    assert 0.15 <= best <= 0.30


def test_criterion_11_kicked_chain_transport_properties():
    start = time.perf_counter()
    spec = HarperSpec(n=100, g=1.0, tau=0.1)
    u = floquet_step(spec)
    assert float(np.max(np.abs(u.conj().T @ u - np.eye(100)))) <= 1e-12

    def detector_rows(spec: HarperSpec, initial: InitialState, kicks):
        blocks = occupation_change(measured(KickedChain(spec), 1, 5, kicks), initial)
        return np.concatenate(list(blocks))

    balanced = InitialState(1 / math.sqrt(2), 1 / math.sqrt(2))
    rows = detector_rows(spec, balanced, range(5, 51))
    assert len(rows) == 46
    assert abs(float(np.sum(rows[-1]))) <= 1e-10

    flip = InitialState(0.0, 1.0)

    def occupation_after_200_kicks(g: float) -> np.ndarray:
        (block,) = KickedChain(HarperSpec(n=100, g=g, tau=0.1)).rows(1, [200])
        return np.abs(block[-1]) ** 2

    widths = {g: spread_metric(occupation_after_200_kicks(g)) for g in (1.0, 3.0)}
    assert widths[3.0] < widths[1.0]

    def first_passage_kicks(tau: float) -> int:
        # one detector stream after the kick-5 measurement, kicks 6..600
        kicks = range(6, 601)
        far = np.abs(detector_rows(HarperSpec(n=100, g=1.0, tau=tau), flip, kicks)[:, -1])
        passed = np.flatnonzero(far > 1e-3)
        if not passed.size:
            raise AssertionError("no far-end passage within 600 kicks")
        return kicks[passed[0]]

    slow = first_passage_kicks(0.1)
    fast = first_passage_kicks(0.9)
    assert slow >= 4 * fast, (slow, fast)
    assert time.perf_counter() - start < 30.0


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    for args in (
        ["fidelity", "--n", "16", "--tmax", "2.0", "--dt", "0.5"],
        ["harper", "--n", "12", "--kicks", "4", "--tau", "0.2"],
    ):
        payloads = []
        for run in ("first", "second"):
            out = tmp_path / f"{args[0]}_{run}.csv"
            assert cli_main(args + ["--out", str(out)]) == 0
            sidecar = tmp_path / f"{args[0]}_{run}.csv.meta.json"
            payloads.append(out.read_bytes() + sidecar.read_bytes())
        assert payloads[0] == payloads[1]
