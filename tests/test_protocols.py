"""Transfer protocols: split propagators, measurement and gate fidelities, grids."""

from __future__ import annotations

import numpy as np
import pytest

from spinchain.chain import ChainSpec, InitialState, QdpEvent, reduced_phase
from spinchain.green1 import green1_reduced, reduced_profile
from spinchain.protocols import (
    FidelityGrid,
    UnitaryQdpEngine,
    delta_fidelity_projective,
    fidelity_free,
    fidelity_grid,
    fidelity_projective,
    fidelity_unitary_qdp,
    hk_propagators,
    projective_rdm,
    two_magnon_split_fidelity,
    unitary_qdp_state,
)

OPEN12 = ChainSpec(12, "open", 0.5, 1.0)
CLOSED12 = ChainSpec(12, "closed", 0.5, 1.0)


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_split_propagator_rows_match_dense_golden(golden, boundary):
    record = golden("hk_n12")
    spec = ChainSpec(12, boundary, 0.5, 1.0)
    m, t0 = record["inputs"]["m"], record["inputs"]["t0"]
    for t in record["inputs"]["times"]:
        rows = [hk_propagators(1, yp, m, t, t0, spec) for yp in spec.site_range()]
        phase = reduced_phase(spec, t)
        got_h = np.array([r.h for r in rows]) / phase
        got_k = np.array([r.k for r in rows]) / phase
        assert np.max(np.abs(got_h - record["values"][f"{boundary}_h_t{t}"])) <= record["tolerance"]
        assert np.max(np.abs(got_k - record["values"][f"{boundary}_k_t{t}"])) <= record["tolerance"]


def test_survive_and_collapse_compose_to_free_propagator():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 30))
        spec = ChainSpec(n, rng.choice(["open", "closed"]), 0.5, 1.0)
        y, yp, m = (int(v) for v in rng.integers(1, n + 1, size=3))
        t0 = float(rng.uniform(0, 4))
        t = t0 + float(rng.uniform(0, 4))
        split = hk_propagators(y, yp, m, t, t0, spec)
        free = green1_reduced(y, yp, t, spec) * reduced_phase(spec, t)
        assert split.h + split.k == pytest.approx(free, abs=1e-12)


def test_measurement_map_preserves_total_weight():
    spec = ChainSpec(18, "open", 0.5, 1.0)
    m, t0, t = 7, 1.2, 3.9
    rows = [hk_propagators(1, yp, m, t, t0, spec) for yp in spec.site_range()]
    total = sum(abs(r.h) ** 2 + abs(r.k) ** 2 for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measurement_fidelities_match_dense_kraus_golden(golden):
    record = golden("projective_n12")
    m, t0 = record["inputs"]["m"], record["inputs"]["t0"]
    sites = record["inputs"]["sites"]
    for label, (ar, ai, br, bi) in record["inputs"]["states"].items():
        initial = InitialState(complex(ar, ai), complex(br, bi))
        for t in record["inputs"]["times"]:
            got = np.array(
                [fidelity_projective(l, m, t, t0, OPEN12, initial=initial) for l in sites]
            )
            want = record["values"][f"{label}_t{t}"].real
            assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_fidelity_change_identity():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(4, 28))
        spec = ChainSpec(n, rng.choice(["open", "closed"]), 0.5, 1.0)
        l, m = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        t0 = float(rng.uniform(0, 3))
        t = t0 + float(rng.uniform(0, 3))
        direct = delta_fidelity_projective(l, m, t, t0, spec)
        recomposed = fidelity_projective(l, m, t, t0, spec) - fidelity_free(l, t, spec)
        assert direct == pytest.approx(recomposed, abs=1e-12)


def test_rdm_is_physical():
    initial = InitialState(np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.9j))
    rdm = projective_rdm(4, 6, 3.0, 1.0, OPEN12, initial)
    assert 0.0 <= rdm.x <= 1.0
    assert abs(rdm.y) ** 2 <= rdm.x * (1 - rdm.x) + 1e-12


def test_gate_channels_match_dense_golden(golden):
    record = golden("unitary_n12")
    m, t0, t = record["inputs"]["m"], record["inputs"]["t0"], record["inputs"]["t"]
    alpha = complex(*record["inputs"]["alpha"])
    beta = complex(*record["inputs"]["beta"])
    initial = InitialState(alpha, beta)
    tol = record["tolerance"]
    phase = reduced_phase(CLOSED12, t)
    for label, (gr, gi, dr, di) in record["inputs"]["gates"].items():
        event = QdpEvent("local_unitary", m=m, t0=t0, gate=(complex(gr, gi), complex(dr, di)))
        state = unitary_qdp_state(event, t, CLOSED12, initial)
        assert state.norm_defect < 1e-12
        assert state.vacuum / phase == pytest.approx(
            complex(record["values"][f"{label}_vacuum"][0]), abs=tol
        )
        assert np.max(
            np.abs(state.one_magnon / phase - record["values"][f"{label}_one"])
        ) <= tol
        engine = UnitaryQdpEngine(CLOSED12, event, t)
        got_pairs = np.array([state.two_magnon.get(p, 0j) for p in engine.pairs]) / phase
        assert np.max(np.abs(got_pairs - record["values"][f"{label}_two"])) <= tol
        got_fids = np.array(
            [
                np.real(
                    _state_fidelity_from_channels(state, l, initial, CLOSED12)
                )
                for l in record["inputs"]["sites"]
            ]
        )
        assert np.max(np.abs(got_fids - record["values"][f"{label}_fidelity"].real)) <= 1e-9


def _state_fidelity_from_channels(state, l, initial, spec):
    """Per-state transfer fidelity from the sector amplitudes."""
    vac = state.vacuum
    one = state.one_magnon
    x = abs(one[l - 1]) ** 2
    y = one[l - 1] * np.conj(vac)
    for (p1, p2), amp in state.two_magnon.items():
        if l in (p1, p2):
            x += abs(amp) ** 2
            partner = p2 if l == p1 else p1
            y += amp * np.conj(one[partner - 1])
    alpha, beta = initial.alpha, initial.beta
    return abs(alpha) ** 2 * (1 - x) + abs(beta) ** 2 * x + 2 * np.real(alpha * np.conj(beta) * y)


def test_gate_identity_at_origin_reduces_to_free_interference():
    # a balanced gate applied at the source site before any propagation leaves
    # the averaged fidelity pinned to the free interference term
    spec = ChainSpec(24, "closed", 0.5, 1.0)
    event = QdpEvent("local_unitary", m=1, t0=0.0, gate=(1 / np.sqrt(2), 1 / np.sqrt(2)))
    for t in (0.5, 2.0, 6.5):
        engine = UnitaryQdpEngine(spec, event, t)
        for l in (1, 5, 12, 24):
            g = green1_reduced(1, l, t, spec)
            assert engine.fidelity(l) - 0.5 - g.real / 6 == pytest.approx(0.0, abs=1e-10)


def test_phase_only_gate_has_no_pair_channel():
    event = QdpEvent("local_unitary", m=3, t0=1.0, gate=(1.0, 0.0))
    engine = UnitaryQdpEngine(CLOSED12, event, 2.5)
    assert engine.two_magnon_weight() == 0.0
    assert engine.bound_count == 0


def test_pair_weight_equals_injected_companion_weight():
    event = QdpEvent("local_unitary", m=4, t0=2.0, gate=(0.0, 1.0))
    engine = UnitaryQdpEngine(CLOSED12, event, 5.0)
    u0 = reduced_profile(1, 2.0, CLOSED12)
    expected = float(np.sum(np.abs(u0) ** 2) - abs(u0[3]) ** 2)
    assert engine.two_magnon_weight() == pytest.approx(expected, abs=1e-12)
    # and it is a constant of the motion
    later = UnitaryQdpEngine(CLOSED12, event, 9.0)
    assert later.two_magnon_weight() == pytest.approx(expected, abs=1e-12)


def test_split_fidelity_parts_add_up_over_the_ring():
    event = QdpEvent("local_unitary", m=4, t0=2.0, gate=(0.0, 1.0))
    engine = UnitaryQdpEngine(CLOSED12, event, 5.0)
    sites = range(1, CLOSED12.n + 1)
    totals = {l: engine.split_fidelity(l, "total") for l in sites}
    bounds = {l: engine.split_fidelity(l, "bound") for l in sites}
    scatters = {l: engine.split_fidelity(l, "scattering") for l in sites}
    for l in sites:
        assert totals[l] >= 0.0 and bounds[l] >= 0.0 and scatters[l] >= 0.0
        assert two_magnon_split_fidelity(l, event, 5.0, CLOSED12, part="total") == pytest.approx(
            totals[l], abs=1e-12
        )
    # the projector split is orthogonal, so the cross term cancels once every
    # pair is counted (each pair shows up in the partner sums of both its sites)
    assert sum(bounds.values()) + sum(scatters.values()) == pytest.approx(
        sum(totals.values()), abs=1e-10
    )
    gate_weight = abs(event.delta) ** 2 / 6.0
    assert sum(totals.values()) == pytest.approx(
        2.0 * gate_weight * engine.two_magnon_weight(), abs=1e-10
    )
    assert fidelity_unitary_qdp(4, event, 5.0, CLOSED12) == pytest.approx(
        engine.fidelity(4), abs=1e-12
    )


def test_grid_fills_pre_event_cells_with_reference_values():
    event = QdpEvent("projective", m=3, t0=2.0)
    l_values = [1, 2, 3]
    t_values = [1.0, 2.0, 3.0]
    diff = fidelity_grid(OPEN12, "difference", l_values, t_values, event=event)
    assert diff.values.shape == (3, 3)
    assert np.all(diff.values[:, 0] == 0.0)  # before the event nothing changed
    assert np.any(diff.values[:, 1:] != 0.0)
    free = fidelity_grid(OPEN12, "free", l_values, t_values)
    measured = fidelity_grid(OPEN12, "projective_qdp", l_values, t_values, event=event)
    assert np.allclose(measured.values[:, 0], free.values[:, 0], atol=1e-12)
    recomposed = measured.values - free.values
    assert np.allclose(recomposed, diff.values, atol=1e-12)


def test_grid_csv_layout():
    grid = FidelityGrid(
        values=np.array([[0.5, 0.25], [1.0, 0.125]]),
        l_values=(1, 2),
        t_values=(0.0, 1.5),
        scenario="free",
        event=QdpEvent(kind="none"),
        spec=OPEN12,
    )
    lines = grid.to_csv().strip().split("\n")
    assert lines[0] == "l,t,value"
    assert lines[1].startswith("1,0.00000000000e+00,5.00000000000e-01")
    # time is the outer loop: both sites at t=0 come before any t=1.5 row
    assert lines[2].startswith("2,0.00000000000e+00")
    assert lines[3].startswith("1,1.50000000000e+00")


def test_grid_rejects_nan_values():
    with pytest.raises(ValueError):
        FidelityGrid(
            values=np.array([[0.5, np.nan]]),
            l_values=(1,),
            t_values=(0.0, 1.5),
            scenario="free",
            event=QdpEvent(kind="none"),
            spec=OPEN12,
        )


def test_time_ordering_validation():
    with pytest.raises(ValueError):
        fidelity_projective(3, 2, 1.0, 2.0, OPEN12)
    with pytest.raises(ValueError):
        UnitaryQdpEngine(CLOSED12, QdpEvent("local_unitary", m=2, t0=3.0, gate=(0.0, 1.0)), 2.0)
    with pytest.raises(ValueError):
        UnitaryQdpEngine(OPEN12, QdpEvent("local_unitary", m=2, t0=1.0, gate=(0.0, 1.0)), 2.0)
