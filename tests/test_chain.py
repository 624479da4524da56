"""Model conventions: energies, grids, encoded states, and local-gate algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spinchain.chain import (
    BLOCH_MOMENTS,
    CONVENTIONS,
    ChainSpec,
    InitialState,
    QdpEvent,
    conventions_hash,
    dispersion_one_magnon,
    gate_from_axis,
    reduced_phase,
    two_magnon_energy,
)


def test_ground_energy_counts_bonds_and_ignores_anisotropy():
    assert ChainSpec(12, "open", 0.5, 1.0).ground_energy == -0.5 * 11
    assert ChainSpec(12, "closed", 0.5, 1.0).ground_energy == -0.5 * 12
    assert ChainSpec(9, "open", 2.0, 0.3).ground_energy == -2.0 * 8
    # anisotropy shifts interactions, never the reference energy
    assert ChainSpec(8, "open", 1.0, 0.0).ground_energy == ChainSpec(8, "open", 1.0, 7.0).ground_energy


def test_one_magnon_band():
    spec = ChainSpec(10, "closed", 0.5, 1.0)
    eps0 = spec.ground_energy
    # band center at p = pi/2, edges at p = 0 and pi with half-width 4J = 2
    assert dispersion_one_magnon(math.pi / 2, spec) == pytest.approx(eps0, abs=1e-14)
    assert dispersion_one_magnon(0.0, spec) == pytest.approx(eps0 - 2.0, abs=1e-14)
    assert dispersion_one_magnon(math.pi, spec) == pytest.approx(eps0 + 2.0, abs=1e-14)


def test_two_magnon_energy_is_sum_of_shifted_branches():
    spec = ChainSpec(10, "closed", 0.5, 1.0)
    eps0 = spec.ground_energy
    value = two_magnon_energy(math.pi / 2, math.pi / 2, spec)
    assert value == pytest.approx(eps0 + 4.0, abs=1e-14)
    p1, p2 = 0.7, 2.1
    expected = eps0 + 4 * spec.j * (spec.delta - math.cos(p1)) + 4 * spec.j * (spec.delta - math.cos(p2))
    assert two_magnon_energy(p1, p2, spec) == pytest.approx(expected, abs=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(0, "open", 0.5, 1.0)
    with pytest.raises(ValueError):
        ChainSpec(4, "diagonal", 0.5, 1.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        ChainSpec(4, "open", 0.0, 1.0)
    # the pair energy 4*J*(|Delta| + 4) overflows; the message names both fields
    ChainSpec(4, "closed", 0.5, 1e300)
    for j, delta in ((0.5, 1e308), (1e308, 1.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match=r"j = .*delta = "):
            ChainSpec(4, "closed", j, delta)


def test_initial_state_norm():
    InitialState(1 / math.sqrt(2), 1j / math.sqrt(2))
    with pytest.raises(ValueError):
        InitialState(1.0, 0.5)


def test_bloch_moments_are_exact_sphere_integrals():
    assert BLOCH_MOMENTS.abs_alpha_sq == pytest.approx(0.5, abs=1e-15)
    assert BLOCH_MOMENTS.abs_alpha_4 == pytest.approx(1 / 3, abs=1e-15)
    assert BLOCH_MOMENTS.alpha_sq_beta_sq == pytest.approx(1 / 6, abs=1e-15)


def test_gate_event_requires_real_diagonal_and_unit_norm():
    event = QdpEvent("local_unitary", m=3, t0=1.0, gate=(0.6, 0.8j))
    matrix = np.array(event.gate_matrix())
    assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        QdpEvent("local_unitary", m=3, t0=1.0, gate=(0.6j, 0.8))
    with pytest.raises(ValueError):
        QdpEvent("local_unitary", m=3, t0=1.0, gate=(0.6, 0.9))
    with pytest.raises(ValueError):
        QdpEvent("projective", m=0, t0=1.0)
    with pytest.raises(ValueError):
        QdpEvent("teleport", m=1, t0=1.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        QdpEvent("projective", m=1, t0=1.0, gate=(0.0, 1.0))


def test_gate_from_axis_builds_unitary_entries():
    gamma, delta = gate_from_axis(0.0, 1.0, math.pi / 2)
    assert gamma.imag == 0.0
    assert abs(gamma) ** 2 + abs(delta) ** 2 == pytest.approx(1.0, abs=1e-14)
    # quarter turn about x is the balanced splitter up to phase
    gx, dx = gate_from_axis(1.0, 0.0, math.pi / 4)
    assert abs(gx) == pytest.approx(abs(dx), abs=1e-14)


def test_conventions_fingerprint_is_stable_and_covers_every_rule():
    fp = conventions_hash()
    assert len(fp) == 16
    int(fp, 16)
    assert fp == conventions_hash()
    for key in ("hamiltonian", "dispersion", "propagator_phase"):
        assert any(key in name for name in CONVENTIONS), key


def test_reduced_phase_unwinds_reference_energy():
    spec = ChainSpec(8, "open", 0.5, 1.0)
    assert reduced_phase(spec, 0.0) == 1.0
    t = 3.7
    phase = reduced_phase(spec, t)
    assert abs(phase) == pytest.approx(1.0, abs=1e-15)
    assert phase == pytest.approx(np.exp(-1j * spec.ground_energy * t), abs=1e-14)
