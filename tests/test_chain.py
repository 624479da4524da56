"""Model conventions: energies, grids, encoded states, and local-gate algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bloch_reference import bloch_average
from spinchain import protocols
from spinchain.chain import (
    CONVENTIONS,
    ChainSpec,
    InitialState,
    LocalGate,
    conventions_hash,
    reduced_phase,
)


def test_ground_energy_counts_bonds_and_ignores_anisotropy():
    assert ChainSpec(12, "open", 0.5, 1.0).ground_energy == -0.5 * 11
    assert ChainSpec(12, "closed", 0.5, 1.0).ground_energy == -0.5 * 12
    assert ChainSpec(9, "open", 2.0, 0.3).ground_energy == -2.0 * 8
    # anisotropy shifts interactions, never the reference energy
    assert ChainSpec(8, "open", 1.0, 0.0).ground_energy == ChainSpec(8, "open", 1.0, 7.0).ground_energy


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
    # an amplitude too large to square is refused, not an OverflowError; NaN is refused too
    for alpha, beta in ((1e155, 0.0), (0.0, 1e200j), (math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 must be 1"):
            InitialState(alpha, beta)


def test_bloch_moments_are_exact_sphere_integrals():
    # the constants the averaged fidelity rows read, against the oracle's sphere quadrature
    moments = (
        (protocols._ABS_ALPHA_SQ, lambda a, b: abs(a) ** 2),
        (protocols._ABS_ALPHA_SQ, lambda a, b: abs(b) ** 2),
        (protocols._ALPHA_SQ_BETA_SQ, lambda a, b: abs(a) ** 2 * abs(b) ** 2),
        (protocols._ABS_ALPHA_4, lambda a, b: abs(a) ** 4),
        (protocols._ABS_ALPHA_4, lambda a, b: abs(b) ** 4),
    )
    for constant, integrand in moments:
        assert constant == pytest.approx(bloch_average(integrand), abs=1e-15)
    assert bloch_average(lambda a, b: (a * b).real) == pytest.approx(0.0, abs=1e-15)


def test_gate_event_requires_real_diagonal_and_unit_norm():
    gate = LocalGate(3, 1.0, 0.6, 0.8j)
    assert (gate.gamma, gate.delta) == (0.6, 0.8j)
    # stored as complex numbers whatever the caller passes
    assert type(LocalGate(1, 0.0, 1, 0).gamma) is complex
    assert type(LocalGate(1, 0.0, 0.0, 1.0).delta) is complex
    with pytest.raises(ValueError, match="gamma must be real"):
        LocalGate(3, 1.0, 0.6j, 0.8)
    with pytest.raises(ValueError, match=r"\|gamma\|\^2 \+ \|delta\|\^2 must be 1"):
        LocalGate(3, 1.0, 0.6, 0.9)
    with pytest.raises(ValueError, match=r"\|gamma\|\^2 \+ \|delta\|\^2 must be 1"):
        LocalGate(3, 1.0, float("nan"), 0.0)
    # a value too large to square is refused, not an OverflowError
    for gamma, delta in ((1e155, 0.0), (0.0, 1e200), (0.0, 1e200j)):
        with pytest.raises(ValueError, match=r"\|gamma\|\^2 \+ \|delta\|\^2 must be 1"):
            LocalGate(3, 1.0, gamma, delta)
    with pytest.raises(ValueError, match="site index m must be >= 1"):
        LocalGate(0, 1.0, 0.0, 1.0)
    for t0 in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="t0 must be finite and >= 0"):
            LocalGate(1, t0, 0.0, 1.0)
    # a phase-only gate may carry a complex gamma
    LocalGate(1, 0.0, 0.6 + 0.8j, 0.0)


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
