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
    MEASUREMENT,
    InitialState,
    LocalProcess,
    conventions_hash,
    gate,
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
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite"):
            ChainSpec(4, "open", 0.5, delta)
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
    # the six states the averaged rows read, against the sphere quadrature: their
    # mean holds every projector moment of first and second order that a fidelity reads
    aa, bb, ba = (entry.ravel() for entry in protocols._SIX_STATES)
    assert np.array_equal(aa + bb, np.ones(6)) and np.allclose(np.abs(ba) ** 2, aa * bb)
    moments = (
        (aa, lambda a, b: abs(a) ** 2),
        (bb, lambda a, b: abs(b) ** 2),
        (aa * bb, lambda a, b: abs(a) ** 2 * abs(b) ** 2),
        (aa * aa, lambda a, b: abs(a) ** 4),
        (bb * bb, lambda a, b: abs(b) ** 4),
        (ba * np.conj(ba), lambda a, b: abs(a * b) ** 2),
        (ba, lambda a, b: b * np.conj(a)),
        (ba * aa, lambda a, b: b * np.conj(a) * abs(a) ** 2),
        (ba * bb, lambda a, b: b * np.conj(a) * abs(b) ** 2),
        (ba * ba, lambda a, b: (b * np.conj(a)) ** 2),
    )
    for six, integrand in moments:
        mean = np.mean(six)
        assert mean.real == pytest.approx(bloch_average(lambda a, b: integrand(a, b).real), abs=1e-15)
        assert mean.imag == pytest.approx(bloch_average(lambda a, b: integrand(a, b).imag), abs=1e-15)


def test_gate_event_requires_real_diagonal_and_unit_norm():
    process = LocalProcess(3, 1.0, gate(0.6, 0.8j))
    assert np.array_equal(process.kraus, [[[0.6, 0.8j], [0.8j, 0.6]]])
    # stored as a read-only complex array whatever the caller passes
    assert LocalProcess(1, 0.0, gate(1, 0)).kraus.dtype == complex
    assert not LocalProcess(1, 0.0, gate(0.0, 1.0)).kraus.flags.writeable
    complete = r"sum K\^dagger K = 1"
    # a flipping gate with Im(gamma) != 0 is not unitary
    with pytest.raises(ValueError, match=complete):
        LocalProcess(3, 1.0, gate(0.6j, 0.8))
    with pytest.raises(ValueError, match=complete):
        LocalProcess(3, 1.0, gate(0.6, 0.9))
    with pytest.raises(ValueError, match=complete):
        LocalProcess(3, 1.0, gate(float("nan"), 0.0))
    # a value too large to square is refused, not an OverflowError
    for gamma, delta in ((1e155, 0.0), (0.0, 1e200), (0.0, 1e200j)):
        with pytest.raises(ValueError, match=complete):
            LocalProcess(3, 1.0, gate(gamma, delta))
    with pytest.raises(ValueError, match="site index m must be >= 1"):
        LocalProcess(0, 1.0, gate(0.0, 1.0))
    for t0 in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="t0 must be finite and >= 0"):
            LocalProcess(1, t0, gate(0.0, 1.0))
    # a phase-only gate may carry a complex gamma
    LocalProcess(1, 0.0, gate(0.6 + 0.8j, 0.0))


def test_local_process_refuses_incomplete_sets_and_non_finite_entries():
    complete = r"sum K\^dagger K = 1"
    LocalProcess(2, 0.5, MEASUREMENT)
    with pytest.raises(ValueError, match=complete):
        LocalProcess(2, 0.5, MEASUREMENT[:1])  # one outcome only
    damping = (((1, 0), (0, math.sqrt(0.63))), ((0, math.sqrt(0.37)), (0, 0)))
    LocalProcess(2, 0.5, damping)
    with pytest.raises(ValueError, match=complete):
        LocalProcess(2, 0.5, damping[:1])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=complete):
            LocalProcess(2, 0.5, (((1, 0), (0, 0)), ((0, 0), (0, bad))))
    for shape in ((), ((1, 0), (0, 1)), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],)):
        with pytest.raises(ValueError, match="2 x 2 Kraus operators"):
            LocalProcess(2, 0.5, shape)


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
