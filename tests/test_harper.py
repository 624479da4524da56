"""Tests for the kicked-chain module.

The headline check rebuilds the model in the full 2^N many-body space with an
independently constructed hopping + kicked-potential Floquet operator and a
projective occupation measurement, then compares every readout channel of
``qdp_and_detect`` against it.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from spinchain.chain import ChainSpec, InitialState
from spinchain.green1 import reduced_profile
from spinchain.harper import (
    HarperSpec,
    fidelity_free_kicked,
    floquet_step,
    free_occupation_profile,
    hopping_matrix,
    kick_phases,
    propagate,
    qdp_and_detect,
    spread_metric,
)
from spinchain.oracle import bloch_average, transfer_fidelity


def _expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


def test_floquet_step_is_unitary():
    for boundary in ("open", "closed"):
        for g in (0.0, 1.0, 3.5):
            spec = HarperSpec(n=17, g=g, tau=0.7, boundary=boundary)
            u = floquet_step(spec)
            assert np.allclose(u.conj().T @ u, np.eye(spec.n), atol=1e-13)


def test_step_is_hop_exponential_times_kick_diagonal():
    # kick acts first, then the hop exponential; the analytic mode expansion
    # must agree with a brute-force matrix exponential of the hopping matrix
    for boundary in ("open", "closed"):
        spec = HarperSpec(n=9, g=1.3, tau=0.45, boundary=boundary)
        hop = _expm_hermitian(hopping_matrix(spec), -1j * spec.tau)
        expected = hop @ np.diag(kick_phases(spec))
        assert np.allclose(floquet_step(spec), expected, atol=1e-12)


def test_unkicked_closed_chain_matches_one_magnon_propagator():
    # with g = 0 the walk is the bare ring hop; its amplitudes are the complex
    # conjugate of the reduced one-magnon profile (the hop signs are opposite)
    spec = HarperSpec(n=12, g=0.0, tau=0.35, boundary="closed")
    chain = ChainSpec(n=12, boundary="closed")
    n_kicks = 5
    _, psi = propagate(spec, n_kicks, InitialState(0.0, 1.0))
    reduced = reduced_profile(1, n_kicks * spec.tau, chain)
    assert np.allclose(psi, np.conj(reduced), atol=1e-12)


def test_vacuum_amplitude_is_inert():
    spec = HarperSpec(n=8, g=1.2, tau=0.3)
    initial = InitialState(math.sqrt(0.4), math.sqrt(0.6))
    vac, psi = propagate(spec, 7, initial)
    assert vac == pytest.approx(initial.alpha, abs=0.0)
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(abs(initial.beta) ** 2, abs=1e-12)


def test_flip_state_fidelity_equals_occupation_profile():
    spec = HarperSpec(n=10, g=0.9, tau=0.4)
    flip = InitialState(0.0, 1.0)
    fid = fidelity_free_kicked(spec, 4, flip)
    occ = free_occupation_profile(spec, 4, flip)
    assert np.allclose(fid, occ, atol=1e-13)


def test_averaged_fidelity_matches_direct_sphere_quadrature():
    spec = HarperSpec(n=8, g=1.1, tau=0.5)
    n_kicks = 3
    averaged = fidelity_free_kicked(spec, n_kicks)
    for site in (1, 4, 8):
        direct = bloch_average(
            lambda a, b: float(
                fidelity_free_kicked(spec, n_kicks, InitialState(a, b))[site - 1]
            )
        )
        assert averaged[site - 1] == pytest.approx(direct, abs=1e-12)


class _FullSpaceOracle:
    """Independent many-body rebuild: 2^N space, occupation-number bit basis."""

    def __init__(self, spec: HarperSpec):
        n = spec.n
        dim = 1 << n
        occ = np.zeros((n, dim))
        for j in range(n):
            occ[j] = (np.arange(dim) >> j) & 1
        hop = np.zeros((dim, dim))
        bonds = [(j, j + 1) for j in range(n - 1)]
        if spec.boundary == "closed":
            bonds.append((n - 1, 0))
        for a, b in bonds:
            for state in range(dim):
                if (state >> a) & 1 and not (state >> b) & 1:
                    moved = state ^ (1 << a) ^ (1 << b)
                    hop[moved, state] += 1.0
                    hop[state, moved] += 1.0
        j_sites = np.arange(1, n + 1)
        v = spec.g * np.cos(2.0 * np.pi * j_sites * spec.eta / n)
        kick = np.exp(-1j * spec.tau * (v @ occ))
        self.occ = occ
        self.step = _expm_hermitian(hop, -1j * spec.tau) * kick[np.newaxis, :]
        self.n = n

    def measure_run(
        self, alpha: complex, beta: complex, m: int, n0: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(occupation, coherence, free occupation) per site, sites 1..N."""
        psi = np.zeros(1 << self.n, dtype=complex)
        psi[0] = alpha
        psi[1] = beta  # particle at site 1 <-> lowest bit set
        for _ in range(n0):
            psi = self.step @ psi
        collapse = psi * self.occ[m - 1]
        survive = psi - collapse
        free = psi
        for _ in range(n - n0):
            collapse = self.step @ collapse
            survive = self.step @ survive
            free = self.step @ free
        x = np.empty(self.n)
        y = np.empty(self.n, dtype=complex)
        for l in range(self.n):
            bit = 1 << l
            occupied = self.occ[l].astype(bool)
            x[l] = np.sum(np.abs(collapse[occupied]) ** 2) + np.sum(
                np.abs(survive[occupied]) ** 2
            )
            idx = np.nonzero(occupied)[0]
            y[l] = np.sum(collapse[idx] * np.conj(collapse[idx ^ bit])) + np.sum(
                survive[idx] * np.conj(survive[idx ^ bit])
            )
        x_free = self.occ @ (np.abs(free) ** 2)
        return x, y, x_free


def test_measured_run_matches_full_space_rebuild():
    spec = HarperSpec(n=10, g=1.2, tau=0.3)
    m, n0, n = 3, 2, 6
    initial = InitialState(math.sqrt(0.4), math.sqrt(0.6))
    result = qdp_and_detect(spec, m, n0, n, initial)
    oracle = _FullSpaceOracle(spec)
    x, y, x_free = oracle.measure_run(initial.alpha, initial.beta, m, n0, n)

    assert np.allclose(result.occupation, x, atol=1e-10)
    # the module stores the opposite orientation of the off-diagonal element
    assert np.allclose(result.coherence, np.conj(y), atol=1e-10)
    assert np.allclose(result.free_occupation, x_free, atol=1e-10)
    assert np.allclose(result.detector, x - x_free, atol=1e-10)

    cache: dict[tuple[complex, complex], tuple[np.ndarray, np.ndarray]] = {}

    def readout(a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
        key = (a, b)
        if key not in cache:
            xs, ys, _ = oracle.measure_run(a, b, m, n0, n)
            cache[key] = (xs, ys)
        return cache[key]

    for site in (1, 3, 7, 10):
        direct = bloch_average(
            lambda a, b: transfer_fidelity(
                readout(a, b)[0][site - 1], readout(a, b)[1][site - 1], a, b
            )
        )
        assert result.fidelity[site - 1] == pytest.approx(direct, abs=1e-10)


def test_detector_profile_sums_to_zero():
    spec = HarperSpec(n=30, g=2.0, tau=0.25, boundary="closed")
    result = qdp_and_detect(spec, 5, 4, 20, InitialState(0.6, 0.8))
    assert abs(float(np.sum(result.detector))) < 1e-12
    assert result.m == 5 and result.n0 == 4 and result.n == 20


def test_kicked_walk_converges_first_order_to_static_flow():
    # halving the kick interval should halve the splitting error
    n_sites, g, total_time = 16, 1.1, 1.6
    seed = np.zeros(n_sites, dtype=complex)
    seed[0] = 1.0
    j_sites = np.arange(1, n_sites + 1)
    errors = []
    for steps in (10, 20, 40):
        tau = total_time / steps
        spec = HarperSpec(n=n_sites, g=g, tau=tau)
        static = hopping_matrix(spec) + np.diag(
            g * np.cos(2.0 * np.pi * j_sites * spec.eta / n_sites)
        )
        exact = _expm_hermitian(static, -1j * total_time) @ seed
        _, kicked = propagate(spec, steps, InitialState(0.0, 1.0))
        errors.append(np.linalg.norm(kicked - exact))
    assert 1.7 < errors[0] / errors[1] < 2.3
    assert 1.7 < errors[1] / errors[2] < 2.3


def test_spread_metric_limits_and_validation():
    assert spread_metric(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert spread_metric(np.ones(7)) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        spread_metric(np.array([]))
    with pytest.raises(ValueError):
        spread_metric(np.array([0.5, -0.2]))
    with pytest.raises(ValueError):
        spread_metric(np.zeros(4))


def test_parameter_validation():
    with pytest.raises(ValueError):
        HarperSpec(n=1, g=1.0, tau=0.1)
    with pytest.raises(ValueError):
        HarperSpec(n=5, g=1.0, tau=0.0)
    with pytest.raises(ValueError):
        HarperSpec(n=5, g=1.0, tau=math.inf)
    with pytest.raises(ValueError):
        HarperSpec(n=5, g=1.0, tau=0.1, boundary="ring")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            HarperSpec(n=5, g=bad, tau=0.1)
        with pytest.raises(ValueError):
            HarperSpec(n=5, g=1.0, tau=0.1, eta=bad)
    spec = HarperSpec(n=5, g=1.0, tau=0.1)
    with pytest.raises(ValueError):
        propagate(spec, -1, InitialState(0.0, 1.0))
    with pytest.raises(ValueError):
        qdp_and_detect(spec, 0, 1, 3, InitialState(0.0, 1.0))
    with pytest.raises(ValueError):
        qdp_and_detect(spec, 6, 1, 3, InitialState(0.0, 1.0))
    with pytest.raises(ValueError):
        qdp_and_detect(spec, 2, 4, 3, InitialState(0.0, 1.0))
    # tau * g overflows, so every kick phase and the detector are NaN
    with pytest.raises(ValueError):
        qdp_and_detect(HarperSpec(8, 1e10, 1e300), 2, 1, 3, InitialState(0.6, 0.8))
    # the spec itself refuses it, and a potential phase 2*pi*n*eta that overflows, by name
    HarperSpec(n=5, g=1e10, tau=1e290, eta=1e300)
    with pytest.raises(ValueError, match=r"tau = .*g = "):
        HarperSpec(8, 1e10, 1e300)
    with pytest.raises(ValueError, match=r"n = .*eta = "):
        HarperSpec(n=8, g=1.0, tau=0.1, eta=1e308)
