"""Tests for the kicked-chain module.

The headline check rebuilds the model in the full 2^N many-body space with an
independently constructed hopping + kicked-potential Floquet operator and a
projective occupation measurement, then compares every readout of the
``protocols.measured`` stream on ``KickedChain`` against it.  The CLI's kicked
grids are held, byte for byte, to a per-kick ``v = step @ v`` loop across
block edges.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from bloch_reference import bloch_average
from csv_reference import grid_csv_reference
from golden_io import transfer_fidelity
from kicked_reference import expm_hermitian, hopping_matrix
from spinchain import harper, protocols
from spinchain.bessel import MAX_ARG
from spinchain.chain import ChainSpec, InitialState
from spinchain.cli import main
from spinchain.green1 import reduced_profile
from spinchain.harper import MAX_N, HarperSpec, KickedChain, floquet_step, kick_phases, spread_metric
from spinchain.protocols import (
    _fidelity_row,
    _projective_parts,
    _rdm_row,
    fidelity_from_amplitudes,
    measured,
    occupation_change,
)


def _after_kicks(spec: HarperSpec, n_kicks: int, amplitude: complex = 1.0) -> np.ndarray:
    """The one-particle vector of a particle released at site 1 with ``amplitude``, after n_kicks."""
    (block,) = KickedChain(spec).rows(1, [n_kicks])
    return amplitude * block[-1]


def _gk(spec: HarperSpec, m: int, n0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (g, k) rows after kick n of a site-m measurement at kick n0."""
    ((g, k),) = measured(KickedChain(spec), m, n0, [n])
    return g[0], k[0]


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
        hop = expm_hermitian(hopping_matrix(spec), -1j * spec.tau)
        expected = hop @ np.diag(kick_phases(spec))
        assert np.allclose(floquet_step(spec), expected, atol=1e-12)


def test_unkicked_closed_chain_matches_one_magnon_propagator():
    # with g = 0 the walk is the bare ring hop; its amplitudes are the complex
    # conjugate of the reduced one-magnon profile (the hop signs are opposite)
    spec = HarperSpec(n=12, g=0.0, tau=0.35, boundary="closed")
    chain = ChainSpec(n=12, boundary="closed")
    n_kicks = 5
    psi = _after_kicks(spec, n_kicks)
    reduced = reduced_profile(1, n_kicks * spec.tau, chain)
    assert np.allclose(psi, np.conj(reduced), atol=1e-12)


def test_vacuum_amplitude_is_inert():
    spec = HarperSpec(n=8, g=1.2, tau=0.3)
    initial = InitialState(math.sqrt(0.4), math.sqrt(0.6))
    psi = _after_kicks(spec, 7, initial.beta)
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(abs(initial.beta) ** 2, abs=1e-12)
    # in the full many-body space the vacuum keeps alpha, and the one-particle
    # sector (bit j set <-> particle at site j + 1) is the module's vector
    full = np.zeros(1 << spec.n, dtype=complex)
    full[0], full[1] = initial.alpha, initial.beta
    step = _FullSpaceOracle(spec).step
    for _ in range(7):
        full = step @ full
    assert full[0] == pytest.approx(initial.alpha, abs=1e-12)
    assert np.allclose(full[1 << np.arange(spec.n)], psi, atol=1e-12)


def test_flip_state_fidelity_equals_occupation_profile():
    spec = HarperSpec(n=10, g=0.9, tau=0.4)
    flip = InitialState(0.0, 1.0)
    u = _after_kicks(spec, 4)
    fid = fidelity_from_amplitudes(u, flip)
    occ = np.abs(_after_kicks(spec, 4, flip.beta)) ** 2
    assert np.allclose(fid, occ, atol=1e-13)


def test_averaged_fidelity_matches_direct_sphere_quadrature():
    spec = HarperSpec(n=8, g=1.1, tau=0.5)
    n_kicks = 3
    u = _after_kicks(spec, n_kicks)
    averaged = fidelity_from_amplitudes(u)
    for site in (1, 4, 8):
        direct = bloch_average(
            lambda a, b: float(fidelity_from_amplitudes(u, InitialState(a, b))[site - 1])
        )
        assert averaged[site - 1] == pytest.approx(direct, abs=1e-12)


def per_kick_vectors(spec: HarperSpec, kicks: int, *seeds: np.ndarray) -> list[tuple]:
    """Reference stepper: the seed vectors after kicks 0..kicks, one ``v = step @ v`` per kick."""
    step = floquet_step(spec)
    vectors = [seeds]
    for _ in range(kicks):
        vectors.append(tuple(step @ v for v in vectors[-1]))
    return vectors


def harper_csv_reference(spec: HarperSpec, kicks: int, initial: InitialState | None) -> str:
    """The ``harper`` command's CSV, stepped and read one kick at a time."""
    seed = np.eye(spec.n, dtype=complex)[0]
    rows = [fidelity_from_amplitudes(u, initial) for (u,) in per_kick_vectors(spec, kicks, seed)]
    ts = [n * spec.tau for n in range(kicks + 1)]
    return grid_csv_reference(range(1, spec.n + 1), ts, np.array(rows).T)


def detector_csv_reference(
    spec: HarperSpec, m: int, n0: int, kicks: int, initial: InitialState
) -> str:
    """The ``detector`` command's CSV, stepped and read one kick at a time."""
    seed = np.eye(spec.n, dtype=complex)[0]
    u_mid = per_kick_vectors(spec, n0, seed)[-1][0]
    rows = []
    for g, g_m in per_kick_vectors(spec, kicks - n0, u_mid, np.eye(spec.n, dtype=complex)[m - 1]):
        weight, h = _projective_parts(g, u_mid[m - 1] * g_m)
        occupation, _ = _rdm_row(weight, h, initial)
        rows.append(occupation - abs(initial.beta) ** 2 * np.abs(g) ** 2)
    ts = [n * spec.tau for n in range(n0, kicks + 1)]
    return grid_csv_reference(range(1, spec.n + 1), ts, np.array(rows).T)


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
        self.step = expm_hermitian(hop, -1j * spec.tau) * kick[np.newaxis, :]
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
    g, k = _gk(spec, m, n0, n)
    weight, h = _projective_parts(g, k)
    occupation, coherence = _rdm_row(weight, h, initial)
    (detector,) = next(occupation_change([(g[None], k[None])], initial))
    fidelity = _fidelity_row(weight, h, None)
    oracle = _FullSpaceOracle(spec)
    x, y, x_free = oracle.measure_run(initial.alpha, initial.beta, m, n0, n)

    assert np.allclose(occupation, x, atol=1e-10)
    assert np.allclose(coherence, y, atol=1e-10)
    assert np.allclose(abs(initial.beta) ** 2 * np.abs(g) ** 2, x_free, atol=1e-10)
    assert np.allclose(detector, x - x_free, atol=1e-10)

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
        assert fidelity[site - 1] == pytest.approx(direct, abs=1e-10)


class _CountingStep(np.ndarray):
    """A Floquet step that counts the matrix-vector products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            _CountingStep.products += 1
        inputs = tuple(np.asarray(x) if isinstance(x, _CountingStep) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **({} if out is None else {"out": out}), **kwargs)


def test_measured_run_steps_two_rows(monkeypatch):
    # one step build; the row from site 1 to the measurement, then the free row from site 1
    # and the row released from m at n0, one product per kick each: no survive, collapse or
    # re-seeded free copy
    builds = []
    original = harper.floquet_step

    def counting(spec):
        builds.append(spec)
        return original(spec).view(_CountingStep)

    monkeypatch.setattr(harper, "floquet_step", counting)
    monkeypatch.setattr(_CountingStep, "products", 0)
    spec = HarperSpec(n=10, g=1.2, tau=0.3)
    n0, n = 2, 6
    list(measured(KickedChain(spec), 3, n0, range(n0, n + 1)))
    assert len(builds) == 1
    assert _CountingStep.products == n0 + n + (n - n0)


def test_detector_profile_sums_to_zero():
    spec = HarperSpec(n=30, g=2.0, tau=0.25, boundary="closed")
    blocks = occupation_change(measured(KickedChain(spec), 5, 4, range(4, 21)), InitialState(0.6, 0.8))
    rows = np.concatenate(list(blocks))
    assert len(rows) == 17
    assert abs(float(np.sum(rows[-1]))) < 1e-12


def test_blocks_hold_consecutive_kicks(monkeypatch):
    # every block but the last has max(1, _BLOCK_CELLS // n) rows, and the kicks run on unbroken
    spec = HarperSpec(n=5, g=1.2, tau=0.3)
    chain = KickedChain(spec)
    every = np.concatenate(list(chain.rows(1, range(11))))
    assert np.array_equal(every[0], np.eye(5)[0])
    for cells, rows in ((23, 4), (5, 1), (4, 1)):
        monkeypatch.setattr(protocols, "_BLOCK_CELLS", cells)
        for kicks in (range(11), range(3, 11)):  # from kick 0, and from past it
            blocks = list(chain.rows(1, kicks))
            sizes = [len(block) for block in blocks]
            assert sizes[:-1] == [rows] * (len(sizes) - 1) and sum(sizes) == len(kicks)
            assert np.array_equal(np.concatenate(blocks), every[kicks.start:])
        gk = list(measured(chain, 2, 3, range(3, 11)))
        assert [len(g) for g, _ in gk] == [len(k) for _, k in gk] == sizes
    assert [len(b) for b in chain.rows(1, [0])] == [1]
    for bad in ([-1], [3, 2]):
        with pytest.raises(ValueError, match="kicks must ascend from 0"):
            list(chain.rows(1, bad))


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
        exact = expm_hermitian(static, -1j * total_time) @ seed
        kicked = _after_kicks(spec, steps)
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
    chain = KickedChain(HarperSpec(n=5, g=1.0, tau=0.1))
    with pytest.raises(ValueError, match="source site 0"):
        next(measured(chain, 0, 1, range(1, 4)))
    with pytest.raises(ValueError, match="source site 6"):
        next(measured(chain, 6, 1, range(1, 4)))
    with pytest.raises(ValueError, match=r"t0 must be >= 0, got -1"):
        next(measured(chain, 2, -1, range(0, 4)))
    with pytest.raises(ValueError, match=r"t = 3 precedes the measurement at t0 = 4"):
        next(measured(chain, 2, 4, [3]))
    # tau * g overflows, so every kick phase and the detector would be NaN
    with pytest.raises(ValueError):
        _gk(HarperSpec(8, 1e10, 1e300), 2, 1, 3)
    # the spec itself refuses it, and a potential phase 2*pi*n*eta that overflows, by name
    HarperSpec(n=5, g=1e300, tau=1.0, eta=1e300)
    with pytest.raises(ValueError, match=r"tau = .*g = "):
        HarperSpec(8, 1e10, 1e300)
    with pytest.raises(ValueError, match=r"n = .*eta = "):
        HarperSpec(n=8, g=1.0, tau=0.1, eta=1e308)
    # finite, but past the argument where the hop factor's phases are exact
    with pytest.raises(ValueError, match=r"tau = "):
        HarperSpec(8, 0.0, 1e300)
    with pytest.raises(ValueError, match=r"tau = "):
        HarperSpec(8, 0.0, MAX_ARG / 2 * (1 + 1e-12))
    HarperSpec(8, 0.0, MAX_ARG / 2)
    # the dense n x n Floquet step is bounded; the refusal allocates nothing
    with pytest.raises(ValueError, match=r"n = 3000000"):
        HarperSpec(n=3_000_000, g=1.0, tau=0.1)
    with pytest.raises(ValueError, match=r"n = "):
        HarperSpec(n=MAX_N + 1, g=1.0, tau=0.1)
    HarperSpec(n=MAX_N, g=1.0, tau=0.1)


@pytest.mark.parametrize("boundary", ["open", "closed"])
@pytest.mark.parametrize("n", [2, 7, 333])
@pytest.mark.parametrize("rows", [1, 4])
def test_kicked_grids_match_the_per_kick_reference_across_block_edges(
    tmp_path, monkeypatch, boundary, n, rows
):
    # 14 kicks span 4 blocks of 4 rows (or 14 of 1); the measurement falls on
    # the first kick, on a block edge, and on the last kick
    monkeypatch.setattr(protocols, "_BLOCK_CELLS", rows * n + n - 1)
    kicks, g, tau, alpha2 = 13, 1.3, 0.35, 0.3
    spec = HarperSpec(n, g, tau, boundary=boundary)
    chain = ["--n", str(n), "--boundary", boundary, "--g", str(g), "--tau", str(tau)]
    out = tmp_path / "h.csv"
    assert main(["harper", *chain, "--kicks", str(kicks), "--out", str(out)]) == 0
    assert out.read_text() == harper_csv_reference(spec, kicks, None)
    initial = InitialState(math.sqrt(alpha2), math.sqrt(1.0 - alpha2))
    m = min(n, 2)
    for n0 in (0, rows, kicks):
        assert main(["detector", *chain, "--kicks", str(kicks), "--qdp-site", str(m),
                     "--qdp-kick", str(n0), "--alpha2", str(alpha2), "--out", str(out)]) == 0
        assert out.read_text() == detector_csv_reference(spec, m, n0, kicks, initial), n0
