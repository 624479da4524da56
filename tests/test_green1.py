"""One-magnon propagator: dense goldens, unitarity, lattice-image agreement, domain."""

from __future__ import annotations

import numpy as np
import pytest

from spinchain import oracle
from spinchain.bessel import MAX_ARG
from spinchain.chain import ChainSpec, reduced_phase
from spinchain.green1 import free_propagator, reduced_profile
from spinchain.harper import HarperSpec, floquet_step, kick_phases

from bessel_reference import bessel_j, reduced_hop_amplitudes


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_momentum_sum_matches_dense_golden(golden, boundary):
    record = golden("green1_n12")
    spec = ChainSpec(12, boundary, 0.5, 1.0)
    for t in record["inputs"]["times"]:
        got = reduced_profile(1, t, spec)
        want = record["values"][f"{boundary}_t{t}"]
        assert np.max(np.abs(got - want)) <= record["tolerance"]


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_profile_is_unitary(boundary):
    spec = ChainSpec(30, boundary, 0.5, 1.0)
    for t in (0.0, 0.9, 4.4, 21.0):
        profile = reduced_profile(1, t, spec)
        assert np.sum(np.abs(profile) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_time_zero_is_delta():
    spec = ChainSpec(17, "open", 0.5, 1.0)
    profile = reduced_profile(5, 0.0, spec)
    expected = np.zeros(17)
    expected[4] = 1.0
    assert np.max(np.abs(profile - expected)) < 1e-12


def _image_sum(x: int, t: float, spec: ChainSpec) -> np.ndarray:
    """The row as boundary-free Bessel hops: mirror image (open) or one winding each way (closed)."""
    z = 4.0 * spec.j * t
    targets = np.arange(1, spec.n + 1)
    direct = reduced_hop_amplitudes(targets - x, z)
    if spec.boundary == "open":
        return direct - reduced_hop_amplitudes(targets + x, z)
    return (
        direct
        + reduced_hop_amplitudes(targets - x - spec.n, z)
        + reduced_hop_amplitudes(targets - x + spec.n, z)
    )


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_rows_match_lattice_images_before_the_front_returns(boundary):
    spec = ChainSpec(120, boundary, 0.5, 1.0)
    for x, t in ((1, 5.0), (60, 11.0)):
        assert np.max(np.abs(reduced_profile(x, t, spec) - _image_sum(x, t, spec))) < 1e-12


def test_ring_propagation_reaches_targets_both_ways_round():
    # site 85 from site 1 is 16 hops the short way; the winding image carries it
    spec = ChainSpec(100, "closed", 0.5, 1.0)
    t = 9.0
    row = reduced_profile(1, t, spec)
    images = _image_sum(1, t, spec)
    assert abs(row[84] - images[84]) < 1e-10
    assert abs(row[84]) > 1e-3  # the target really is inside the light cone
    assert np.max(np.abs(row - images)) < 1e-10


def test_ring_rows_match_dense_evolution_after_the_front_wraps():
    spec = ChainSpec(100, "closed", 0.5, 1.0)
    ham = oracle.build_hamiltonian(spec, "one_excitation")
    seed = oracle.DenseState(np.eye(100, dtype=complex)[0], ham.basis)
    for t in (40.0, 50.0, 200.0):
        dense = oracle.evolve(seed, ham, t).vector
        mine = reduced_phase(spec, t) * reduced_profile(1, t, spec)
        assert np.max(np.abs(mine - dense)) < 1e-12, t


def test_hop_amplitudes_phase_and_parity():
    z = 3.2
    values = reduced_hop_amplitudes([-2, -1, 0, 1, 2], z)
    j0, j1, j2 = bessel_j(0, z), bessel_j(1, z), bessel_j(2, z)
    assert values[2] == pytest.approx(j0, abs=1e-14)
    assert values[3] == pytest.approx(1j * j1, abs=1e-14)
    assert values[0] == pytest.approx(-j2, abs=1e-14)
    # left and right hops carry identical amplitudes (reflection symmetry)
    assert values[1] == pytest.approx(values[3], abs=1e-15)
    assert values[4] == pytest.approx(values[0], abs=1e-15)


def test_site_validation():
    spec = ChainSpec(10, "open", 0.5, 1.0)
    with pytest.raises(ValueError):
        reduced_profile(0, 1.0, spec)
    with pytest.raises(ValueError):
        reduced_profile(11, 1.0, spec)
    with pytest.raises(ValueError):
        reduced_profile(1, -0.5, spec)


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_refuses_arguments_past_the_bessel_domain(boundary):
    spec = ChainSpec(12, boundary, 0.5, 1.0)
    assert reduced_profile(1, MAX_ARG / 2.0, spec).shape == (12,)
    for t in (MAX_ARG, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            reduced_profile(1, t, spec)


@pytest.mark.parametrize("boundary", ["open", "closed"])
@pytest.mark.parametrize("n", [1, 2, 12, 64, 101])
def test_batched_rows_equal_the_single_rows(boundary, n):
    rng = np.random.default_rng(n)
    z = np.concatenate(([0.0, 0.0, 2.0, -2.0], rng.uniform(-60.0, 60.0, 12)))
    sources = np.concatenate(([1, n, n, 1], rng.integers(1, n + 1, 12)))
    rows = free_propagator(n, boundary, z, sources)
    assert rows.shape == (len(z), n)
    for row, z_r, source in zip(rows, z, sources):
        assert np.array_equal(row, free_propagator(n, boundary, float(z_r), int(source)))


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_floquet_step_is_the_single_rows_as_columns(boundary):
    spec = HarperSpec(12, 1.3, 0.7, boundary=boundary)
    columns = [free_propagator(12, boundary, -2.0 * spec.tau, x) for x in range(1, 13)]
    assert np.array_equal(floquet_step(spec), np.column_stack(columns) * kick_phases(spec))
