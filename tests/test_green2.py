"""Two-magnon ring kernel: dense evolution, hand values, completeness, factorization."""

from __future__ import annotations

import numpy as np
import pytest

from spinchain import oracle
from spinchain.chain import ChainSpec, reduced_phase
from spinchain.green2 import MAX_RING_SITES, RingTwoMagnon, green2

from bessel_reference import reduced_hop_amplitudes

SPEC = ChainSpec(40, "closed", 0.5, 1.0)


def _reduced(value, t, spec=SPEC):
    return value / reduced_phase(spec, t)


def _matrix(pairs, n):
    """Symmetric pair matrix of a pair vector in oracle order."""
    matrix = np.zeros((n, n), dtype=complex)
    matrix[np.triu_indices(n, 1)] = pairs
    return matrix + matrix.T


def _random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    size = n * (n - 1) // 2
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_green2_matches_dense_evolution_on_the_ring(delta):
    # by t = 10 the pair's waves have crossed the seam of the 40-site ring
    spec = ChainSpec(40, "closed", 0.5, delta)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    seed = np.zeros(ham.basis.dim, dtype=complex)
    seed[ham.basis.pair_index(10, 11)] = 1.0
    for t in (2.0, 10.0, 20.0):
        dense = oracle.evolve(oracle.DenseState(seed, ham.basis), ham, t).vector
        for target in ((10, 11), (30, 31), (20, 25)):
            got = green2(10, 11, *target, t, spec).value
            assert abs(got - dense[ham.basis.pair_index(*target)]) < 1e-12
    with pytest.raises(ValueError):
        green2(10, 11, 10, 11, 1.0, ChainSpec(40, "open", 0.5, delta))


def test_time_zero_hand_values():
    # the total is the identity; the ring's bound band holds the pair-bound share
    projector = oracle.bound_band_projector(SPEC).projector
    basis = oracle.make_basis("two_excitation", SPEC.n)
    source = basis.pair_index(10, 11)
    for target, identity in (((10, 11), 1.0), ((11, 12), 0.0)):
        total = green2(10, 11, *target, 0.0, SPEC).value
        assert abs(total - identity) < 1e-12
        bound = green2(10, 11, *target, 0.0, SPEC, part="bound").value
        scatter = green2(10, 11, *target, 0.0, SPEC, part="scattering").value
        want = projector[basis.pair_index(*target), source]
        assert abs(bound - want) < 1e-12
        assert abs(scatter - (identity - want)) < 1e-12


def test_bound_weights_match_dense_band_projection(golden):
    census = golden("bound_census")
    weights = census["values"]["bound_diag_weights_n40"].real
    for sep, oracle_weight in zip((1, 2, 3), weights):
        value = green2(19, 19 + sep, 19, 19 + sep, 0.0, SPEC, part="bound")
        assert _reduced(value.value, 0.0).real == pytest.approx(
            oracle_weight, abs=census["tolerance"]
        )
    for n, expected in ((12, 9), (20, 17), (40, 35)):
        ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 1.0))
        assert ring.bound_count == expected


def test_free_point_factorizes_into_free_fermion_determinant():
    spec = ChainSpec(40, "closed", 0.5, 0.0)
    t = 1.5
    z = 4 * spec.j * t
    for src, dst in [((18, 21), (19, 23)), ((18, 19), (18, 19)), ((16, 21), (17, 18))]:
        got = _reduced(green2(*src, *dst, t, spec).value, t, spec)
        hops = reduced_hop_amplitudes(
            [dst[0] - src[0], dst[1] - src[1], dst[0] - src[1], dst[1] - src[0]], z
        )
        expected = hops[0] * hops[1] - hops[2] * hops[3]
        assert got == pytest.approx(expected, abs=1e-12)


def test_line_kernels_match_dense_ring_mid_chain(golden):
    record = golden("green2_line_n40")
    source = tuple(record["inputs"]["source_pair"])
    targets = [tuple(p) for p in record["inputs"]["targets"]]
    for t in record["inputs"]["times"]:
        want = record["values"][f"t{t}"]
        got = np.array([_reduced(green2(*source, *p, t, SPEC).value, t) for p in targets])
        assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_parts_resolve_the_total():
    t = 1.2
    for src, dst in (((10, 11), (9, 12)), ((10, 13), (11, 12)), ((9, 14), (10, 15))):
        total = green2(*src, *dst, t, SPEC).value
        bound = green2(*src, *dst, t, SPEC, part="bound").value
        scatter = green2(*src, *dst, t, SPEC, part="scattering").value
        assert abs(total - bound - scatter) < 1e-14


def test_ring_propagator_matches_dense_evolution(golden):
    record = golden("ring2_n12")
    spec = ChainSpec(12, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    s1, s2 = record["inputs"]["source_pair"]
    source = np.zeros((12, 12), dtype=complex)
    source[s1 - 1, s2 - 1] = source[s2 - 1, s1 - 1] = 1.0
    for t in record["inputs"]["times"]:
        got = ring.evolve_pair_state(source, t)[np.triu_indices(12, 1)]
        want = record["values"][f"t{t}"]
        assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_ring_parts_are_unitary_complement():
    spec = ChainSpec(14, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    psi = _matrix(_random_pairs(14, 11), 14)
    upper = np.triu_indices(14, 1)
    t = 2.7
    total = ring.evolve_pair_state(psi, t, "total")[upper]
    bound = ring.evolve_pair_state(psi, t, "bound")[upper]
    scatter = ring.evolve_pair_state(psi, t, "scattering")[upper]
    assert np.max(np.abs(total - bound - scatter)) < 1e-12
    assert np.linalg.norm(total) == pytest.approx(1.0, abs=1e-12)
    # the split is spectral, so each part's weight is conserved in time
    later_bound = ring.evolve_pair_state(psi, 2 * t, "bound")[upper]
    assert np.linalg.norm(later_bound) == pytest.approx(np.linalg.norm(bound), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 13])
def test_ring_parts_match_dense_evolution_and_bound_projector(n):
    # odd and even rings down to the smallest sizes, where the padded odd
    # sectors and the antipodal cells of the pair grid are a large share
    spec = ChainSpec(n, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    psi = _random_pairs(n, n)
    upper = np.triu_indices(n, 1)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    assert list(ham.basis.pairs) == [(i + 1, j + 1) for i, j in zip(*upper)]
    t = 2.3
    dense = oracle.evolve(oracle.DenseState(psi, ham.basis), ham, t).vector
    total = ring.evolve_pair_state(_matrix(psi, n), t, "total")[upper]
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    projector = oracle.bound_band_projector(spec).projector
    bound = ring.evolve_pair_state(_matrix(psi, n), t, "bound")[upper]
    assert np.max(np.abs(bound - projector @ total)) < 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.5, -0.7, 2.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 13])
def test_folded_blocks_match_dense_evolution_over_delta(n, delta):
    # sectors k and N - k share one real block at every anisotropy; negative
    # delta makes the contact well repulsive and moves the parked level
    spec = ChainSpec(n, "closed", 0.5, delta)
    ring = RingTwoMagnon(spec)
    psi = _random_pairs(n, n)
    upper = np.triu_indices(n, 1)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    t = 2.3
    dense = oracle.evolve(oracle.DenseState(psi, ham.basis), ham, t).vector
    total = ring.evolve_pair_state(_matrix(psi, n), t, "total")[upper]
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    bound = ring.evolve_pair_state(_matrix(psi, n), t, "bound")[upper]
    scatter = ring.evolve_pair_state(_matrix(psi, n), t, "scattering")[upper]
    assert np.max(np.abs(bound + scatter - total)) < 1e-12


@pytest.mark.parametrize("n", [12, 13])
def test_ring_keeps_floor_half_plus_one_real_blocks(n):
    # N^3 bytes of modes: a complex block per sector would take 4 N^3
    ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 1.0))
    r = n // 2
    assert ring._evecs.dtype == np.float64
    assert ring._evecs.shape == (r + 1, r, r)
    assert ring._evals.shape == (r + 1, r)


def test_ring_validation():
    with pytest.raises(ValueError):
        RingTwoMagnon(ChainSpec(12, "open", 0.5, 1.0))
    with pytest.raises(ValueError):
        RingTwoMagnon(ChainSpec(MAX_RING_SITES + 1, "closed", 0.5, 1.0))
    with pytest.raises(ValueError):
        green2(1, 2, 1, 2, 1.0, ChainSpec(12, "open", 0.5, 0.3), part="bound")
    with pytest.raises(ValueError):
        green2(1, 2, 1, 2, -1.0, SPEC, part="scattering")
    with pytest.raises(ValueError):
        green2(1, 2, 40, 41, 1.0, SPEC)
    # the kernel reads one triangle per pair, so a pair state must be a
    # symmetric matrix with a zero diagonal
    ring = RingTwoMagnon(ChainSpec(6, "closed", 0.5, 1.0))
    psi = _matrix(_random_pairs(6, 3), 6)
    lopsided = psi.copy()
    lopsided[0, 3] += 1e-3
    with pytest.raises(ValueError):
        ring.evolve_pair_state(lopsided, 1.0)
    with pytest.raises(ValueError):
        ring.evolve_pair_state(psi + np.eye(6), 1.0)
    with pytest.raises(ValueError):
        ring.evolve_pair_state(psi[np.triu_indices(6, 1)], 1.0)
