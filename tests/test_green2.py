"""Two-magnon kernels: hand values, completeness, factorization, ring propagator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spinchain import oracle
from spinchain.chain import ChainSpec, reduced_phase
from spinchain.green1 import reduced_hop_amplitudes
from spinchain.green2 import (
    MAX_RING_SITES,
    QuadratureError,
    RingTwoMagnon,
    TwoMagnonEngine,
    bound_wavefunction,
    green2,
    green2_bound,
    green2_scattering,
    theta_phase,
)

SPEC = ChainSpec(40, "closed", 0.5, 1.0)


def _reduced(value, t, spec=SPEC):
    return value / reduced_phase(spec, t)


def test_scatter_phase_structure():
    assert theta_phase(math.pi / 2, -math.pi / 2, 1.0) == pytest.approx(math.pi / 2, abs=1e-12)
    forward = theta_phase(0.7, 1.9, 1.0)
    backward = theta_phase(1.9, 0.7, 1.0)
    assert forward == pytest.approx(-backward, abs=1e-12)
    assert theta_phase(1.1, 1.1, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_time_zero_hand_values():
    # same-pair weights: scattering and pair-bound halves of the identity
    diag_s = green2_scattering(10, 11, 10, 11, 0.0, SPEC)
    assert _reduced(diag_s.value, 0.0) == pytest.approx(0.5, abs=3e-6)
    diag_b = green2_bound(10, 11, 10, 11, 0.0, SPEC)
    assert _reduced(diag_b.value, 0.0) == pytest.approx(0.5, abs=1e-9)
    total = green2(10, 11, 10, 11, 0.0, SPEC)
    assert _reduced(total.value, 0.0) == pytest.approx(1.0, abs=3e-6)
    # shifted neighbor pair: the parts cancel exactly in the total
    off_s = green2_scattering(10, 11, 11, 12, 0.0, SPEC)
    assert _reduced(off_s.value, 0.0) == pytest.approx(0.25, abs=3e-6)
    off_b = green2_bound(10, 11, 11, 12, 0.0, SPEC)
    assert _reduced(off_b.value, 0.0) == pytest.approx(-0.25, abs=1e-9)
    off_total = green2(10, 11, 11, 12, 0.0, SPEC)
    assert abs(_reduced(off_total.value, 0.0)) < 3e-6


def test_time_zero_bound_weights_follow_pair_confinement():
    # (1/2)^separation twice: 1/2, 1/8, 1/16 at separations 1, 2, 3
    for sep, expected in ((1, 0.5), (2, 0.125), (3, 0.0625)):
        value = green2_bound(15, 15 + sep, 15, 15 + sep, 0.0, SPEC)
        assert _reduced(value.value, 0.0) == pytest.approx(expected, abs=1e-9)


def test_bound_weights_match_dense_band_projection(golden):
    census = golden("bound_census")
    weights = census["values"]["bound_diag_weights_n40"].real
    for sep, oracle_weight in zip((1, 2, 3), weights):
        value = green2_bound(19, 19 + sep, 19, 19 + sep, 0.0, SPEC)
        assert _reduced(value.value, 0.0).real == pytest.approx(
            oracle_weight, abs=census["tolerance"]
        )
    for n, expected in ((12, 9), (20, 17), (40, 35)):
        ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 1.0))
        assert ring.bound_count == expected


def test_bound_wavefunction_decay():
    q = 0.8
    amp1 = abs(bound_wavefunction(10, 11, q))
    amp2 = abs(bound_wavefunction(10, 12, q))
    ratio = (q * q / (1 + q * q)) ** 0.5
    assert amp2 / amp1 == pytest.approx(ratio, abs=1e-12)


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
        assert got == pytest.approx(expected, abs=1e-6)


def test_line_kernels_match_dense_ring_mid_chain(golden):
    record = golden("green2_line_n40")
    source = tuple(record["inputs"]["source_pair"])
    targets = [tuple(p) for p in record["inputs"]["targets"]]
    for t in record["inputs"]["times"]:
        want = record["values"][f"t{t}"]
        engine = TwoMagnonEngine(
            j=SPEC.j,
            delta=SPEC.delta,
            t=t,
            max_offset=12,
            max_pair_span=14,
            max_sum_offset=14,
            tol=1e-5,
        )
        s1 = np.full(len(targets), source[0])
        s2 = np.full(len(targets), source[1])
        d1 = np.array([p[0] for p in targets])
        d2 = np.array([p[1] for p in targets])
        got = engine.total(s1, s2, d1, d2)
        assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_parts_resolve_the_total():
    t = 1.2
    engine = TwoMagnonEngine(
        j=0.5, delta=1.0, t=t, max_offset=8, max_pair_span=12, max_sum_offset=8, tol=1e-5
    )
    s1 = np.array([10, 10, 9])
    s2 = np.array([11, 13, 14])
    d1 = np.array([9, 11, 10])
    d2 = np.array([12, 12, 15])
    total = engine.total(s1, s2, d1, d2)
    split = engine.scattering(s1, s2, d1, d2) + engine.bound(s1, s2, d1, d2)
    assert np.max(np.abs(total - split)) < 1e-14
    assert engine.part("bound") == engine.bound


def test_interior_singularity_raises_instead_of_degrading():
    spec = ChainSpec(40, "closed", 0.5, 0.5)
    with pytest.raises(QuadratureError) as info:
        green2_scattering(19, 22, 19, 22, 1.0, spec, tol=1e-12)
    assert info.value.achieved > 0


def test_ring_propagator_matches_dense_evolution(golden):
    record = golden("ring2_n12")
    spec = ChainSpec(12, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    source = tuple(record["inputs"]["source_pair"])
    for t in record["inputs"]["times"]:
        got = ring.propagator_column(*source, t)
        want = record["values"][f"t{t}"]
        assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_ring_parts_are_unitary_complement():
    spec = ChainSpec(14, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=len(ring.pairs)) + 1j * rng.normal(size=len(ring.pairs))
    psi /= np.linalg.norm(psi)
    t = 2.7
    total = ring.evolve_pair_state(psi, t, "total")
    bound = ring.evolve_pair_state(psi, t, "bound")
    scatter = ring.evolve_pair_state(psi, t, "scattering")
    assert np.max(np.abs(total - bound - scatter)) < 1e-12
    assert np.linalg.norm(total) == pytest.approx(1.0, abs=1e-12)
    # the split is spectral, so each part's weight is conserved in time
    later_bound = ring.evolve_pair_state(psi, 2 * t, "bound")
    assert np.linalg.norm(later_bound) == pytest.approx(np.linalg.norm(bound), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 13])
def test_ring_parts_match_dense_evolution_and_bound_projector(n):
    # odd and even rings down to the smallest sizes, where the padded odd
    # sectors and the antipodal cells of the pair grid are a large share
    spec = ChainSpec(n, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=len(ring.pairs)) + 1j * rng.normal(size=len(ring.pairs))
    psi /= np.linalg.norm(psi)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    assert list(ham.basis.pairs) == ring.pairs
    t = 2.3
    dense = oracle.evolve(oracle.DenseState(psi, ham.basis), ham, t).vector
    total = ring.evolve_pair_state(psi, t, "total")
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    projector = oracle.bound_band_projector(spec).projector
    bound = ring.evolve_pair_state(psi, t, "bound")
    assert np.max(np.abs(bound - projector @ total)) < 1e-12


def test_ring_validation():
    with pytest.raises(ValueError):
        RingTwoMagnon(ChainSpec(12, "open", 0.5, 1.0))
    with pytest.raises(ValueError):
        RingTwoMagnon(ChainSpec(MAX_RING_SITES + 1, "closed", 0.5, 1.0))
    with pytest.raises(ValueError):
        green2_bound(1, 2, 1, 2, 1.0, ChainSpec(12, "closed", 0.5, 0.3))
    with pytest.raises(ValueError):
        green2_scattering(1, 2, 1, 2, -1.0, SPEC)
