"""Two-magnon ring kernel: dense evolution, hand values, completeness, factorization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spinchain import green2 as green2_module
from spinchain import oracle
from spinchain.bessel import MAX_ARG
from spinchain.chain import ChainSpec, reduced_phase
from spinchain.green2 import _ROTATION_ROWS, MAX_RING_SITES, RingTwoMagnon, _sector_roots, green2

from bessel_reference import reduced_hop_amplitudes
from ring_reference import evolve_by_scatter, ring_modes

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
        got = ring.evolve_projected(ring.project(source), t)[np.triu_indices(12, 1)]
        want = record["values"][f"t{t}"]
        assert np.max(np.abs(got - want)) <= record["tolerance"]


def test_ring_parts_are_unitary_complement():
    spec = ChainSpec(14, "closed", 0.5, 1.0)
    ring = RingTwoMagnon(spec)
    psi = _matrix(_random_pairs(14, 11), 14)
    upper = np.triu_indices(14, 1)
    t = 2.7
    coeffs = ring.project(psi)
    total = ring.evolve_projected(coeffs, t, "total")[upper]
    bound = ring.evolve_projected(coeffs, t, "bound")[upper]
    scatter = ring.evolve_projected(coeffs, t, "scattering")[upper]
    assert np.max(np.abs(total - bound - scatter)) < 1e-12
    assert np.linalg.norm(total) == pytest.approx(1.0, abs=1e-12)
    # the split is spectral, so each part's weight is conserved in time
    later_bound = ring.evolve_projected(coeffs, 2 * t, "bound")[upper]
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
    assert ham.basis.pairs.tolist() == [[i + 1, j + 1] for i, j in zip(*upper)]
    t = 2.3
    dense = oracle.evolve(oracle.DenseState(psi, ham.basis), ham, t).vector
    coeffs = ring.project(_matrix(psi, n))
    total = ring.evolve_projected(coeffs, t, "total")[upper]
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    projector = oracle.bound_band_projector(spec).projector
    bound = ring.evolve_projected(coeffs, t, "bound")[upper]
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
    coeffs = ring.project(_matrix(psi, n))
    total = ring.evolve_projected(coeffs, t, "total")[upper]
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    bound = ring.evolve_projected(coeffs, t, "bound")[upper]
    scatter = ring.evolve_projected(coeffs, t, "scattering")[upper]
    assert np.max(np.abs(bound + scatter - total)) < 1e-12


@pytest.mark.parametrize("n", [12, 13])
def test_ring_keeps_floor_half_plus_one_real_blocks(n):
    # N^3 bytes of modes: a complex block per sector would take 4 N^3
    ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 1.0))
    r = n // 2
    assert ring._evecs.dtype == np.float64
    assert ring._evecs.shape == (r + 1, r, r)
    assert ring._evals.shape == (r + 1, r)


# the row count floor(N/2) on either side of the rotation's first and second restart
_RESTART_EDGES = [n for rows in (_ROTATION_ROWS, 2 * _ROTATION_ROWS) for n in range(2 * rows - 2, 2 * rows + 4)]


@pytest.mark.parametrize("n", sorted(set(range(3, 41)) | set(_RESTART_EDGES) | {63, 64, 199, 200}))
def test_chunked_build_matches_one_dense_eigh(n):
    # the modes built from the blocks' roots against one batched eigh: the same
    # masks and census, the levels, orthonormal modes, and every block rebuilt
    for delta in (0.0, 0.5, -0.5, 1.0, -1.0, 1 + 1 / n, 1 + 2 / n, 2.0, -3.0, 1e8, -1e8):
        spec = ChainSpec(n, "closed", 0.5, delta)
        ring = RingTwoMagnon(spec)
        evals, evecs, keep, bound_count = ring_modes(spec)
        assert ring._keep.keys() == keep.keys()
        for part, mask in keep.items():
            assert np.array_equal(ring._keep[part], mask)
        assert ring.bound_count == bound_count
        scale = max(1.0, 4.0 * spec.j * (abs(delta) + 2.0))
        assert np.max(np.abs(ring._evals - evals)) <= 1e-13 * scale
        modes = ring._evecs
        assert np.max(np.abs(modes.transpose(0, 2, 1) @ modes - np.eye(n // 2))) <= 1e-12
        rebuilt = (modes * ring._evals[:, None, :]) @ modes.transpose(0, 2, 1)
        blocks = (evecs * evals[:, None, :]) @ evecs.transpose(0, 2, 1)
        assert np.max(np.abs(rebuilt - blocks)) <= 1e-13 * scale


@pytest.mark.parametrize(
    "n, delta",
    [(n, 1.0) for n in (4, 6, 12, 13)]  # u = 1: block 0's lowest level sits on -8J
    + [(n, 1.0 + 1.0 / n) for n in (5, 8, 12, 13)]  # the finite-size window above u = 1
    + [(3, 0.5), (3, -3.0), (4, 0.5), (4, -3.0)]  # 1 x 1 blocks; block N/2 of 4 hops ~1e-16
    + [(n, -3.0) for n in (5, 7, 13)]  # antibound modes, the staggered parity flipped
    + [(6, 1e8), (7, -1e8), (12, 1e8), (13, -1e8)],
)
def test_bethe_roots_match_dense_evolution_at_the_edge_cases(n, delta):
    spec = ChainSpec(n, "closed", 0.5, delta)
    ring = RingTwoMagnon(spec)
    # at |Delta| = 1e8 the pair energies reach 2e8, and e^{-iEt} turns 200 times by t = 1e-6
    t = 2.3 if abs(delta) < 10 else 1e-6
    psi = _random_pairs(n, n)
    upper = np.triu_indices(n, 1)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    dense = oracle.evolve(oracle.DenseState(psi, ham.basis), ham, t).vector
    coeffs = ring.project(_matrix(psi, n))
    total = ring.evolve_projected(coeffs, t, "total")[upper]
    assert np.max(np.abs(total - _reduced(dense, t, spec))) < 1e-12
    bound = ring.evolve_projected(coeffs, t, "bound")[upper]
    scatter = ring.evolve_projected(coeffs, t, "scattering")[upper]
    assert np.max(np.abs(bound + scatter - total)) < 1e-12
    if delta == 1.0:
        projector = oracle.bound_band_projector(spec).projector
        assert np.max(np.abs(bound - projector @ total)) < 1e-12
        # the zero-momentum threshold state: exactly on the continuum bottom, not bound
        assert ring._evals[0, 0] == -8.0 * spec.j
        assert not ring._keep["bound"][0, 0]


@pytest.mark.parametrize("n", [199, 200, 255, 256])
def test_rotated_modes_match_direct_cos_and_sin(n):
    # every wave column, filled by the rotation e^{ik} restarted every _ROTATION_ROWS rows,
    # against cos(k(r - h)) or sin(k(r - h)) taken directly, weighted and normalized alike
    for delta in (1.0, 0.5, -3.0):
        ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, delta))
        cos_b = np.cos(np.pi * np.arange(n // 2 + 1) / n)
        _, wave, sine, flipped, (bound_block, bound_col, _) = _sector_roots(n, -cos_b, -delta)
        r = np.arange(1, n // 2 + 1)[:, None]
        angle = wave[:, None, :] * (r - n / 2)
        # the staggered sign is (-1)^(r + 1): each restart, at an odd r, takes no sign
        direct = np.where(sine[:, None, :], np.sin(angle), np.cos(angle))
        direct *= np.where(flipped[:, None, :], (-1.0) ** (r + 1), 1.0)
        waves = np.ones(wave.shape, dtype=bool)
        waves[bound_block, bound_col] = False
        if n % 2 == 0:
            direct[:, -1] *= np.sqrt(0.5)
            direct[1::2, -1] = 0.0  # an odd block has no antipodal row
            waves[1::2, -1] = False  # its parked unit vector
        direct /= np.linalg.norm(direct, axis=1, keepdims=True)
        assert np.max(np.abs(ring._evecs - direct).transpose(0, 2, 1)[waves]) <= 1e-14


def test_build_holds_little_beyond_the_modes():
    # the modes are written one separation row of every block at a time: the build's
    # transient is a few such complex rows (about 1 MB here; filling them a few
    # blocks at a time took 2.5 MB, and all blocks at once as much again as the modes)
    spec = ChainSpec(200, "closed", 0.5, 1.0)
    RingTwoMagnon(ChainSpec(6, "closed"))  # numpy's lazy set-up stays out of the trace
    tracemalloc.start()
    try:
        ring = RingTwoMagnon(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 2e6


def test_green2_builds_each_ring_kernel_once(monkeypatch):
    builds = []
    original = RingTwoMagnon.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    green2_module.kernels.clear()
    monkeypatch.setattr(RingTwoMagnon, "__init__", counting_init)
    ring, other = ChainSpec(18, "closed", 0.5, 0.8), ChainSpec(19, "closed", 0.5, 0.8)
    calls = [((2, 5, 3, 7, t), part) for t in (0.0, 1.5, 4.0)
             for part in ("total", "bound", "scattering")]
    calls += [((9, 1, 18, 17, 2.5), "total"), ((4, 11, 11, 4, 0.5), "bound")]
    values = [green2(*args, ring, part=part).value for args, part in calls]
    assert len(builds) == 1
    green2(2, 5, 3, 7, 1.5, other)
    assert len(builds) == 2
    # a freshly built kernel gives every value again, to the bit
    for (args, part), value in zip(calls, values):
        green2_module.kernels.clear()
        assert green2(*args, ring, part=part).value == value
    # bad input is refused before the lookup, and an open chain caches nothing
    green2_module.kernels.clear()
    builds.clear()
    for args, part in (((1, 2, 1, 2, float("nan")), "total"), ((1, 2, 1, 2, 1.0), "foo"),
                       ((1, 2, 1, 19, 1.0), "total")):
        with pytest.raises(ValueError):
            green2(*args, ring, part=part)
    assert builds == []
    with pytest.raises(ValueError):
        green2(1, 2, 1, 2, 1.0, ChainSpec(18, "open", 0.5, 0.8))
    assert green2_module.kernels == {}


@pytest.fixture
def counted_builds(monkeypatch):
    """Specs of the RingTwoMagnon builds made, with ``ring_kernel`` emptied before and after."""
    builds = []
    original = RingTwoMagnon.__init__

    def counting_init(self, spec):
        builds.append(spec)
        original(self, spec)

    green2_module.kernels.clear()
    monkeypatch.setattr(RingTwoMagnon, "__init__", counting_init)
    yield builds
    green2_module.kernels.clear()


def _mode_bytes(n):
    return (n // 2 + 1) * (n // 2) ** 2 * 8


def _kept_bytes():
    return sum(kernel._evecs.nbytes for kernel in green2_module.kernels.values())


def test_ring_kernel_keeps_one_kernel_per_ring(counted_builds):
    ring_kernel = green2_module.ring_kernel
    a, b = ChainSpec(8, "closed", 0.5, 1.0), ChainSpec(9, "closed", 0.5, 1.0)
    first = ring_kernel(a)
    ring_kernel(b)
    assert ring_kernel(a) is first
    assert counted_builds == [a, b]
    assert list(green2_module.kernels) == [b, a]  # least recently used first
    assert _kept_bytes() == _mode_bytes(8) + _mode_bytes(9)
    # the ceiling is the modes of one MAX_RING_SITES ring, as a one-kernel store held
    assert green2_module._MAX_KEPT_BYTES == 257 * 256 * 256 * 8 == _mode_bytes(MAX_RING_SITES)
    # clearing the store frees its kernels: the next request builds again
    green2_module.kernels.clear()
    assert ring_kernel(a) is not first
    assert counted_builds == [a, b, a]


def test_ring_kernel_drops_the_least_recently_used_over_its_ceiling(counted_builds, monkeypatch):
    ring_kernel = green2_module.ring_kernel
    a, b, c = (ChainSpec(n, "closed", 0.5, 1.0) for n in (8, 9, 10))
    monkeypatch.setattr(green2_module, "_MAX_KEPT_BYTES", _mode_bytes(8) + _mode_bytes(10))
    for spec in (a, b, a, c):  # b is the least recently used when c arrives
        ring_kernel(spec)
    assert counted_builds == [a, b, c]
    assert list(green2_module.kernels) == [a, c]
    ring_kernel(a)
    ring_kernel(c)
    assert counted_builds == [a, b, c]
    ring_kernel(b)  # rebuilt; a is now the oldest and goes
    assert counted_builds == [a, b, c, b]
    ring_kernel(c)
    assert counted_builds == [a, b, c, b]
    assert list(green2_module.kernels) == [b, c]
    # a kernel alone over the ceiling is still returned and kept, by itself
    big = ChainSpec(14, "closed", 0.5, 1.0)
    kernel = ring_kernel(big)
    assert list(green2_module.kernels) == [big]
    assert ring_kernel(big) is kernel
    assert _kept_bytes() == _mode_bytes(14) > green2_module._MAX_KEPT_BYTES


def test_ring_kernel_never_keeps_more_than_its_ceiling(counted_builds, monkeypatch):
    ring_kernel = green2_module.ring_kernel
    ceiling = 3 * _mode_bytes(10)
    monkeypatch.setattr(green2_module, "_MAX_KEPT_BYTES", ceiling)
    sizes = np.random.default_rng(3).integers(3, 13, size=60)
    for n in sizes:
        spec = ChainSpec(int(n), "closed", 0.5, 1.0)
        builds, kept = len(counted_builds), spec in green2_module.kernels
        kernel = ring_kernel(spec)
        assert kernel.spec == spec
        # a kept kernel is returned, any other is built, and either is now the newest
        assert len(counted_builds) == builds + (not kept)
        assert list(green2_module.kernels)[-1] == spec
        assert _kept_bytes() <= ceiling
    assert len(counted_builds) < len(sizes)


@pytest.mark.parametrize("n", [7, 12, 13])
def test_projected_evolution_is_the_pair_state_evolution(n):
    ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 0.8))
    psi = _matrix(_random_pairs(n, n), n)
    coeffs = ring.project(psi)
    kept = coeffs.copy()
    for part in ("total", "bound", "scattering"):
        for t in (0.0, 0.7, 4.5):
            assert np.array_equal(ring.evolve_projected(coeffs, t, part),
                                  ring.evolve_projected(ring.project(psi), t, part))
    # one projection serves every time: evolving does not touch it
    assert np.array_equal(coeffs, kept)


@pytest.mark.parametrize("n", [3, 4, 12, 13, 100, 101])
def test_evolve_projected_is_the_scatter_and_transpose_bit_for_bit(n):
    # one write per cell and its mirror, antipodal pairs summed, against zeros and half + half.T
    ring = RingTwoMagnon(ChainSpec(n, "closed", 0.5, 0.8))
    coeffs = ring.project(_matrix(_random_pairs(n, n), n))
    for part in ("total", "bound", "scattering"):
        for t in (0.0, 0.7, 4.5, 31.25):
            assert np.array_equal(ring.evolve_projected(coeffs, t, part),
                                  evolve_by_scatter(ring, coeffs, t, part))


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
    with pytest.raises(ValueError):
        green2(1, 2, 1, 2, 1.0, SPEC, part="foo")
    for sites in ((3, 3, 1, 2), (1, 2, 4, 4)):
        with pytest.raises(ValueError, match=r"two-magnon pair needs distinct sites, got \((3, 3|4, 4)\)"):
            green2(*sites, 1.0, SPEC)
    # 4*J*|t| past bessel.MAX_ARG would leave only rounding noise in the phases
    ring12 = RingTwoMagnon(ChainSpec(12, "closed", 0.5, 1.0))
    source = np.zeros((12, 12), dtype=complex)
    source[0, 1] = source[1, 0] = 1.0
    for t in (float("nan"), float("inf"), 1e300):
        with pytest.raises(ValueError):
            green2(1, 2, 1, 2, t, ChainSpec(12, "closed"))
        for signed in (t, -t):
            # the per-time half checks every time by itself
            with pytest.raises(ValueError):
                ring12.evolve_projected(ring12.project(source), signed)
    # the kernel reads one triangle per pair, so a pair state must be a
    # symmetric matrix with a zero diagonal
    ring = RingTwoMagnon(ChainSpec(6, "closed", 0.5, 1.0))
    psi = _matrix(_random_pairs(6, 3), 6)
    lopsided = psi.copy()
    lopsided[0, 3] += 1e-3
    # the time-independent half checks the state
    for bad in (lopsided, psi + np.eye(6), psi[np.triu_indices(6, 1)], psi[:5, :5]):
        with pytest.raises(ValueError):
            ring.project(bad)


def test_pair_times_are_bounded_by_the_ring_spectral_radius():
    # a pair energy reaches 4*J*(|Delta| + 2): at a large Delta the phases E*t
    # round away long before 4*J*|t| reaches bessel.MAX_ARG
    for delta in (1e8, 1e14):
        spec = ChainSpec(6, "closed", 0.5, delta)
        ring = RingTwoMagnon(spec)
        source = np.zeros((6, 6), dtype=complex)
        source[0, 1] = source[1, 0] = 1.0
        with pytest.raises(ValueError, match=r"at t = 0\.7, Delta = "):
            ring.evolve_projected(ring.project(source), 0.7)
        with pytest.raises(ValueError, match=r"at t = 0\.7, Delta = "):
            green2(1, 2, 1, 2, 0.7, spec)
    # the bound itself is admitted, and a time one part in 1e12 past it is not
    for delta, t_max in ((2.0, MAX_ARG / 8.0), (0.0, MAX_ARG / 4.0), (-2.0, MAX_ARG / 8.0)):
        ring = RingTwoMagnon(ChainSpec(6, "closed", 0.5, delta))
        coeffs = ring.project(_matrix(_random_pairs(6, 1), 6))
        ring.evolve_projected(coeffs, t_max)
        ring.evolve_projected(coeffs, -t_max)
        with pytest.raises(ValueError):
            ring.evolve_projected(coeffs, t_max * (1.0 + 1e-12))
