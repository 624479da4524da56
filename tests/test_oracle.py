"""Dense reference route: sector structure, local operations, spectral split."""

from __future__ import annotations

import importlib.util
import itertools
import math
import pathlib

import numpy as np
import pytest

from bloch_reference import bloch_average
from golden_io import decode_complex, load_golden, save_golden, transfer_fidelity
from spinchain.chain import ChainSpec, conventions_hash
from spinchain.green2 import RingTwoMagnon
from spinchain.oracle import (
    _flip_map,
    apply_local,
    bound_band_projector,
    build_hamiltonian,
    encoded_state,
    evolve,
    make_basis,
    rdm_site,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _enumerated(sector, n):
    """The sector's configs (sorted flipped-site tuples) in basis order, with a config ->
    index map: the bits of each index for the full space, itertools otherwise."""
    sites = range(1, n + 1)
    if sector == "full":
        configs = [tuple(s for s in sites if k >> (s - 1) & 1) for k in range(1 << n)]
    else:
        counts = {"one_excitation": (1,), "two_excitation": (2,), "vacuum_one_two": (0, 1, 2)}
        configs = [c for count in counts[sector] for c in itertools.combinations(sites, count)]
    return configs, {config: k for k, config in enumerate(configs)}


def _basis_configs(basis):
    """The test-side configs of ``basis``, after checking that its site table lists them:
    row k is config k, ascending after the zeros that pad it to the longest config."""
    configs, index = _enumerated(basis.kind, basis.n)
    width = max(map(len, configs), default=0)
    table = np.array([(0,) * (width - len(c)) + c for c in configs], dtype=np.intp)
    assert basis.sites.dtype == np.intp
    assert np.array_equal(basis.sites, table.reshape(len(configs), width))
    return configs, index


def test_two_site_spectrum_by_hand():
    spec = ChainSpec(2, "open", 0.5, 1.0)
    ham = build_hamiltonian(spec, "full")
    energies = np.sort(np.linalg.eigvalsh(ham.matrix))
    eps0 = spec.ground_energy
    expected = np.sort([eps0, eps0 - 2 * spec.j, eps0 + 2 * spec.j, eps0 - 4 * spec.j * spec.delta])
    assert np.allclose(energies, expected, atol=1e-12)


@pytest.mark.parametrize("sector", ["full", "one_excitation", "two_excitation", "vacuum_one_two"])
def test_hamiltonians_are_hermitian(sector):
    ham = build_hamiltonian(ChainSpec(7, "closed", 0.7, 0.4), sector)
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) == 0.0


def test_combined_sector_embeds_the_pure_sectors():
    spec = ChainSpec(6, "open", 0.5, 1.0)
    combined = build_hamiltonian(spec, "vacuum_one_two").matrix
    one = build_hamiltonian(spec, "one_excitation").matrix
    two = build_hamiltonian(spec, "two_excitation").matrix
    n = spec.n
    assert combined[0, 0] == spec.ground_energy
    assert np.allclose(combined[1 : 1 + n, 1 : 1 + n], one, atol=0)
    assert np.allclose(combined[1 + n :, 1 + n :], two, atol=0)
    assert np.max(np.abs(combined[0, 1:])) == 0.0  # sectors never mix


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("boundary", ["open", "closed"])
@pytest.mark.parametrize("delta", [0.4, 1.0])
def test_every_sector_is_the_full_space_restricted_to_its_configs(n, boundary, delta):
    # the one-site ring's self-bond is a hop in every sector, never a contact
    spec = ChainSpec(n, boundary, 0.7, delta)
    full = build_hamiltonian(spec, "full").matrix
    ones = [(y,) for y in range(1, n + 1)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for sector, configs in (
        ("one_excitation", ones),
        ("two_excitation", pairs),
        ("vacuum_one_two", [()] + ones + pairs),
    ):
        rows = [sum(1 << (s - 1) for s in config) for config in configs]
        assert np.array_equal(build_hamiltonian(spec, sector).matrix, full[np.ix_(rows, rows)]), sector


def _hamiltonian_reference(spec, sector):
    """The sector Hamiltonian by a walk over every config and each bond of its flipped sites."""
    basis = make_basis(sector, spec.n)
    configs, index = _basis_configs(basis)
    ends = {s: [] for s in range(1, spec.n + 1)}
    closing = [(spec.n, 1)] if spec.boundary == "closed" else []
    for a, b in [(i, i + 1) for i in range(1, spec.n)] + closing:
        ends[a].append(b)
        ends[b].append(a)
    contact = -4.0 * spec.j * spec.delta
    energies = np.empty(basis.dim)
    rows, cols = [], []
    for k, config in enumerate(configs):
        energy = spec.ground_energy
        for s in config:
            for o in ends[s]:
                if o != s and o in config:
                    if s < o:  # each contact bond once, from its lower end
                        energy += contact
                else:
                    rows.append(index[tuple(sorted(o if x == s else x for x in config))])
                    cols.append(k)
        energies[k] = energy
    matrix = np.zeros((basis.dim, basis.dim))
    np.add.at(matrix, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), -2.0 * spec.j)
    matrix[np.diag_indices(basis.dim)] += energies
    return matrix


@pytest.mark.parametrize("sector, sizes", [
    ("full", (1, 2, 3, 8)),
    ("one_excitation", (1, 2, 3, 40)),
    ("two_excitation", (1, 2, 3, 4, 13)),
    ("vacuum_one_two", (1, 2, 3, 13)),
])
@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_hamiltonian_equals_the_config_by_config_walk(sector, sizes, boundary):
    # inexact J and delta, so energies summed in another order or as a product would differ
    for n in sizes:
        for j, delta in ((0.7, 1.0 / 3.0), (0.3, -1.7), (1.1, 0.1)):
            spec = ChainSpec(n, boundary, j, delta)
            want = _hamiltonian_reference(spec, sector)
            assert np.array_equal(build_hamiltonian(spec, sector).matrix, want), (n, j, delta)


def test_full_space_agrees_with_combined_sector():
    spec = ChainSpec(8, "open", 0.5, 1.0)
    alpha, beta = np.sqrt(0.4), np.sqrt(0.6) * np.exp(0.3j)
    t = 1.7
    full = evolve(encoded_state(alpha, beta, make_basis("full", 8)), build_hamiltonian(spec, "full"), t)
    small = evolve(
        encoded_state(alpha, beta, make_basis("vacuum_one_two", 8)),
        build_hamiltonian(spec, "vacuum_one_two"),
        t,
    )
    for l in (1, 4, 8):
        x_full, y_full = rdm_site(full, l)
        x_small, y_small = rdm_site(small, l)
        assert x_full == pytest.approx(x_small, abs=1e-12)
        assert y_full == pytest.approx(y_small, abs=1e-12)


def test_local_gate_preserves_norm_and_acts_locally():
    spec = ChainSpec(6, "closed", 0.5, 1.0)
    basis = make_basis("vacuum_one_two", 6)
    ham = build_hamiltonian(spec, "vacuum_one_two")
    state = evolve(encoded_state(np.sqrt(0.5), np.sqrt(0.5), basis), ham, 1.3)
    kicked = apply_local((0.0, 1.0), 3, state)
    assert np.linalg.norm(kicked.vector) == pytest.approx(1.0, abs=1e-12)
    # a gate at site 3 cannot move weight at sites far from 3 within the same sector
    x_before = rdm_site(state, 6)[0]
    x_after = rdm_site(kicked, 6)[0]
    assert x_after == pytest.approx(x_before, abs=1e-12)


def test_gate_agrees_with_the_full_space_and_refuses_a_third_magnon():
    spec = ChainSpec(5, "closed", 0.5, 1.0)
    gated = []
    for sector in ("full", "vacuum_one_two"):
        ham = build_hamiltonian(spec, sector)
        mid = evolve(encoded_state(np.sqrt(0.3), np.sqrt(0.7), ham.basis), ham, 1.1)
        gated.append(evolve(apply_local((0.6, 0.8j), 2, mid), ham, 0.7))
    for l in range(1, 6):
        assert rdm_site(gated[0], l) == pytest.approx(rdm_site(gated[1], l), abs=1e-12)
    apply_local((0.0, 1.0), 4, gated[0])  # the full space holds a third magnon
    with pytest.raises(ValueError, match="out of the vacuum_one_two basis"):
        apply_local((0.0, 1.0), 4, gated[1])


def test_gate_norm_check_refuses_overflow_and_nan():
    basis = make_basis("vacuum_one_two", 5)
    psi = encoded_state(np.sqrt(0.5), np.sqrt(0.5), basis)
    # abs(gamma) ** 2 would raise OverflowError; NaN passes a "> tol" test
    for gate in ((1e155, 0.0), (0.0, 1e200), (math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match=r"\|gamma\|\^2 \+ \|delta\|\^2 = 1"):
            apply_local(gate, 3, psi)


def test_measurement_branches_resolve_identity():
    spec = ChainSpec(6, "open", 0.5, 1.0)
    basis = make_basis("vacuum_one_two", 6)
    ham = build_hamiltonian(spec, "vacuum_one_two")
    state = evolve(encoded_state(np.sqrt(0.3), np.sqrt(0.7), basis), ham, 0.9)
    survive = apply_local("p0", 3, state)
    found = apply_local("p1", 3, state)
    assert np.allclose(survive.vector + found.vector, state.vector, atol=1e-14)
    assert np.vdot(survive.vector, found.vector) == pytest.approx(0.0, abs=1e-14)
    assert np.linalg.norm(survive.vector) ** 2 + np.linalg.norm(found.vector) ** 2 == pytest.approx(
        1.0, abs=1e-12
    )


def _flip_map_reference(basis, m):
    """The site-m flip map, one config at a time through the config -> index map."""
    configs, index = _basis_configs(basis)
    flipped = np.array([m in config for config in configs], dtype=bool)
    partner = np.array(
        [index.get(tuple(sorted(set(config) ^ {m})), -1) for config in configs],
        dtype=np.intp,
    )
    return flipped, partner


@pytest.mark.parametrize(
    "sector, n",
    [("full", 1), ("full", 2), ("full", 7), ("one_excitation", 1), ("one_excitation", 100),
     ("two_excitation", 2), ("two_excitation", 9), ("vacuum_one_two", 1),
     ("vacuum_one_two", 12)],
)
def test_flip_map_matches_the_config_by_config_map(sector, n):
    basis = make_basis(sector, n)
    for m in range(1, n + 1):
        flipped, partner = _flip_map(basis, m)
        want_flipped, want_partner = _flip_map_reference(basis, m)
        assert np.array_equal(flipped, want_flipped), m
        assert np.array_equal(partner, want_partner), m
        assert partner.dtype == np.intp
    for m in (0, n + 1):
        with pytest.raises(ValueError, match="out of range"):
            _flip_map(basis, m)


@pytest.mark.parametrize("m", [0, 6])
def test_sites_outside_the_chain_are_refused(m):
    basis = make_basis("vacuum_one_two", 5)
    psi = encoded_state(np.sqrt(0.5), np.sqrt(0.5), basis)
    for op in ("p0", "p1", (0.0, 1.0)):
        with pytest.raises(ValueError, match="out of range"):
            apply_local(op, m, psi)
    with pytest.raises(ValueError, match="out of range"):
        rdm_site(psi, m)


def test_bloch_average_integrates_monomials_exactly():
    assert bloch_average(lambda a, b: abs(a) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert bloch_average(lambda a, b: abs(a) ** 4) == pytest.approx(1 / 3, abs=1e-12)
    assert bloch_average(lambda a, b: (abs(a) * abs(b)) ** 2) == pytest.approx(1 / 6, abs=1e-12)
    assert bloch_average(lambda a, b: (a * np.conj(b)).real) == pytest.approx(0.0, abs=1e-12)
    assert bloch_average(lambda a, b: 0.25) == pytest.approx(0.25, abs=1e-14)


def test_transfer_fidelity_formula():
    # the site qubit equal to the encoded state scores 1 for every encoding
    alpha, beta = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.2j)
    assert transfer_fidelity(abs(beta) ** 2, beta * np.conj(alpha), alpha, beta) == pytest.approx(
        1.0, abs=1e-12
    )
    # an empty site scores exactly the vacuum weight
    assert transfer_fidelity(0.0, 0j, alpha, beta) == pytest.approx(abs(alpha) ** 2, abs=1e-12)


def _assert_projector_structure(spec: ChainSpec, result) -> None:
    """A Hermitian idempotent of trace ``count`` that commutes with the Hamiltonian."""
    p = result.projector
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p).real == pytest.approx(result.count, abs=1e-9)
    ham = build_hamiltonian(spec, "two_excitation")
    assert np.max(np.abs(p @ ham.matrix - ham.matrix @ p)) < 1e-9


def test_bound_band_projector_structure(golden):
    spec = ChainSpec(20, "closed", 0.5, 1.0)
    result = bound_band_projector(spec)
    census = golden("bound_census")
    assert result.count == int(census["values"]["count_n20"][0].real)
    _assert_projector_structure(spec, result)


def test_bound_band_census_matches_the_ring_kernel_on_odd_and_even_rings():
    # odd rings have no antipodal pair column; the ring kernel counts its bound modes by roots
    for n in range(4, 31):
        spec = ChainSpec(n, "closed", 0.5, 1.0)
        result = bound_band_projector(spec)
        assert result.count == RingTwoMagnon(spec).bound_count, n
        if n == 21:
            _assert_projector_structure(spec, result)


def test_pair_ordering_contract():
    basis = make_basis("two_excitation", 5)
    assert basis.pairs.tolist() == [list(p) for p in itertools.combinations(range(1, 6), 2)]
    assert basis.pairs[0].tolist() == [1, 2]
    assert basis.pair_index(2, 4) == basis.pairs.tolist().index([2, 4])


@pytest.mark.parametrize("sector", ["full", "one_excitation", "two_excitation", "vacuum_one_two"])
def test_every_basis_lists_the_enumerated_configs(sector):
    for n in range(1, 9 if sector == "full" else 13):
        basis = make_basis(sector, n)
        configs, index = _basis_configs(basis)
        assert basis.dim == len(configs)
        pairs = [c for c in configs if len(c) == 2]
        assert basis.pairs.tolist() == [list(p) for p in pairs], n
        assert [basis.pair_index(*p) for p in pairs] == [index[p] for p in pairs], n


def test_pair_index_refuses_pairs_outside_the_basis():
    basis = make_basis("vacuum_one_two", 5)
    # (0, 3) would read as the one-magnon config (3,), which the basis holds
    for i, j in ((0, 3), (3, 0), (3, 3), (2, 6), (6, 7), (-1, 2)):
        with pytest.raises(KeyError):
            basis.pair_index(i, j)
    assert basis.pair_index(4, 2) == basis.pair_index(2, 4)
    with pytest.raises(KeyError):
        make_basis("full", 5).pair_index(0, 3)
    with pytest.raises(KeyError):  # no pairs at all
        make_basis("one_excitation", 5).pair_index(1, 2)
    empty = make_basis("two_excitation", 1)
    assert empty.dim == 0 and empty.pairs.shape == (0, 2)
    for i, j in ((1, 2), (1, 1), (0, 1)):
        with pytest.raises(KeyError):
            empty.pair_index(i, j)


@pytest.mark.parametrize("sector, n", [("one_excitation", 4), ("two_excitation", 4), ("two_excitation", 1)])
def test_encoded_states_need_the_vacuum(sector, n):
    with pytest.raises(ValueError, match="need the vacuum"):
        encoded_state(np.sqrt(0.5), np.sqrt(0.5), make_basis(sector, n))


def test_golden_roundtrip_and_fingerprint_guard(tmp_path):
    path = tmp_path / "sample.json"
    save_golden(path, inputs={"n": 3}, values={"amps": np.array([1 + 2j, 0.5])}, tolerance=1e-9)
    record = load_golden(path)
    assert record["tolerance"] == 1e-9
    assert record["convention_hash"] == conventions_hash()
    text = path.read_text().replace(conventions_hash(), "0" * 16)
    path.write_text(text)
    with pytest.raises(ValueError):
        load_golden(path)


def test_load_golden_refuses_another_convention_hash(tmp_path):
    path = tmp_path / "sample.json"
    save_golden(path, inputs={"n": 3}, values={"amps": np.array([1 + 2j, 0.5])}, tolerance=1e-9)
    path.write_text(path.read_text().replace(conventions_hash(), "0123456789abcdef"))
    hint = (
        f"frozen under convention hash 0123456789abcdef, current is {conventions_hash()}; "
        "regenerate with tools/regenerate_goldens.py"
    )
    with pytest.raises(ValueError, match=hint):
        load_golden(path)


def test_golden_codec_refuses_a_real_value_that_would_load_as_complex(tmp_path):
    path = tmp_path / "sample.json"
    # a complex value round-trips whatever its shape
    values = {"amps": np.array([0.25 + 0j, 0.5]), "grid": np.full((3, 2), 1j), "scalar": 0.5 - 1j}
    save_golden(path, inputs={}, values=values, tolerance=1e-9)
    loaded = load_golden(path)["values"]
    for key, value in values.items():
        got = np.asarray(decode_complex(loaded[key]))
        assert got.shape == np.shape(value) and np.array_equal(got, value), key
    for value in (np.array([0.25, 0.5]), [0.25, 0.5], np.zeros((3, 2)), np.array([1, 2])):
        with pytest.raises(ValueError, match="golden value 'pair' is real"):
            save_golden(tmp_path / "refused.json", inputs={}, values={"ok": 1.0, "pair": value}, tolerance=1e-9)
    assert not (tmp_path / "refused.json").exists()


def test_golden_generator_reproduces_the_committed_goldens(tmp_path, monkeypatch):
    path = ROOT / "tools" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "GOLDEN_DIR", tmp_path)
    tool.main()
    committed = sorted((ROOT / "tests" / "golden").glob("*.json"))
    assert [p.name for p in sorted(tmp_path.glob("*.json"))] == [p.name for p in committed]
    for golden_path in committed:
        frozen, fresh = load_golden(golden_path), load_golden(tmp_path / golden_path.name)
        assert fresh["inputs"] == frozen["inputs"], golden_path.name
        assert fresh["values"].keys() == frozen["values"].keys(), golden_path.name
        for key, value in frozen["values"].items():
            got = np.asarray(decode_complex(fresh["values"][key]))
            want = np.asarray(decode_complex(value))
            assert got.shape == want.shape, (golden_path.name, key)
            # rounding-level drift only: each file's own tolerance (1e-12 up to
            # 5e-3) would also let a real change of the oracle through
            assert np.max(np.abs(got - want)) <= 1e-13, (golden_path.name, key)
