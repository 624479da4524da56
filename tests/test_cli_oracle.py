"""The CLI's grid commands judged cell by cell against dense evolution.

Each case draws a small spec from a seeded generator, runs the command
through ``main()``, reads its CSV back with ``np.loadtxt`` and compares every
printed value with a reference that shares none of the library's readout
formulas:

* ``fidelity`` and ``qdp-diff``: the dense ``vacuum_one_two`` sector of
  ``oracle``, the measurement as its ``p0`` and ``p1`` branches, site RDMs
  by ``oracle.rdm_site``;
* ``unitary-qdp`` (with and without ``--diff``) and ``two-magnon-split``:
  the same sector, the gate as ``oracle.apply_local((gamma, delta), m, ...)``
  at t0; the split's ``bound`` part is the pair sector times
  ``oracle.bound_band_projector`` (Delta = 1), its ``scattering`` part the
  pair sector minus that, and each part's weight at a site is read by the
  fidelity's x term;
* ``harper`` and ``detector``: the one-particle vector stepped by
  ``kicked_reference.dense_step`` (the hop by ``eigh``, times the kick
  phases), the measurement as its two branches.

A Bloch average is ``bloch_reference.bloch_average`` over per-state
fidelities. The CSV prints 12 significant digits, which round a value in
[-1, 1] by at most 5e-12. The worst error measured over these cases is
4.99e-13 (4.98e-13 on the gate commands): the rounding of the last printed
digit of a value below 1.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from bloch_reference import bloch_average
from golden_io import transfer_fidelity
from kicked_reference import dense_step
from spinchain import oracle
from spinchain.chain import ChainSpec
from spinchain.cli import main
from spinchain.harper import HarperSpec

#: Rounding of the 12 printed significant digits on values in [-1, 1].
PRINTED = 5e-12
CASES = range(6)


def _printed(tmp_path, argv) -> np.ndarray:
    """The command's values as a (times, sites) array, read back from its CSV."""
    out = tmp_path / "grid.csv"
    assert main([*argv, "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    sites = len(np.unique(table[:, 0]))
    return table[:, 2].reshape(-1, sites)


def _alpha2(rng) -> float | None:
    """A drawn |alpha|^2, or None (every other draw) for the Bloch average."""
    return None if rng.integers(2) else round(float(rng.uniform(0.0, 1.0)), 6)


def _averaged(per_state, alpha2):
    """per_state(alpha, beta) -> array, for one encoded state or averaged over the sphere."""
    if alpha2 is not None:
        return per_state(math.sqrt(alpha2), math.sqrt(1.0 - alpha2))
    cache = {}

    def value(alpha, beta, index):
        if (alpha, beta) not in cache:
            cache[alpha, beta] = per_state(alpha, beta)
        return cache[alpha, beta][index]

    shape = per_state(1.0, 0.0).shape
    return np.array([bloch_average(lambda a, b: value(a, b, i)) for i in np.ndindex(shape)]
                    ).reshape(shape)


def _chain_case(rng, boundary=None, delta=None):
    """A drawn small chain, its flags, its time axis and its kept sites.

    A boundary or Delta that is given is not drawn.
    """
    n = int(rng.integers(3, 11))
    boundary = str(rng.choice(["open", "closed"])) if boundary is None else boundary
    j = float(rng.uniform(0.3, 1.0))
    spec = ChainSpec(n, boundary, j, float(rng.uniform(-1.5, 2.0)) if delta is None else delta)
    dt = float(rng.choice([0.25, 0.5, 0.75]))
    ts = dt * np.arange(int(rng.integers(2, 8)))
    lmin = int(rng.integers(1, n + 1))
    lmax = int(rng.integers(lmin, n + 1))
    flags = ["--n", str(n), "--boundary", spec.boundary, "--j", repr(spec.j),
             "--delta", repr(spec.delta), "--tmax", repr(float(ts[-1])), "--dt", repr(dt),
             "--lmin", str(lmin), "--lmax", str(lmax)]
    return spec, flags, ts, range(lmin, lmax + 1)


def _site_fidelities(branches, sites, alpha, beta) -> np.ndarray:
    """Per-state fidelity at each site of the incoherent sum of dense branch states."""
    row = []
    for l in sites:
        x, y = map(sum, zip(*(oracle.rdm_site(b, l) for b in branches)))
        row.append(transfer_fidelity(x, y, alpha, beta))
    return np.array(row)


@pytest.mark.parametrize("case", CASES)
def test_fidelity_cells_match_dense_evolution(tmp_path, case):
    rng = np.random.default_rng(100 + case)
    spec, flags, ts, sites = _chain_case(rng)
    alpha2 = _alpha2(rng)
    extra = [] if alpha2 is None else ["--alpha2", repr(alpha2)]
    got = _printed(tmp_path, ["fidelity", *flags, *extra])
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")

    def per_state(alpha, beta):
        state = oracle.encoded_state(alpha, beta, ham.basis)
        return np.array([_site_fidelities([oracle.evolve(state, ham, t)], sites, alpha, beta)
                         for t in ts])

    assert np.max(np.abs(got - _averaged(per_state, alpha2))) <= PRINTED


@pytest.mark.parametrize("case", CASES)
def test_qdp_diff_cells_match_dense_measurement_branches(tmp_path, case):
    rng = np.random.default_rng(200 + case)
    spec, flags, ts, sites = _chain_case(rng)
    m = int(rng.integers(1, spec.n + 1))
    t0 = round(float(rng.uniform(0.0, ts[-1])), 3)
    got = _printed(tmp_path, ["qdp-diff", *flags, "--site", str(m), "--t0", repr(t0)])
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")

    def per_state(alpha, beta):
        state = oracle.encoded_state(alpha, beta, ham.basis)
        mid = oracle.evolve(state, ham, t0)
        branches = [oracle.apply_local(p, m, mid) for p in ("p0", "p1")]
        rows = []
        for t in ts:
            if t < t0:  # the measurement has not happened yet
                rows.append(np.zeros(len(sites)))
                continue
            measured = [oracle.evolve(b, ham, t - t0) for b in branches]
            free = [oracle.evolve(state, ham, t)]
            rows.append(_site_fidelities(measured, sites, alpha, beta)
                        - _site_fidelities(free, sites, alpha, beta))
        return np.array(rows)

    assert np.max(np.abs(got - _averaged(per_state, None))) <= PRINTED


def _gate_case(rng, delta=None):
    """A drawn small ring, its gate (site, t0, gamma, delta), and the flags of both."""
    spec, flags, ts, sites = _chain_case(rng, boundary="closed", delta=delta)
    m = int(rng.integers(1, spec.n + 1))
    t0 = round(float(rng.uniform(0.0, ts[-1])), 3)
    theta, phase = float(rng.uniform(0.0, math.pi)), float(rng.uniform(-math.pi, math.pi))
    gamma, delta_abs = math.cos(theta), math.sin(theta)
    flags += ["--site", str(m), "--t0", repr(t0), "--gamma-abs", repr(gamma),
              "--delta-abs", repr(delta_abs), "--delta-phase", repr(phase)]
    return spec, flags, ts, sites, (m, t0, gamma, delta_abs * cmath.exp(1j * phase))


def _gated(spec, ts, gate):
    """per_state(alpha, beta) -> the dense vacuum_one_two state at each time, gated at t0."""
    m, t0, gamma, delta = gate
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")

    def per_state(alpha, beta):
        state = oracle.encoded_state(alpha, beta, ham.basis)
        after = oracle.apply_local((gamma, delta), m, oracle.evolve(state, ham, t0))
        return [oracle.evolve(after, ham, t - t0) if t >= t0 else None for t in ts], [
            oracle.evolve(state, ham, t) for t in ts]

    return per_state


@pytest.mark.parametrize("diff", [False, True])
@pytest.mark.parametrize("case", CASES)
def test_unitary_qdp_cells_match_the_dense_gate(tmp_path, case, diff):
    rng = np.random.default_rng(500 + case)
    spec, flags, ts, sites, gate = _gate_case(rng)
    got = _printed(tmp_path, ["unitary-qdp", *flags, *(["--diff"] if diff else [])])
    states = _gated(spec, ts, gate)

    def per_state(alpha, beta):
        rows = []
        for gated, free in zip(*states(alpha, beta)):
            before = _site_fidelities([free], sites, alpha, beta)
            # before t0 the gate has not acted: the free fidelity, or no change
            after = before if gated is None else _site_fidelities([gated], sites, alpha, beta)
            rows.append(after - before if diff else after)
        return np.array(rows)

    assert np.max(np.abs(got - _averaged(per_state, None))) <= PRINTED


@pytest.mark.parametrize("part", ["bound", "scattering", "total"])
@pytest.mark.parametrize("case", CASES)
def test_two_magnon_split_cells_match_the_dense_bound_band(tmp_path, case, part):
    rng = np.random.default_rng(600 + case)
    spec, flags, ts, sites, gate = _gate_case(rng, delta=1.0)
    got = _printed(tmp_path, ["two-magnon-split", *flags, "--part", part])
    states = _gated(spec, ts, gate)
    two = oracle.make_basis("two_excitation", spec.n)
    bound = oracle.bound_band_projector(spec).projector

    def pair_part(state):
        """The pair sector of a vacuum_one_two state, cut to the part, on the pair basis."""
        is_pair = np.count_nonzero(state.basis.sites, axis=1) == 2
        psi = np.zeros(two.dim, dtype=complex)
        psi[two.lookup(state.basis.sites[is_pair])] = state.vector[is_pair]
        # the scattering part is the pair state minus its bound part
        kept = {"total": psi, "bound": bound @ psi, "scattering": psi - bound @ psi}[part]
        return oracle.DenseState(kept, two)

    def per_state(alpha, beta):
        rows = []
        for gated, _ in zip(*states(alpha, beta)):
            if gated is None:  # no pair before the gate
                rows.append(np.zeros(len(sites)))
                continue
            # the fidelity's x term reading the part's weight at each site
            x = [oracle.rdm_site(pair_part(gated), l)[0] for l in sites]
            rows.append([transfer_fidelity(w, 0.0, alpha, beta)
                         - transfer_fidelity(0.0, 0.0, alpha, beta) for w in x])
        return np.array(rows)

    assert np.max(np.abs(got - _averaged(per_state, None))) <= PRINTED


def _kicked_case(rng):
    """A drawn small kicked chain, its flags and its kick count."""
    n = int(rng.integers(3, 11))
    spec = HarperSpec(n, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 1.0)),
                      eta=float(rng.uniform(0.5, 2.0)), boundary=str(rng.choice(["open", "closed"])))
    kicks = int(rng.integers(0, 15))
    flags = ["--n", str(n), "--boundary", spec.boundary, "--g", repr(spec.g),
             "--tau", repr(spec.tau), "--eta", repr(spec.eta), "--kicks", str(kicks)]
    return spec, flags, kicks


def _stepped(step: np.ndarray, vector: np.ndarray, kicks: int) -> np.ndarray:
    """``vector`` after kicks 0..kicks, one row each."""
    rows = [vector]
    for _ in range(kicks):
        rows.append(step @ rows[-1])
    return np.array(rows)


@pytest.mark.parametrize("case", CASES)
def test_harper_cells_match_the_dense_step(tmp_path, case):
    rng = np.random.default_rng(300 + case)
    spec, flags, kicks = _kicked_case(rng)
    alpha2 = _alpha2(rng)
    extra = [] if alpha2 is None else ["--alpha2", repr(alpha2)]
    got = _printed(tmp_path, ["harper", *flags, *extra])
    # the particle's amplitudes at every site; the vacuum does not move
    u = _stepped(dense_step(spec), np.eye(spec.n, dtype=complex)[0], kicks)

    def per_state(alpha, beta):
        # site l holds the particle with amplitude beta*u_l, and is empty in the vacuum
        x, y = np.abs(beta * u) ** 2, beta * u * np.conj(alpha)
        return np.vectorize(transfer_fidelity)(x, y, alpha, beta)

    assert np.max(np.abs(got - _averaged(per_state, alpha2))) <= PRINTED


@pytest.mark.parametrize("case", CASES)
def test_detector_cells_match_the_dense_measurement_branches(tmp_path, case):
    rng = np.random.default_rng(400 + case)
    spec, flags, kicks = _kicked_case(rng)
    m, n0 = int(rng.integers(1, spec.n + 1)), int(rng.integers(0, kicks + 1))
    alpha2 = round(float(rng.uniform(0.0, 1.0)), 6)
    got = _printed(tmp_path, ["detector", *flags, "--qdp-site", str(m), "--qdp-kick", str(n0),
                              "--alpha2", repr(alpha2)])
    step = dense_step(spec)
    # the one-particle part beta * u; the vacuum is untouched by kicks and by the measurement
    free = _stepped(step, math.sqrt(1.0 - alpha2) * np.eye(spec.n, dtype=complex)[0], kicks)
    found = np.where(np.arange(spec.n) == m - 1, free[n0], 0.0)
    missed = free[n0] - found
    occupation = (np.abs(_stepped(step, found, kicks - n0)) ** 2
                  + np.abs(_stepped(step, missed, kicks - n0)) ** 2)
    want = occupation - np.abs(free[n0:]) ** 2
    assert np.max(np.abs(got - want)) <= PRINTED
