"""General Kraus sets read by the one local-process readout, judged by dense evolution.

Each draw takes a random chain of 3 to 8 sites (a ring when the set flips
site m, so that the pair channel is open), random J, Delta, m, t0, t and
encoded state. The reference applies every operator K of the set with
``oracle.apply_local`` in the dense ``vacuum_one_two`` sector, evolves each
branch exactly and sums the branches' site RDMs. It shares no formula with
the readout: not the pieces A, V and P, not the six Bloch states (its Bloch
average is the quadrature of ``bloch_reference``) and not the reduced change.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bloch_reference import bloch_average
from spinchain import oracle
from spinchain.chain import MEASUREMENT, ChainSpec, InitialState, LocalProcess, gate
from spinchain.protocols import ProcessEngine, SpinChain, process_fidelity, site_rdm

P_DAMP, Q_DEPHASE = 0.37, 0.23
THETA, PHI = 1.1, 0.7
_GATE = gate(math.cos(THETA), math.sin(THETA) * complex(math.cos(PHI), math.sin(PHI)))[0]
_DEPHASING = (math.sqrt(1 - Q_DEPHASE) * np.eye(2), math.sqrt(Q_DEPHASE) * np.diag([1, -1]))

SETS = {
    "projective": MEASUREMENT,
    "amplitude damping": (np.diag([1, math.sqrt(1 - P_DAMP)]), [[0, math.sqrt(P_DAMP)], [0, 0]]),
    "dephasing": _DEPHASING,
    "gate": (_GATE,),
    "gate then dephasing": tuple(z @ _GATE for z in _DEPHASING),
}
#: About 100 times the worst error measured, 3.5e-15 over 30 draws of each set.
TOLERANCE = 3.5e-13
DRAWS = 6


def _draw(rng, kraus):
    """A random chain, process, observation time and encoded state for one Kraus set."""
    flips = any(np.asarray(k, dtype=complex)[1, 0] != 0 for k in kraus)
    n = int(rng.integers(3, 9))
    boundary = "closed" if flips else str(rng.choice(["open", "closed"]))
    spec = ChainSpec(n, boundary, float(rng.uniform(0.3, 1.2)), float(rng.uniform(-1.0, 2.0)))
    process = LocalProcess(int(rng.integers(1, n + 1)), float(rng.uniform(0.0, 2.0)), kraus)
    t = process.t0 + float(rng.uniform(0.0, 2.0))
    alpha2 = float(rng.uniform(0.0, 1.0))
    initial = InitialState(math.sqrt(alpha2),
                           math.sqrt(1.0 - alpha2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return spec, process, t, initial


def _dense_rdm(ham, process, t, alpha, beta, gated=True):
    """Site RDM entries (x, y) of every site from the dense branches K|psi(t0)>, evolved to t."""
    state = oracle.encoded_state(alpha, beta, ham.basis)
    if not gated:
        branches = [oracle.evolve(state, ham, t)]
    else:
        mid = oracle.evolve(state, ham, process.t0)
        branches = [oracle.evolve(oracle.apply_local(k, process.m, mid), ham, t - process.t0)
                    for k in process.kraus]
    entries = [[oracle.rdm_site(b, l) for b in branches] for l in range(1, ham.basis.n + 1)]
    x = np.array([sum(e[0] for e in site) for site in entries])
    y = np.array([sum(e[1] for e in site) for site in entries])
    return x, y


def _fidelities(x, y, alpha, beta):
    return abs(alpha) ** 2 * (1.0 - x) + abs(beta) ** 2 * x + 2.0 * (alpha * np.conj(beta) * y).real


@pytest.mark.parametrize("name", SETS)
def test_kraus_set_readout_matches_dense_branches(name):
    rng = np.random.default_rng(sorted(SETS).index(name) + 17)
    worst = 0.0
    for _ in range(DRAWS):
        spec, process, t, initial = _draw(rng, SETS[name])
        engine = ProcessEngine(SpinChain(spec), process)
        (block,) = engine.rows([t])
        x, y = site_rdm(process, block, initial)
        ham = oracle.build_hamiltonian(spec, "vacuum_one_two")
        want_x, want_y = _dense_rdm(ham, process, t, initial.alpha, initial.beta)
        ((state_row,),) = process_fidelity(process, engine.rows([t]), initial)
        want_state = _fidelities(want_x, want_y, initial.alpha, initial.beta)
        ((bloch_row,),) = process_fidelity(process, engine.rows([t]))
        ((change_row,),) = process_fidelity(process, engine.rows([t]), change=True)
        cache = {}

        def rows(a, b):
            """The dense fidelity rows of the state (a, b): with the process, and free."""
            if (a, b) not in cache:
                cache[a, b] = [_fidelities(*_dense_rdm(ham, process, t, a, b, gated), a, b)
                               for gated in (True, False)]
            return cache[a, b]

        bloch_dense = [bloch_average(lambda a, b: rows(a, b)[0][l]) for l in range(spec.n)]
        change_dense = [bloch_average(lambda a, b: rows(a, b)[0][l] - rows(a, b)[1][l])
                        for l in range(spec.n)]
        worst = max(worst, *np.abs(x[0] - want_x), *np.abs(y[0] - want_y),
                    *np.abs(state_row - want_state), *np.abs(bloch_row - bloch_dense),
                    *np.abs(change_row - change_dense))
    assert worst <= TOLERANCE, worst


def test_gate_and_measurement_are_one_operator_and_two():
    assert LocalProcess(2, 1.0, gate(0.6, 0.8j)).opens_pairs
    assert not LocalProcess(2, 1.0, MEASUREMENT).opens_pairs
    # only a scalar multiple of the identity is a global phase, read as free evolution
    assert LocalProcess(2, 1.0, gate(0.6 + 0.8j, 0.0)).is_phase
    assert not LocalProcess(2, 1.0, _DEPHASING).is_phase
    with pytest.raises(ValueError, match="one operator"):
        ProcessEngine(SpinChain(ChainSpec(6, "closed")), LocalProcess(2, 1.0, MEASUREMENT)).state(
            2.0, InitialState(0.6, 0.8))
