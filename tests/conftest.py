"""Shared fixtures: golden-file access for the dual-route regression tests, test-side references."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from golden_io import decode_complex, load_golden
from spinchain.chain import MEASUREMENT, LocalProcess, reduced_phase
from spinchain.green1 import reduced_profile
from spinchain.protocols import ProcessEngine, SpinChain, _check_measurement_times, process_fidelity

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def golden():
    """Load a golden file once per session; values decoded to complex arrays."""

    cache: dict[str, dict] = {}

    def _load(name: str) -> dict:
        if name not in cache:
            record = load_golden(GOLDEN_DIR / f"{name}.json")
            record["values"] = {
                key: np.asarray(decode_complex(val)) for key, val in record["values"].items()
            }
            cache[name] = record
        return cache[name]

    return _load


@pytest.fixture(scope="session")
def channel_fidelity():
    """Per-state transfer fidelity at site l from a gate state's sector amplitudes.

    A per-pair loop over the pair matrix's upper triangle, kept independent of
    the engine's row sums.
    """

    def _fidelity(state, l: int, initial) -> float:
        one = state.one_magnon
        x = abs(one[l - 1]) ** 2
        y = one[l - 1] * np.conj(state.vacuum)
        for i, j in zip(*np.triu_indices(len(one), 1)):
            p1, p2 = i + 1, j + 1
            if l in (p1, p2):
                amp = state.two_magnon[i, j]
                x += abs(amp) ** 2
                partner = p2 if l == p1 else p1
                y += amp * np.conj(one[partner - 1])
        a, b = initial.alpha, initial.beta
        return float(abs(a) ** 2 * (1 - x) + abs(b) ** 2 * x + 2 * np.real(a * np.conj(b) * y))

    return _fidelity


@pytest.fixture(scope="session")
def fidelity_projective_row():
    """Transfer fidelity at every site with a site-m measurement at t0 (Bloch or per-state).

    The library's process readout of the measurement at one time; no CLI
    command writes it (``qdp-diff`` reads its change).
    """

    def _row(m: int, t: float, t0: float, spec, initial=None) -> np.ndarray:
        process = LocalProcess(m, t0, MEASUREMENT)
        ((row,),) = process_fidelity(process, ProcessEngine(SpinChain(spec), process).rows([t]), initial)
        return row

    return _row


@pytest.fixture(scope="session")
def hk_propagators():
    """Survive (h) and collapse (k) amplitudes of a measurement at site m, time t0.

    Full phases, one sample at a time, by the literal intermediate-site sum:
    h is accumulated as sum_{y'' != m} g(y -> y''; t0) g(y'' -> yp; t - t0),
    not as g - k, so the identity h + k = g(y -> yp; t) is a real composition
    test. The reference that ``oracle-check``'s batched splitting check is
    held to.
    """

    def _hk(y: int, yp: int, m: int, t: float, t0: float, spec) -> tuple[complex, complex]:
        _check_measurement_times(t, t0)
        if not 1 <= m <= spec.n:
            raise ValueError(f"measured site m={m} out of range 1..{spec.n}")
        first = reduced_profile(y, t0, spec)
        second = reduced_profile(yp, t - t0, spec)  # = g(y'' -> yp) by symmetry
        sites = np.arange(1, spec.n + 1)
        keep = sites != m
        h_red = np.sum(first[keep] * second[keep])
        k_red = first[m - 1] * second[m - 1]
        phase = reduced_phase(spec, t)
        return complex(phase * h_red), complex(phase * k_red)

    return _hk
