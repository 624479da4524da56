"""Shared fixtures: golden-file access for the dual-route regression tests."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from spinchain.oracle import decode_complex, load_golden

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
