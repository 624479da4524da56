"""One-time rows of the library's local-process readouts, for tests that probe single times."""

from __future__ import annotations

import numpy as np

from spinchain.chain import LocalProcess, gate
from spinchain.protocols import ProcessEngine, process_fidelity


def gate_process(m: int, t0: float, gamma: complex, delta: complex) -> LocalProcess:
    """The gate V(gamma, delta) of the conventions at site m, time t0."""
    return LocalProcess(m, t0, gate(gamma, delta))


def fidelity_row(engine: ProcessEngine, t: float, change: bool = False) -> np.ndarray:
    """The engine's Bloch-averaged fidelity row (or its change against free evolution) at t >= t0."""
    ((row,),) = process_fidelity(engine.process, engine.rows([t]), change=change)
    return row


def split_row(engine: ProcessEngine, t: float, part: str) -> np.ndarray:
    """One propagator part's two-magnon contribution to the averaged fidelity at t >= t0."""
    ((row,),) = engine.split_rows([t], part)
    return row
