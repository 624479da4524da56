"""References for every checked output value, and the checks themselves.

An op is one checked output value: a grid cell, a line-kernel value, or one
verdict of a self-check command. A command that exits non-zero fails all of
its ops.

* open-line: every cell recomputed from the dense oracle's one-excitation
  evolution, at 1e-9.
* line-kernel values: each recomputed from the oracle's two-excitation
  sector, at 3e-6 (the tolerance of tests/golden/green2_line_n40.json).
* ring-gate and the kicked-chain grids: the oracle cannot hold these sizes,
  so their seed values are frozen in refs/*.npz (see freeze_refs.py) and
  checked at 1e-9.
* oracle-check and calibrate: each verdict in the report must pass.

All of this runs in run.py's process, after the timed worker has exited.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

from spinchain import oracle
from spinchain.chain import ChainSpec

import workloads

GRID_TOL = 1e-9
LINE_TOL = 3e-6
REF_DIR = pathlib.Path(__file__).resolve().parent / "refs"


def frozen_path(workload: workloads.Workload) -> pathlib.Path:
    return REF_DIR / f"{workload.name}{'-smoke' if workload.smoke else ''}.npz"


def read_grid(path: pathlib.Path) -> np.ndarray | None:
    """CSV rows (l, t, value) as an (rows, 3) array; None if the header is wrong."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "l,t,value":
        return None
    return np.array([row.split(",") for row in lines[1:]], dtype=float).reshape(-1, 3)


def _unit(n: int, site: int) -> np.ndarray:
    vec = np.zeros(n, dtype=complex)
    vec[site - 1] = 1.0
    return vec


def _open_line(wl: workloads.Workload) -> dict[str, np.ndarray]:
    p = wl.params
    spec = ChainSpec(p["n"], "open", 0.5, 1.0)
    ham = oracle.build_hamiltonian(spec, "one_excitation")
    basis = ham.basis

    def reduced(site: int, t: float) -> np.ndarray:
        # <l| e^{-iHt} |site> for every l, with the reference phase removed
        state = oracle.evolve(oracle.DenseState(_unit(spec.n, site), basis), ham, t)
        return state.vector * np.exp(1j * spec.ground_energy * t)

    fidelity_axes = next(c.axes for c in wl.commands if c.key == "fidelity")
    ts = fidelity_axes[1]
    free, diff = [], []
    m, t0 = p["site"], p["t0"]
    to_m = reduced(1, t0)[m - 1]
    for t in ts:
        g = reduced(1, t)
        # Bloch-averaged transfer fidelity 1/2 + |f|^2/6 + Re f/3 (Bose 2003)
        f_free = 0.5 + np.abs(g) ** 2 / 6.0 + g.real / 3.0
        free.append(f_free)
        if t < t0:
            diff.append(np.zeros(spec.n))
            continue
        # Measuring site m at t0 splits g into collapse k (found at m, then
        # released from m) and survive h = g - k, summed incoherently.
        k = to_m * reduced(m, t - t0)
        h = g - k
        f_measured = 0.5 + (np.abs(h) ** 2 + np.abs(k) ** 2) / 6.0 + h.real / 3.0
        diff.append(f_measured - f_free)
    return {"fidelity": np.concatenate(free), "qdp-diff": np.concatenate(diff)}


def line_reference(wl: workloads.Workload) -> np.ndarray:
    spec = ChainSpec(*wl.line_spec)
    ham = oracle.build_hamiltonian(spec, "two_excitation")
    basis = ham.basis
    out = []
    for s1, s2, d1, d2, t in wl.kernel_calls:
        seed = np.zeros(basis.dim, dtype=complex)
        seed[basis.pair_index(s1, s2)] = 1.0
        state = oracle.evolve(oracle.DenseState(seed, basis), ham, t)
        out.append(state.vector[basis.pair_index(d1, d2)])
    return np.array(out)


def grid_references(wl: workloads.Workload) -> dict[str, np.ndarray]:
    if wl.name == "open-line":
        return _open_line(wl)
    if any(c.axes for c in wl.commands):
        with np.load(frozen_path(wl)) as frozen:
            return {key: frozen[key] for key in frozen.files}
    return {}


def failed_grid_ops(path: pathlib.Path, command: workloads.Command, ref: np.ndarray) -> int:
    ls, ts = command.axes
    expected = len(ls) * len(ts)
    rows = read_grid(path)
    if rows is None or rows.shape[0] != expected or ref.shape != (expected,):
        return expected
    l_ok = rows[:, 0] == np.tile(np.asarray(ls, dtype=float), len(ts))
    t_ok = np.abs(rows[:, 1] - np.repeat(np.asarray(ts), len(ls))) <= 1e-9
    v_ok = np.abs(rows[:, 2] - ref) <= GRID_TOL  # False for NaN
    return int(expected - np.count_nonzero(l_ok & t_ok & v_ok))


def failed_verdicts(path: pathlib.Path, command: workloads.Command) -> int:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return command.verdicts
    failing = sum(1 for v in report.values() if not (isinstance(v, dict) and v.get("pass") is True))
    missing = max(command.verdicts - len(report), 0)
    return min(command.verdicts, failing + missing)


class Checker:
    """Counts failed ops of each pass; each distinct output file is checked once."""

    def __init__(self, wl: workloads.Workload, files: dict[str, pathlib.Path]):
        self.wl = wl
        self.files = files  # digest -> a file with that content
        self.grids = grid_references(wl)
        self.line = line_reference(wl) if wl.kernel_calls else None
        self._checked: dict[tuple[str, str], int] = {}

    def failed_ops(self, record: dict) -> int:
        failed = 0
        for command, code, digest in zip(self.wl.commands, record["codes"], record["digests"]):
            ops = command.verdicts or len(command.axes[0]) * len(command.axes[1])
            if code != 0 or digest is None:
                failed += ops
                continue
            if (command.key, digest) not in self._checked:
                path = self.files[digest]
                self._checked[command.key, digest] = (
                    failed_grid_ops(path, command, self.grids[command.key]) if command.axes
                    else failed_verdicts(path, command)
                )
            failed += self._checked[command.key, digest]
        if self.line is not None:
            got = np.array([complex(re, im) for re, im in record["values"]])
            if got.shape != self.line.shape:
                failed += self.line.size
            else:
                failed += int(np.count_nonzero(~(np.abs(got - self.line) <= LINE_TOL)))
        return failed
