"""The benchmark's workloads: what one pass runs, built from a seed.

A pass runs a workload's whole command list once. CLI commands go through
``spinchain.cli.main`` with ``--out`` pointing into the pass's own output
directory; dense-kernels also calls ``spinchain.green2.green2`` directly,
because no CLI command reaches the infinite-line tables.

Seed 0 is exactly the parameters of the README commands. Inputs whose
reference is recomputed from the dense oracle (open-line, the line-kernel
values) are drawn from other seeds at unchanged sizes; inputs checked
against frozen seed values are the same for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

NAMES = ("open-line", "ring-gate", "dense-kernels")

# Targets of tests/golden/green2_line_n40.json, as offsets from the source
# pair (19, 22).
_LINE_TARGET_OFFSETS = ((0, 0), (-1, 1), (1, -1), (-2, 2), (2, 4), (-4, -2), (-3, 3))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output file must hold.

    ``axes`` is (l values, t values) of a grid command, in the CSV's order
    (t outer, l inner); ``verdicts`` is the number of pass/fail entries a
    self-check command reports. Exactly one of the two is set.
    """

    key: str
    argv: tuple[str, ...]
    axes: tuple[tuple[int, ...], tuple[float, ...]] | None = None
    verdicts: int = 0

    @property
    def suffix(self) -> str:
        return ".csv" if self.axes is not None else ".json"


@dataclass(frozen=True)
class Workload:
    name: str
    smoke: bool
    commands: tuple[Command, ...] = ()
    # (s1, s2, d1, d2, t) for green2 on ``line_spec``
    kernel_calls: tuple[tuple[int, int, int, int, float], ...] = ()
    line_spec: tuple[int, str, float, float] | None = None
    params: dict = field(default_factory=dict)
    # Fresh worker processes per run, each giving one cold pass; fewer where
    # a pass is long, to bound a run's wall time.
    fresh_processes: int = 3

    def ops_per_pass(self) -> int:
        grid = sum(len(c.axes[0]) * len(c.axes[1]) for c in self.commands if c.axes)
        return grid + sum(c.verdicts for c in self.commands) + len(self.kernel_calls)


def _times(tmin: float, tmax: float, dt: float) -> tuple[float, ...]:
    # The CLI's own time axis: tmin + k*dt rounded to 12 decimals.
    count = int((tmax - tmin) / dt + 1e-9) + 1
    return tuple(round(tmin + k * dt, 12) for k in range(count))


def _grid(key: str, n: int, tmin: float, tmax: float, dt: float, *argv) -> Command:
    args = tuple(str(a) for a in argv)
    if tmin:
        args += ("--tmin", str(tmin))
    return Command(key, args + ("--tmax", str(tmax), "--dt", str(dt)),
                   axes=(tuple(range(1, n + 1)), _times(tmin, tmax, dt)))


def _kicked(key: str, n: int, tau: float, first: int, last: int, *argv) -> Command:
    ts = tuple(k * tau for k in range(first, last + 1))
    return Command(key, tuple(str(a) for a in argv), axes=(tuple(range(1, n + 1)), ts))


def open_line(seed: int, smoke: bool) -> Workload:
    # Not listed in BENCHMARK.json: its outputs miss the oracle (see run.py).
    n, tmax, t0 = (12, 3.0, 1.0) if smoke else (100, 60.0, 10.0)
    lo, hi, site = (3, 8, 5) if smoke else (15, 25, 20)
    if seed:
        # Only the measured site varies: t0 would change how many cells
        # carry work, and with it the pass time.
        site = random.Random(seed).randint(lo, hi)
    chain = ("--n", n)
    commands = (
        _grid("fidelity", n, 0.0, tmax, 0.5, "fidelity", *chain),
        _grid("qdp-diff", n, 0.0, tmax, 0.5, "qdp-diff", *chain, "--site", site, "--t0", t0),
    )
    return Workload("open-line", smoke, commands,
                    params={"n": n, "site": site, "t0": t0, "tmax": tmax, "dt": 0.5})


def ring_gate(seed: int, smoke: bool) -> Workload:
    if smoke:
        n, big, site, t0, tmax, t_single, split = 12, 14, 3, 1.0, 2.0, 1.5, (2, 1.0, 2.0)
    else:
        n, big, site, t0, tmax, t_single, split = 100, 200, 15, 7.5, 12.0, 9.0, (10, 5.0, 8.0)
    ring = ("--boundary", "closed")
    gate = ("unitary-qdp", "--n", n, *ring, "--site", site, "--t0", t0)
    commands = (
        _grid("gate", n, 0.0, tmax, 0.25, *gate),
        _grid("gate-diff", n, 0.0, tmax, 0.25, *gate, "--diff", "--threads", 2),
        _grid("split", n, 0.0, split[2], 0.5, "two-magnon-split", "--n", n, *ring,
              "--site", split[0], "--t0", split[1], "--part", "scattering"),
        _grid(f"gate-n{big}", big, t_single, t_single, 0.25, "unitary-qdp", "--n", big, *ring,
              "--site", site, "--t0", t0),
    )
    return Workload("ring-gate", smoke, commands, fresh_processes=2)


def dense_kernels(seed: int, smoke: bool) -> Workload:
    # Kicked chain and self-checks: small dense linear algebra where
    # per-call overhead dominates; the only harper and oracle user.
    n, tau = (12 if smoke else 100), 0.1
    short, long_, qdp_kick, det_short, det_long = (5, 10, 2, 4, 8) if smoke else (200, 500, 5, 60, 300)
    kick = ("--n", n, "--g", 1, "--tau", tau)
    det = ("detector", *kick, "--qdp-site", 1, "--qdp-kick", qdp_kick, "--alpha2", 0.5)
    harper_long = ("harper", *kick) + (("--kicks", long_) if smoke else ())  # CLI default is 500
    commands = (
        _kicked("harper", n, tau, 0, short, "harper", *kick, "--kicks", short),
        _kicked("harper-long", n, tau, 0, long_, *harper_long),
        _kicked("detector", n, tau, qdp_kick, det_short, *det, "--kicks", det_short),
        _kicked("detector-long", n, tau, qdp_kick, det_long, *det, "--kicks", det_long),
        Command("oracle-check", ("oracle-check", "--n", "12"), verdicts=4),
        Command("calibrate", ("calibrate", "--n", "12"), verdicts=4),
    )
    # Infinite-line green2 values, the only path into the quadrature tables.
    # The oracle's ring must be long enough that no amplitude wraps it
    # within the largest time, or the reference itself is off.
    ring, source, times = (24, (11, 14), (0.5,)) if smoke else (40, (19, 22), (1.0, 2.0, 3.0))
    shift = random.Random(seed).randint(-4 if smoke else -8, 4 if smoke else 8) if seed else 0
    s1, s2 = source[0] + shift, source[1] + shift
    calls = tuple(
        (s1, s2, s1 + a, s2 + b, t) for t in times for a, b in _LINE_TARGET_OFFSETS
    )
    # Five cold passes: a single cold pass here varies by about 15 %.
    return Workload("dense-kernels", smoke, commands, kernel_calls=calls,
                    line_spec=(ring, "closed", 0.5, 1.0), params={"shift": shift},
                    fresh_processes=5)


BUILDERS = {
    "open-line": open_line,
    "ring-gate": ring_gate,
    "dense-kernels": dense_kernels,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)
