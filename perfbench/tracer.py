"""Per-layer tracing from outside the program.

The layers are spinchain's modules. ``Tracer.install`` wraps every public
function of each layer, and the public methods of its non-dataclass classes,
and rebinds each wrapped function under every name it is bound to in any
loaded spinchain module: ``from x import y`` binds a second name that
patching ``x`` alone would miss.

Each call records a span (name, start, end, parent, thread, command). Every
thread keeps its own span stack. A span that starts on a thread with an
empty stack (a ``--threads`` pool worker) is attached to the outermost span
open on the main thread, the command that started it. Spans stay in memory
until ``take`` hands them to ``layer_metrics``.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

LAYERS = ("bessel", "green1", "protocols", "green2", "harper", "oracle", "cli")

# Arguments a span keeps for the counts: span name -> parameter names. The
# counts are derived from them after the pass, outside every span.
_KEEP = {
    "bessel.bessel_j_sequence": ("max_order",),
    "green1.reduced_hop_amplitudes": ("offsets",),
    "green2.RingTwoMagnon.__init__": ("spec",),
    "harper.qdp_and_detect": ("n0", "n"),
    "cli.main": ("argv",),
}


def _arg_reader(name: str, fn):
    """(args, kwargs) -> the kept argument values, or None when none are kept."""
    if name not in _KEEP:
        return None
    names = list(inspect.signature(fn).parameters)
    where = [(names.index(p), p) for p in _KEEP[name]]

    def read(args, kwargs):
        return tuple(args[i] if i < len(args) else kwargs[p] for i, p in where)

    return read


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    command: int
    args: tuple | None


class Tracer:
    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._root: tuple[int, int] | None = None  # (id, command) open on the main thread

    def _wrap(self, name: str, fn):
        read_args = _arg_reader(name, fn)
        tracer, local, ids, spans = self, self._local, self._ids, self._spans
        clock, get_ident, main = time.perf_counter, threading.get_ident, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            thread = get_ident()
            sid = next(ids)
            if stack:
                parent, command = stack[-1]
            elif thread != main and tracer._root is not None:
                parent, command = tracer._root
            else:
                parent, command = None, sid
                if thread == main:
                    tracer._root = (sid, sid)
            stack.append((sid, command))
            kept = read_args(args, kwargs) if read_args else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is None and thread == main:
                    tracer._root = None
                spans.append(Span(sid, name, start, end, parent, thread, command, kept))

        return traced

    def install(self) -> int:
        """Wrap every public callable of the layers; returns the number wrapped."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"spinchain.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj) \
                        and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        # Rebind under every name: the defining module and each importer.
        for modname, module in list(sys.modules.items()):
            if modname != "spinchain" and not modname.startswith("spinchain."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        return len(originals)

    def take(self) -> list[Span]:
        spans = list(self._spans)
        self._spans.clear()
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall time each span spends as a leaf: its duration minus its children's.

    Within a command, every instant is split equally among the innermost
    spans open at that instant, across threads. A span covered by a child on
    another thread gets none of that interval, so the self times of one
    command's spans sum exactly to the command's wall time.
    """
    by_id = {s.id: s for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, s.id))
    events.sort()
    share = {s.id: 0.0 for s in spans}
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    last = None
    for when, starting, sid in events:
        if leaves and last is not None and when > last:
            part = (when - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        last = when
        parent = by_id[sid].parent
        if starting:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(sid)
            del open_children[sid]
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return share


# Per-layer metrics: name -> (unit, better). Every one is reported on every
# workload, with 0 where a layer is unused.
METRICS = {
    "bessel.calls": ("count", "lower"),
    "bessel.self_s": ("s", "lower"),
    "bessel.useful_frac": ("1", "higher"),
    "green1.scalar_calls": ("count", "lower"),
    "green1.row_calls": ("count", "lower"),
    "green1.self_s": ("s", "lower"),
    "protocols.grid_calls": ("count", "lower"),
    "protocols.engine_builds": ("count", "lower"),
    "protocols.self_s": ("s", "lower"),
    "green2.ring_builds": ("count", "lower"),
    "green2.ring_specs": ("count", "lower"),
    "green2.ring_build_s": ("s", "lower"),
    "green2.evolve_calls": ("count", "lower"),
    "green2.evolve_s": ("s", "lower"),
    "green2.line_builds": ("count", "lower"),
    "green2.line_values": ("count", "higher"),
    "green2.line_build_s": ("s", "lower"),
    "green2.self_s": ("s", "lower"),
    "harper.step_builds": ("count", "lower"),
    "harper.detect_calls": ("count", "lower"),
    "harper.detect_s": ("s", "lower"),
    "harper.matvecs_computed": ("count", "lower"),
    "harper.self_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead": ("1", "lower"),
}

COUNTS = tuple(k for k, (unit, _) in METRICS.items() if unit in ("count", "B"))

# Spans whose time, children included, is reported as an operation time.
_OPERATIONS = {
    "green2.RingTwoMagnon.__init__": "green2.ring_build_s",
    "green2.RingTwoMagnon.evolve_pair_state": "green2.evolve_s",
    "green2.TwoMagnonEngine.__init__": "green2.line_build_s",
    "harper.qdp_and_detect": "harper.detect_s",
}

_LINE_ENTRIES = ("green2.green2", "green2.green2_scattering", "green2.green2_bound")


def layer_metrics(spans: list[Span], harper_kicks) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one pass, and the self-consistency problems found.

    ``harper_kicks(argv)`` gives the kick count of a ``harper`` command line,
    which steps one vector once per kick.
    """
    out = {name: 0.0 for name in METRICS if not name.startswith(("trace.", "cli.bytes"))}
    share = self_times(spans)
    by_id = {s.id: s for s in spans}
    counts = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
        out[s.name.split(".", 1)[0] + ".self_s"] += share[s.id]
    # Operation times: each span's self share credited to every operation
    # span above it, itself included.
    for s in spans:
        node = s
        while node is not None:
            metric = _OPERATIONS.get(node.name)
            if metric:
                out[metric] += share[s.id]
            node = by_id.get(node.parent)
    c = counts.get
    out["bessel.calls"] = c("bessel.bessel_j_sequence", 0)
    computed = sum(s.args[0] + 1 for s in spans if s.name == "bessel.bessel_j_sequence")
    # distinct |offset| per call: J_{-n} is read from J_n
    consumed = sum(np.unique(np.abs(s.args[0])).size for s in spans
                   if s.name == "green1.reduced_hop_amplitudes")
    out["bessel.useful_frac"] = consumed / computed if computed else 0.0
    out["green1.scalar_calls"] = c("green1.green1_reduced", 0)
    out["green1.row_calls"] = c("green1.reduced_profile", 0)
    out["protocols.grid_calls"] = c("protocols.fidelity_grid", 0)
    out["protocols.engine_builds"] = c("protocols.UnitaryQdpEngine.__init__", 0)
    rings = [s.args[0] for s in spans if s.name == "green2.RingTwoMagnon.__init__"]
    out["green2.ring_builds"] = len(rings)
    out["green2.ring_specs"] = len(set(rings))
    out["green2.evolve_calls"] = c("green2.RingTwoMagnon.evolve_pair_state", 0)
    out["green2.line_builds"] = c("green2.TwoMagnonEngine.__init__", 0)
    # Values asked of the line kernels: entry calls not made by another entry.
    out["green2.line_values"] = sum(
        1 for s in spans
        if s.name in _LINE_ENTRIES and (s.parent is None or by_id[s.parent].name not in _LINE_ENTRIES)
    )
    out["harper.step_builds"] = c("harper.floquet_step", 0)
    out["harper.detect_calls"] = c("harper.qdp_and_detect", 0)
    # Computed from the arguments: qdp_and_detect steps one vector to kick
    # n0, then three vectors to kick n; a harper command steps one per kick.
    out["harper.matvecs_computed"] = sum(
        n0 + 3 * (n - n0) for n0, n in (s.args for s in spans if s.name == "harper.qdp_and_detect")
    ) + sum(harper_kicks(s.args[0]) for s in spans
            if s.name == "cli.main" and s.args[0][0] == "harper")
    out["oracle.calls"] = sum(n for name, n in counts.items() if name.startswith("oracle."))

    problems = []
    per_command: dict[int, float] = {}
    for s in spans:
        per_command[s.command] = per_command.get(s.command, 0.0) + share[s.id]
    for root in (s for s in spans if s.parent is None):
        wall = root.end - root.start
        if abs(per_command[root.id] - wall) > 1e-6 * max(wall, 1.0):
            problems.append(
                f"self times under {root.name} sum to {per_command[root.id]:.6f} s, wall {wall:.6f} s"
            )
    return out, problems
