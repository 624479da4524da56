"""Command-line front end: fidelity and detector grids as CSV plus JSON metadata.

Every grid subcommand writes two files: the CSV named by ``--out`` (header
``l,t,value``, time as the outer loop, 12 significant digits) and a metadata
sidecar ``<out>.meta.json`` echoing the resolved parameters, the convention
fingerprint, and the relevant tolerances.  Outputs are byte-identical across
re-runs.  Each grid command has its own runner of four steps: the axes,
a dynamics (``protocols.SpinChain``, ``harper.KickedChain``, or the gate's
``protocols.UnitaryQdpEngine``, whose rows are stacked per block), a readout
over its row blocks (before ``--t0``: the free rows, or zeros for a
difference), and ``protocols.grid_csv``.  Every stream yields blocks of
max(1, 8192 // N) times; ``grid_csv`` checks each block as it arrives (no
NaN, values in [0, 1], or [-1, 1] for differences and the detector) and
turns it into a chunk of text for the temporary CSV file, so no command
holds its grid; the CSV and its sidecar are renamed into place both or
neither.  Each grid command first runs the time checks its rows would run
at its last time; the temporary file is then opened before the first row
is computed, so an unwritable ``--out`` exits 4 even where a row would fail.
``--threads`` is still accepted but has no effect.

``main`` builds the argument parser on its first call and reuses it, unchanged,
for every later call in the process.  A ``--config`` file's values become the
defaults of a parser built for that call alone, so they never reach another.

Exit codes: 0 success, 2 unusable arguments or config file, 3 a numerical
check failed, 4 output could not be written.
"""
from __future__ import annotations

import argparse
import cmath
import errno
import functools
import itertools
import json
import math
import os
import pathlib
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__
from .chain import CONVENTIONS, ChainSpec, InitialState, LocalGate, conventions_hash, reduced_phase
from .green1 import HALF_INFINITE_MIN_N, free_propagator, propagator_argument, reduced_profile
from .green2 import _check_evolution
from .harper import HarperSpec, KickedChain
from .protocols import SpinChain, UnitaryQdpEngine, _projective_parts, _rdm_row, fidelity_change
from .protocols import fidelity_from_amplitudes, grid_csv, measured, occupation_change, row_blocks
from . import oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_CSV_FORMAT = "l,t,value; t outer, l inner; 12 significant digits"

#: Most rows x sites a command computes (all n sites per row, every kick from 0 on the
#: kicked chain); more exits 2 before allocation.
MAX_GRID_CELLS = 10**7


class CheckFailure(RuntimeError):
    """A validation subcommand found a number outside its tolerance."""


# --------------------------------------------------------------------------
# Parser construction
# --------------------------------------------------------------------------


def _add_chain_flags(p: argparse.ArgumentParser, *, boundary_default: str = "open") -> None:
    p.add_argument("--n", type=int, default=100, help="number of sites")
    p.add_argument("--boundary", choices=("open", "closed"), default=boundary_default)
    p.add_argument("--j", type=float, default=0.5, help="exchange strength")
    p.add_argument("--delta", type=float, default=1.0, help="interaction anisotropy")


def _add_common_flags(p: argparse.ArgumentParser, default_out: str) -> None:
    p.add_argument("--out", default=default_out, help="output CSV path")
    p.add_argument("--config", default=None, help="key = value file; flags override it")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")


def _add_grid_flags(p: argparse.ArgumentParser, tmax: float, dt: float) -> None:
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--lmax", type=int, default=None, help="defaults to --n")
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=tmax)
    p.add_argument("--dt", type=float, default=dt)


def _add_qdp_flags(p: argparse.ArgumentParser, *, site: int, t0: float) -> None:
    p.add_argument("--site", type=int, default=site, help="site acted on by the local process")
    p.add_argument("--t0", type=float, default=t0, help="time of the local process")


def _add_gate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-abs", type=float, default=0.0, help="stay amplitude (real)")
    p.add_argument("--delta-abs", type=float, default=1.0, help="flip amplitude magnitude")
    p.add_argument("--delta-phase", type=float, default=0.0, help="flip amplitude phase (radians)")


def _add_harper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", type=float, default=1.0, help="kick potential strength")
    p.add_argument("--tau", type=float, default=0.1, help="kick interval")
    p.add_argument("--eta", type=float, default=math.sqrt(2.0), help="potential commensuration")
    p.add_argument("--kicks", type=int, default=500, help="number of kick periods to read out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Spin-chain state transfer with instantaneous local interruptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="free-transfer fidelity grid")
    _add_chain_flags(p)
    _add_grid_flags(p, tmax=50.0, dt=0.25)
    p.add_argument("--alpha2", type=float, default=None,
                   help="|alpha|^2 of the encoded state; omit for the Bloch average")
    _add_common_flags(p, "fidelity.csv")

    p = sub.add_parser("qdp-diff", help="fidelity change from a mid-evolution measurement")
    _add_chain_flags(p)
    _add_grid_flags(p, tmax=50.0, dt=0.25)
    _add_qdp_flags(p, site=20, t0=10.0)
    _add_common_flags(p, "qdp_diff.csv")

    p = sub.add_parser("unitary-qdp", help="fidelity grid with a mid-evolution local gate")
    _add_chain_flags(p, boundary_default="closed")
    _add_grid_flags(p, tmax=30.0, dt=0.25)
    _add_qdp_flags(p, site=15, t0=7.5)
    _add_gate_flags(p)
    p.add_argument("--diff", action="store_true", help="emit the change against free evolution")
    _add_common_flags(p, "unitary_qdp.csv")

    p = sub.add_parser("two-magnon-split", help="pair-channel fidelity contribution by part")
    _add_chain_flags(p, boundary_default="closed")
    _add_grid_flags(p, tmax=30.0, dt=0.25)
    _add_qdp_flags(p, site=10, t0=5.0)
    _add_gate_flags(p)
    p.add_argument("--part", choices=("bound", "scattering", "total"), default="scattering")
    _add_common_flags(p, "two_magnon_split.csv")

    p = sub.add_parser("harper", help="kicked-chain transfer fidelity grid")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--boundary", choices=("open", "closed"), default="open")
    _add_harper_flags(p)
    p.add_argument("--alpha2", type=float, default=None,
                   help="|alpha|^2 of the encoded state; omit for the Bloch average")
    _add_common_flags(p, "harper.csv")

    p = sub.add_parser("detector", help="occupation-difference profile after a measurement")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--boundary", choices=("open", "closed"), default="open")
    _add_harper_flags(p)
    p.add_argument("--qdp-site", type=int, default=1, help="measured site")
    p.add_argument("--qdp-kick", type=int, default=5, help="kick count at measurement")
    p.add_argument("--alpha2", type=float, default=0.5)
    _add_common_flags(p, "detector.csv")

    p = sub.add_parser("oracle-check", help="cross-validate against dense matrix evolution")
    p.add_argument("--n", type=int, default=12)
    _add_common_flags(p, "oracle_check.json")
    p.add_argument("--tol", type=float, default=None, help="tolerance override for the checks")

    p = sub.add_parser("calibrate", help="verify propagator conventions against dense evolution")
    p.add_argument("--n", type=int, default=12)
    _add_common_flags(p, "calibration.json")
    p.add_argument("--tol", type=float, default=None, help="tolerance override for the checks")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main()`` call, built on the first; nothing may change it."""
    return build_parser()


# --------------------------------------------------------------------------
# Config file support
# --------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines ('#' comments); an unreadable file or a repeated key raises."""
    entries: dict[str, str] = {}
    try:
        text = pathlib.Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is given twice")
        entries[key] = value
    return entries


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; when --config names a file, use it for defaults (flags win).

    ``parser`` is shared by every call and only read: the file's values become
    defaults of a private ``build_parser()`` made for this call, never of a later one.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    entries = _parse_config_file(args.config)
    subparser = _subparser_for(parser, args.command)
    # --help and --config are flags, but a config file cannot set them
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in entries.items():
        if key == "command":
            raise ValueError(f"{args.config}: config files cannot change the subcommand")
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{args.config}: config key {key!r} sets no flag of {args.command!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in _TRUE_WORDS + _FALSE_WORDS:
                raise ValueError(
                    f"{args.config}: config key {key!r} takes one of {_TRUE_WORDS + _FALSE_WORDS}"
                )
            defaults[key] = value.lower() in _TRUE_WORDS
        else:
            try:
                converted = action.type(value) if action.type is not None else value
            except ValueError:
                raise ValueError(
                    f"{args.config}: config key {key!r}: {value!r} is not a valid "
                    f"{action.type.__name__}"
                ) from None
            if action.choices is not None and converted not in action.choices:
                raise ValueError(
                    f"{args.config}: config key {key!r} takes one of {tuple(action.choices)}"
                )
            defaults[key] = converted
    private = build_parser()
    _subparser_for(private, args.command).set_defaults(**defaults)
    return private.parse_args(argv)


def _subparser_for(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise ValueError(f"no subcommand {command!r}")


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _write_outputs(args: argparse.Namespace, chunks: Iterable, meta: dict) -> None:
    """Write the output, given as bytes-like chunks, and its sidecar, both or neither.

    Each goes to a temporary file beside its name first, the output one chunk
    at a time as ``chunks`` yields them, so that no more of its text than a
    chunk need be held. Only when both are complete are they renamed onto
    their names. A rename within one directory fails only onto a directory,
    so both names are checked for that before the first rename. On any
    failure, a chunk that cannot be made or written included, the temporary
    files are removed and the old outputs stay as they were. A name that is
    a symlink is written through, onto its target, as ``open`` writes it; a
    rename would replace the link itself.
    """
    out = pathlib.Path(args.out)
    sidecar = out.with_name(out.name + ".meta.json")
    meta_text = (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()
    files = [(pathlib.Path(os.path.realpath(path)) if path.is_symlink() else path, parts)
             for path, parts in ((out, chunks), (sidecar, (meta_text,)))]
    staged = []
    try:
        for path, parts in files:
            staged.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            with open(staged[-1], "wb") as stream:
                stream.writelines(parts)
        for path, _ in files:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for (path, _), tmp in zip(files, staged):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {out} and {sidecar}")


def _metadata(args: argparse.Namespace, extra: dict | None = None) -> dict:
    """Deterministic sidecar: parameter echo, conventions, package version."""
    skip = {"out", "config", "threads", "command"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    meta = {
        "command": args.command,
        "parameters": params,
        "conventions": {
            "fingerprint": conventions_hash(),
            "entries": CONVENTIONS,
            "csv_format": _CSV_FORMAT,
        },
        "format_version": 1,
        "package_version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def _chain_spec(args: argparse.Namespace) -> ChainSpec:
    return ChainSpec(args.n, args.boundary, args.j, args.delta)


def _check_grid_size(sites: int, times: float) -> None:
    """Refuse a grid above MAX_GRID_CELLS; ``times`` may be a float, even inf."""
    if sites * times > MAX_GRID_CELLS:
        raise ValueError(f"grid of {sites} x {times:.4g} cells is over {MAX_GRID_CELLS}")


def _grid_axes(args: argparse.Namespace) -> tuple[list[int], np.ndarray, dict]:
    """Site and time axes, the times as a float64 array, and the sidecar's grid block."""
    lmax = args.lmax if args.lmax is not None else args.n
    if not 1 <= args.lmin <= lmax <= args.n:
        raise ValueError(f"need 1 <= lmin <= lmax <= n, got {args.lmin}..{lmax} on n={args.n}")
    if not all(math.isfinite(v) for v in (args.tmin, args.tmax, args.dt)):
        raise ValueError("tmin, tmax and dt must be finite")
    if args.dt <= 0 or args.tmax < args.tmin:
        raise ValueError("need dt > 0 and tmax >= tmin")
    steps = (args.tmax - args.tmin) / args.dt
    # every row is computed over all n sites, whatever part of it is kept
    _check_grid_size(args.n, steps + 1)
    ls, count = list(range(args.lmin, lmax + 1)), int(steps + 1e-9) + 1
    ts = np.fromiter((round(args.tmin + k * args.dt, 12) for k in range(count)), float, count)
    return ls, ts, {"l": [ls[0], ls[-1]], "t": [float(ts[0]), float(ts[-1])], "dt": args.dt}


def _check_pair_time(spec: ChainSpec, gate: LocalGate, t: float) -> None:
    """Refuse a grid's last time t where a flipping gate's pair evolution would refuse it.

    Run before any file is opened, as ``green1.propagator_argument`` is for one-magnon rows.
    """
    if gate.delta != 0.0 and t >= gate.t0:
        _check_evolution(t - gate.t0, "total", spec)


def _site_and_t0(args: argparse.Namespace) -> None:
    """Refuse a --site outside 1..n and a non-finite or negative --t0."""
    if not 1 <= args.site <= args.n:
        raise ValueError(f"need 1 <= site <= n, got site {args.site} on n={args.n}")
    if not (args.t0 >= 0.0 and math.isfinite(args.t0)):
        raise ValueError(f"t0 must be finite and >= 0, got {args.t0}")


def _gate(args: argparse.Namespace) -> LocalGate:
    """The gate of the gate flags, at --site and --t0."""
    _site_and_t0(args)
    delta = args.delta_abs * cmath.exp(1j * args.delta_phase)
    return LocalGate(args.site, args.t0, complex(args.gamma_abs), delta)


def _initial(alpha2: float | None) -> InitialState | None:
    if alpha2 is None:
        return None
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"|alpha|^2 must lie in [0, 1], got {alpha2}")
    return InitialState(math.sqrt(alpha2), math.sqrt(1.0 - alpha2))


# --------------------------------------------------------------------------
# Grid subcommands
# --------------------------------------------------------------------------


def _write_grid(args: argparse.Namespace, ls, ts, blocks, grid_meta: dict, lo: float = 0.0) -> int:
    """Write ``grid_csv`` of ``blocks`` as the CSV, with ``grid_meta`` as the sidecar's grid block."""
    _write_outputs(args, grid_csv(ls, ts, blocks, lo), _metadata(args, {"grid": grid_meta}))
    return EXIT_OK


def _run_fidelity(args: argparse.Namespace) -> int:
    spec, initial = _chain_spec(args), _initial(args.alpha2)
    ls, ts, grid_meta = _grid_axes(args)
    propagator_argument(ts[-1], spec)  # the rows' time check, before any file is opened
    blocks = (fidelity_from_amplitudes(u, initial) for u in SpinChain(spec).rows(1, ts))
    return _write_grid(args, ls, ts, blocks, grid_meta)


def _run_qdp_diff(args: argparse.Namespace) -> int:
    """The measurement's fidelity change: zero before --t0, then the measured stream's."""
    spec = _chain_spec(args)
    _site_and_t0(args)
    ls, ts, grid_meta = _grid_axes(args)
    cut, zeros = np.searchsorted(ts, args.t0), np.zeros(args.n)
    if cut < len(ts):  # rows are computed only from --t0 on
        propagator_argument(ts[-1], spec)
    blocks = itertools.chain(
        row_blocks(lambda t: zeros, ts[:cut], args.n),
        fidelity_change(measured(SpinChain(spec), args.site, args.t0, ts[cut:])),
    )
    return _write_grid(args, ls, ts, blocks, grid_meta, lo=-1.0)


def _run_unitary_qdp(args: argparse.Namespace) -> int:
    """Gated fidelity, or with --diff its change against free evolution (0 before t0)."""
    spec, gate = _chain_spec(args), _gate(args)
    ls, ts, grid_meta = _grid_axes(args)
    engine = UnitaryQdpEngine(spec, gate)
    propagator_argument(ts[-1], spec)
    _check_pair_time(spec, gate, ts[-1])
    zeros = np.zeros(args.n)

    def row(t: float) -> np.ndarray:
        if t < gate.t0:
            return zeros if args.diff else fidelity_from_amplitudes(reduced_profile(1, t, spec))
        return engine._change_row(t) if args.diff else engine.fidelity_row(t)

    lo = -1.0 if args.diff else 0.0
    return _write_grid(args, ls, ts, row_blocks(row, ts, args.n), grid_meta, lo)


def _run_two_magnon_split(args: argparse.Namespace) -> int:
    spec, gate = _chain_spec(args), _gate(args)
    ls, ts, grid_meta = _grid_axes(args)
    engine = UnitaryQdpEngine(spec, gate)
    _check_pair_time(spec, gate, ts[-1])
    zeros = np.zeros(args.n)
    rows = row_blocks(lambda t: engine.split_row(t, args.part) if t >= gate.t0 else zeros, ts,
                      args.n)
    return _write_grid(args, ls, ts, rows, grid_meta)


def _harper_spec(args: argparse.Namespace) -> HarperSpec:
    return HarperSpec(args.n, args.g, args.tau, eta=args.eta, boundary=args.boundary)


def _run_harper(args: argparse.Namespace) -> int:
    spec = _harper_spec(args)
    if args.kicks < 0:
        raise ValueError("kick count must be >= 0")
    _check_grid_size(spec.n, args.kicks + 1)
    initial = _initial(args.alpha2)
    kicks = range(args.kicks + 1)
    blocks = (fidelity_from_amplitudes(u, initial) for u in KickedChain(spec).rows(1, kicks))
    grid_meta = {"l": [1, spec.n], "kicks": args.kicks, "dt": spec.tau}
    return _write_grid(args, range(1, spec.n + 1), [n * spec.tau for n in kicks], blocks, grid_meta)


def _run_detector(args: argparse.Namespace) -> int:
    spec = _harper_spec(args)
    if not 1 <= args.qdp_site <= spec.n:
        raise ValueError(f"need 1 <= qdp-site <= n, got qdp-site {args.qdp_site} on n={spec.n}")
    if not 0 <= args.qdp_kick <= args.kicks:
        raise ValueError("need 0 <= qdp-kick <= kicks")
    # every kick from 0 is stepped, not only the kicks read out
    _check_grid_size(spec.n, args.kicks + 1)
    initial = _initial(args.alpha2)
    if initial is None:
        raise ValueError("the detector needs a definite encoded state (--alpha2)")
    kicks = range(args.qdp_kick, args.kicks + 1)
    stream = measured(KickedChain(spec), args.qdp_site, args.qdp_kick, kicks)
    grid_meta = {"l": [1, spec.n], "kicks": [args.qdp_kick, args.kicks], "dt": spec.tau}
    return _write_grid(args, range(1, spec.n + 1), [n * spec.tau for n in kicks],
                       occupation_change(stream, initial), grid_meta, lo=-1.0)


# --------------------------------------------------------------------------
# Validation subcommands
# --------------------------------------------------------------------------


def _tolerance(args: argparse.Namespace, default: float) -> float:
    """--tol, or the check's default; refused unless finite and > 0."""
    tol = args.tol if args.tol is not None else default
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got tol = {tol}")
    return tol


def _record(report: dict, failures: list, name: str, worst: float, bound: float) -> None:
    """Enter one check's worst error and tolerance in the report, print its verdict."""
    ok = bool(worst <= bound)
    report[name] = {"worst": float(worst), "tolerance": float(bound), "pass": ok}
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {worst:.3e} (tolerance {bound:.1e})")
    if not ok:
        failures.append(name)


def _splitting_samples(n: int) -> list[tuple[complex, complex, complex]]:
    """(h, k, g) of the splitting check's samples: 100 per boundary, drawn from default_rng(7).

    Each sample draws a measured site m, a target l and times t0 <= t. h and
    k are the full-phase survive and collapse amplitudes from site 1 to l
    of a measurement at m, time t0, and g the free amplitude g(1 -> l; t).
    h is the literal intermediate-site sum over y'' != m of
    g(1 -> y''; t0) g(l -> y''; t - t0), not g - k, so h + k = g is a real
    composition test. A boundary's rows come from three batched
    ``free_propagator`` calls; oracle-check's chains are shorter than
    HALF_INFINITE_MIN_N, so these are the rows of ``reduced_profile``.
    """
    rng = np.random.default_rng(7)
    sites = np.arange(1, n + 1)
    samples = []
    for boundary in ("open", "closed"):
        spec = ChainSpec(n, boundary, 0.5, 1.0)
        draws = []
        for _ in range(100):
            m = int(rng.integers(1, n + 1))
            l = int(rng.integers(1, n + 1))
            t0 = float(rng.uniform(0.0, 3.0))
            draws.append((m, l, t0, t0 + float(rng.uniform(0.0, 3.0))))
        m, l, t0, t = (np.array(column) for column in zip(*draws))
        scale, ones = 4.0 * spec.j, np.ones_like(m)
        first = free_propagator(n, boundary, scale * t0, ones)
        second = free_propagator(n, boundary, scale * (t - t0), l)  # = g(y'' -> l) by symmetry
        free = free_propagator(n, boundary, scale * t, ones)
        h_red = (first * second)[sites != m[:, np.newaxis]].reshape(len(m), n - 1).sum(axis=1)
        for i, (m_i, l_i, _, t_i) in enumerate(draws):
            # scalar products: the array forms can round differently in the last bit
            phase = reduced_phase(spec, t_i)
            k_red = first[i, m_i - 1] * second[i, m_i - 1]
            samples.append(
                (complex(phase * h_red[i]), complex(phase * k_red), phase * free[i, l_i - 1])
            )
    return samples


def _run_oracle_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args, 1e-9)
    n = args.n
    # the gate check needs a two-magnon ring and a dense pair sector
    if not 3 <= n <= oracle.MAX_PAIR_N:
        raise ValueError(f"oracle-check needs 3 <= n <= {oracle.MAX_PAIR_N}, got n={n}")
    report: dict[str, dict] = {}
    failures = []

    # Propagator splitting: survive + collapse amplitudes reassemble free motion.
    worst = 0.0
    for h, k, g in _splitting_samples(n):
        worst = max(worst, abs(h + k - g))
    _record(report, failures, "splitting identity", worst, tol)

    # Measurement protocol against its two dense branches, each evolved exactly.
    spec = ChainSpec(n, "open", 0.5, 1.0)
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")
    worst = 0.0
    m, t0, t = max(1, n // 2), 1.0, 2.5
    for alpha2 in (1.0, 0.5, 0.0):
        initial = _initial(alpha2)
        state = oracle.encoded_state(initial.alpha, initial.beta, ham.basis)
        mid = oracle.evolve(state, ham, t0)
        branches = [oracle.evolve(oracle.apply_local(p, m, mid), ham, t - t0) for p in ("p0", "p1")]
        ((g, k),) = measured(SpinChain(spec), m, t0, [t])
        x, y = _rdm_row(*_projective_parts(g[0], k[0]), initial)
        for l in (1, m, n):
            x_caught, y_caught = map(sum, zip(*(oracle.rdm_site(b, l) for b in branches)))
            worst = max(worst, abs(x[l - 1] - x_caught), abs(y[l - 1] - y_caught))
    _record(report, failures, "measurement protocol vs dense evolution", worst, tol)

    # Gate protocol on the ring against dense evolution in the paired sector.
    spec = ChainSpec(n, "closed", 0.5, 1.0)
    ham = oracle.build_hamiltonian(spec, "vacuum_one_two")
    y1, y2 = ham.basis.pairs.T - 1  # 0-based sites of each pair, in basis order
    worst = 0.0
    for amplitudes in ((1 / math.sqrt(2), 1 / math.sqrt(2)), (0.0, 1.0)):
        gate = LocalGate(max(1, n // 3), 1.5, *amplitudes)
        initial = InitialState(math.sqrt(0.3), math.sqrt(0.7))
        state = oracle.encoded_state(initial.alpha, initial.beta, ham.basis)
        gated = oracle.apply_local(amplitudes, gate.m, oracle.evolve(state, ham, gate.t0))
        final = oracle.evolve(gated, ham, 3.0 - gate.t0).vector
        mine = UnitaryQdpEngine(spec, gate).state(3.0, initial)
        # the sector lists the vacuum, then the n one-magnon configs, then the pairs
        errors = np.concatenate(([mine.vacuum], mine.one_magnon, mine.two_magnon[y1, y2])) - final
        # hypot rounds as a scalar's abs does; the array abs can differ in the last bit
        worst = max(worst, float(np.max(np.hypot(errors.real, errors.imag))))
    _record(report, failures, "gate protocol vs dense evolution", worst, tol)

    # Paired-band census on a 20-site ring.
    result = oracle.bound_band_projector(ChainSpec(20, "closed", 0.5, 1.0))
    ok = bool(17 <= result.count <= 20)
    report["paired-band census"] = {
        "count": int(result.count),
        "window": [17, 20],
        "pass": ok,
    }
    print(f"{'ok  ' if ok else 'FAIL'} paired-band census: {result.count} states (expected 17..20)")
    if not ok:
        failures.append("paired-band census")

    meta = _metadata(args, {"report": report})
    _write_outputs(args, ((json.dumps(report, sort_keys=True, indent=2) + "\n").encode(),), meta)
    if failures:
        raise CheckFailure(f"{len(failures)} oracle check(s) failed: {', '.join(failures)}")
    return EXIT_OK


def _run_calibrate(args: argparse.Namespace) -> int:
    """Compare the one-magnon propagator against dense one-excitation evolution.

    It is checked at the requested size and at no fewer than
    HALF_INFINITE_MIN_N sites, where open chains are half-infinite: there the
    front stays well short of the far end.
    """
    tol = _tolerance(args, 1e-10)
    # refused before the smaller sizes are built and evolved
    if args.n > oracle.MAX_ONE_N:
        raise ValueError(f"dense check limited to n <= {oracle.MAX_ONE_N}, got n = {args.n}")
    report: dict[str, dict] = {}
    failures = []
    for n in sorted({args.n, max(args.n, HALF_INFINITE_MIN_N)}):
        for boundary in ("open", "closed"):
            spec = ChainSpec(n, boundary, 0.5, 1.0)
            ham = oracle.build_hamiltonian(spec, "one_excitation")
            seed = oracle.DenseState(np.zeros(n, dtype=complex), ham.basis)
            seed.vector[0] = 1.0
            worst = 0.0
            for t in (0.7, 2.3, 5.0):
                dense = oracle.evolve(seed, ham, t).vector
                mine = reduced_phase(spec, t) * reduced_profile(1, t, spec)
                worst = max(worst, float(np.max(np.abs(mine - dense))))
            _record(report, failures, f"one-magnon propagator ({boundary}, n={n})", worst, tol)
    print(f"conventions fingerprint: {conventions_hash()}")
    meta = _metadata(args, {"report": report})
    _write_outputs(args, ((json.dumps(report, sort_keys=True, indent=2) + "\n").encode(),), meta)
    if failures:
        raise CheckFailure(f"calibration failed for: {', '.join(failures)}")
    return EXIT_OK


_RUNNERS = {
    "fidelity": _run_fidelity,
    "qdp-diff": _run_qdp_diff,
    "unitary-qdp": _run_unitary_qdp,
    "two-magnon-split": _run_two_magnon_split,
    "harper": _run_harper,
    "detector": _run_detector,
    "oracle-check": _run_oracle_check,
    "calibrate": _run_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _apply_config(_shared_parser(), sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _RUNNERS[args.command](args)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
