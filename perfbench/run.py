"""spinchain benchmark: README commands and line kernels, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py for the exact commands):

* open-line     fidelity and qdp-diff on the 100-site open chain to t = 60
                (24 200 cells): Bessel, green1 and the grid cell loop.
* ring-gate     unitary-qdp (plain and --diff --threads 2), two-magnon-split
                on the 100-site ring, one unitary-qdp time on 200 sites:
                ring two-magnon builds and evolution.
* dense-kernels harper, detector, oracle-check, calibrate (small dense
                linear algebra where per-call overhead dominates) and 21
                green2 values on the infinite line (the quadrature tables
                no CLI command reaches).

BENCHMARK.json lists ring-gate and dense-kernels. open-line stays runnable
here but is not listed: its outputs are wrong, not slow. From t = 37 on, the
auto route's single-image Bessel form misses the oracle on the open chain
(2 242 of 24 200 cells per pass at seed 0), so every run of it reports
"correct": false until that route is made exact.

The load is a closed loop with one client running one command at a time.
A run starts a few fresh worker processes (worker.py) one after another;
each imports spinchain, runs one cold pass, then warm passes for its share
of --seconds. Eight more fresh processes time only the import and then the
yardstick (see below). BLAS is
pinned to one thread in every process this script starts, so that busy
threads stay within two even under ``--threads 2``; the pin is reported
and is the same for every commit.

With --trace 0 the result carries the end-to-end metrics:

    setup_s   median time to import spinchain.cli and numpy, fresh processes
    cold_s    median first pass of a fresh worker, right after the import
    pass_s    median wall time of a warm pass, over all workers
    peak_mb   peak resident memory of a worker process
    ok_frac   share of checked output values that are right (1 - failed_frac)

setup_s, cold_s and pass_s are scaled for the host's speed. On a shared
host that speed drifts by tens of percent over minutes, more than any bound a
regression check can use. So each worker also times a fixed yardstick
(worker.yardstick, no spinchain code) before and after every pass, and each
import probe times it once right after the import. Every import and pass time
is multiplied by YARDSTICK_REF_S over the median yardstick time of its own
process: a median, because one yardstick time alone varies by about 10 %;
one process, because a worker lasts well under a minute, shorter than the
host's slow phases. A program change moves the scaled times as
it moves the raw ones; a change of host speed moves mostly the raw ones. The
raw times are printed too.

With --trace 1 a run starts no import probe and one worker, which after its
untraced passes wraps every layer's public functions (tracer.py) and runs two
traced passes; the result carries the per-layer
metrics of the second, after checking that every count repeats exactly and
that each command's layer self times sum to its wall time.

Every output value is checked against a reference (refs.py) in this
process, after the workers have exited. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. --smoke runs every
workload at tiny sizes, with one worker and one import probe, through the
same code.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBES = 8
# Timed passes are scaled to a host on which worker.yardstick takes this long.
YARDSTICK_REF_S = 0.17  # about its median on the 2-vCPU host the bounds were set on
WORKER_TIMEOUT_S = 150  # the whole run must end within 180 s
# One BLAS thread in every process the benchmark starts.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "pass_s": "s",
    "peak_mb": "MB",
    "ok_frac": "1",
}

_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import spinchain.cli; s = time.perf_counter() - t; "
    "import worker; print(s, worker.yardstick())"
)


def _environment() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe(env: dict) -> tuple[float, float]:
    """Import time in a fresh process, and the yardstick timed right after it."""
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(HERE)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    setup, yard = done.stdout.split()[-2:]
    return float(setup), float(yard)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10, help="warm-pass budget; 0 runs one warm pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one import probe")
    args = p.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        p.error("--seconds and --seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinchain" / "cli.py").is_file():
        print(f"error: no spinchain sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.smoke)
    env = _environment()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    out_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch_root))
    # A traced run reports no end-to-end metric, so one worker serves it; each
    # worker's budget is the same as in an untraced run.
    fresh = 1 if args.smoke or args.trace else wl.fresh_processes
    budget = args.seconds / wl.fresh_processes
    probe_count = 0 if args.trace else 1 if args.smoke else IMPORT_PROBES
    try:
        probes = [import_probe(env) for _ in range(probe_count)]
        results, files = [], {}
        for k in range(fresh):
            work_dir = out_dir / f"worker{k}"
            work_dir.mkdir()
            worker = [sys.executable, str(HERE / "worker.py"), str(work_dir), wl.name,
                      str(args.seed), str(int(args.smoke)), str(budget), str(args.trace)]
            done = subprocess.run(worker, env=env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"error: worker exited {done.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads((work_dir / "result.json").read_text()))
            files.update({d: work_dir / p for d, p in results[-1]["files"].items()})
        probes += [(r["setup_s"], statistics.median(r["yardstick"])) for r in results]
        setups_raw = [s for s, _ in probes]
        setups = [s * YARDSTICK_REF_S / y for s, y in probes]

        sys.path.insert(0, str(SRC))
        import refs

        checker = refs.Checker(wl, files)
        records = [p for r in results for p in r["passes"] + r["traced"]]
        per_pass = wl.ops_per_pass()
        attempted = per_pass * len(records)
        failed = sum(checker.failed_ops(r) for r in records)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if scratch_root.exists() and not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    result = results[-1]
    colds, warm, colds_raw, warm_raw = [], [], [], []
    for r in results:
        speed = statistics.median(r["yardstick"])
        walls = [p["wall"] for p in r["passes"]]
        scaled = [w * YARDSTICK_REF_S / speed for w in walls]
        colds.append(scaled[0])
        warm += scaled[1:]
        colds_raw.append(walls[0])
        warm_raw += walls[1:]
    problems = [p for r in result["traced"] for p in r["problems"]]
    env_line = dict(result["env"], blas_pinned_by_benchmark=PINNED["OPENBLAS_NUM_THREADS"])
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''} params={json.dumps(wl.params, sort_keys=True)}")
    print(f"environment {json.dumps(env_line, sort_keys=True)}")
    print(f"passes: {len(colds)} cold + {len(warm)} warm + {len(result['traced'])} traced;"
          f" {per_pass} ops per pass")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6f}")

    if args.trace:
        first, second = (r["metrics"] for r in result["traced"])
        for name in tracing.COUNTS:
            if first[name] != second[name]:
                problems.append(f"{name} differs between traced passes: {first[name]} vs {second[name]}")
        untraced = statistics.median(warm_raw)
        traced = result["traced"][1]["wall"]
        metrics = dict(second, **{"trace.pass_s": traced, "trace.overhead": traced / untraced})
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
        print(f"tracing: {result['wrapped']} functions wrapped; traced pass {traced:.3f} s"
              f" against untraced median {untraced:.3f} s")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(colds),
            "pass_s": statistics.median(warm),
            "peak_mb": max(r["peak_mb"] for r in results),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
        for label, values in (("raw", setups_raw), ("scaled", setups)):
            print(f"setup_s over {len(values)} fresh imports, {label}: "
                  + " ".join(f"{s:.4f}" for s in sorted(values)))
        yards = [y for r in results for y in r["yardstick"]]
        print(f"yardstick over {len(yards)} timings: median {statistics.median(yards):.4f} s"
              f" against {YARDSTICK_REF_S} s for scaled times")
        for name, scaled, raw in (("cold_s", colds, colds_raw), ("pass_s", warm, warm_raw)):
            print(f"{name} over {len(raw)} passes, raw: " + " ".join(f"{w:.3f}" for w in raw))
            print(f"{name} over {len(raw)} passes, scaled: " + " ".join(f"{w:.3f}" for w in scaled))
    for problem in problems:
        print(f"self-check failed: {problem}")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
