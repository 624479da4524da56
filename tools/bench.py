"""Benchmark a parent revision against the working tree, in pairs: BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench.py --parent REV --out BENCH_<pr>.json --note "what the change does"

The parent is exported with ``git archive REV`` into a temporary directory;
the change is the working tree, uncommitted edits included, copied into
another (the files git tracks or would track, as they are on disk). For each
workload listed in ``BENCHMARK.json`` the script runs

    python3 perfbench/run.py --workload W --seed k --seconds 5

in each tree for pairs k = 0..9, the ten pairs and the 5 s warm-pass
budget that every ``BENCH_<pr>.json`` reports. Even pairs run the parent
first, odd pairs the change first. Each tree's run uses its own ``perfbench/`` and ``src/``.
Neither copy holds a ``__pycache__``, and every run gets
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their own modules at
every start: bytecode left in the working tree would shorten one side's
start-up only. (A fresh ``PYTHONPYCACHEPREFIX`` would do the same for the
interpreter's and numpy's modules too, and lift ``setup_s`` from about 0.15
to 0.58 s.)
The script refuses a parent whose tracked files equal the working tree's.

The output holds, per workload, the ``correct`` flag of every run and, per
end-to-end metric of ``BENCHMARK.json``, both sides' runs, median, quartiles
(``statistics.quantiles``, exclusive method), min and max; the number of
pairs the change wins (ties count for neither); the parent's interquartile
range; the change of the median; and the verdict against the metric's
``bound``, read as a fraction of the parent's median (``allowed``, in the
metric's unit): ``within_bound`` (the change's median is worse by at most
``allowed``) and ``unresolved`` (either side's interquartile range is wider
than ``allowed``, so the runs cannot tell, unless every change run beats
every parent run). It also keeps every distinct ``environment`` line the
runs print (CPU count, numpy, BLAS and its thread count). Exits 1 if a run
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
PAIRS = 10
SECONDS = 5


def export(rev: str, dest: pathlib.Path) -> str:
    """Write the files of ``rev`` into dest; returns its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def copy_working_tree(dest: pathlib.Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: pathlib.Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The final JSON line and the environment line of one perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(median, 4), "min": round(min(runs), 4), "max": round(max(runs), 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(v, 4) for v in runs]}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's runs on both sides, and the verdict against bound x the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    allowed = bound * abs(statistics.median(parent))
    worse = sign * (statistics.median(change) - statistics.median(parent))
    iqr = max(q3 - q1 for q1, _, q3 in (statistics.quantiles(parent, n=4),
                                         statistics.quantiles(change, n=4)))
    separated = max(sign * v for v in change) < min(sign * v for v in parent)
    return {"parent": p, "change": c, "better": better, f"change_wins_of_{len(parent)}": wins,
            "parent_iqr": round(p["q3"] - p["q1"], 4),
            "median_change": round(c["median"] - p["median"], 4),
            "allowed": round(allowed, 4), "within_bound": worse <= allowed,
            "unresolved": iqr > allowed and not separated}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--out", type=pathlib.Path, required=True, help="BENCH_<pr>.json to write")
    ap.add_argument("--note", default="", help="one line on what the change does")
    args = ap.parse_args(argv)
    same = subprocess.run(["git", "diff", "--quiet", args.parent], cwd=ROOT)
    if same.returncode == 0:
        ap.error(f"the working tree's tracked files equal {args.parent}; nothing to compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-trees-") as tmp:
        trees = {"parent": pathlib.Path(tmp) / "parent", "change": pathlib.Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        sha = export(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        workloads, environments = {}, []
        for wl in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    last, env = run_once(trees[side], wl, k)
                    runs[side].append(last)
                    if env not in environments:
                        environments.append(env)
                    values = {m: round(v["value"], 4) for m, v in last["metrics"].items()}
                    print(f"{wl} pair {k} {side}: correct={last['correct']} {values}", flush=True)
            workloads[wl] = {
                "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
                "metrics": {
                    m: compare([r["metrics"][m]["value"] for r in runs["parent"]],
                               [r["metrics"][m]["value"] for r in runs["change"]], better, bound)
                    for m, (better, bound) in metrics.items()
                },
            }

    record = {
        "benchmark": f"perfbench/run.py --seed <pair index> --seconds {SECONDS}",
        "host": f"{os.cpu_count()} CPU {platform.system()}",
        "environment": environments,
        "pairs": PAIRS,
        "order": "alternating: even pairs run the parent first, odd pairs the change first",
        "parent": sha,
        "change": args.note,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, data in workloads.items():
        for m, cmp in data["metrics"].items():
            wins = cmp[f"change_wins_of_{PAIRS}"]
            print(f"{wl:14s} {m:8s} {cmp['parent']['median']:10.4f} ->"
                  f" {cmp['change']['median']:10.4f}  parent IQR {cmp['parent_iqr']:.4f}"
                  f"  change wins {wins}/{PAIRS}  within bound {cmp['within_bound']}"
                  f"  unresolved {cmp['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
