"""One fresh process of a benchmark run: import, a cold pass, warm passes.

Usage: python3 worker.py OUT_DIR WORKLOAD SEED SMOKE SECONDS TRACE

Started by run.py with BLAS pinned to one thread. It times the import of
spinchain, one cold pass, then warm passes within a budget of SECONDS (at
least one), and the yardstick before and after every pass. With TRACE=1 it
then wraps the layers and runs two traced passes. It writes
OUT_DIR/result.json; checking the outputs is left to run.py, outside this
process.
"""
from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (no numpy here: the timed import stays whole)


class Runner:
    def __init__(self, workload: workloads.Workload, out_dir: pathlib.Path):
        self.workload = workload
        self.out_dir = out_dir
        self.first_file: dict[str, str] = {}  # digest -> path of its first copy

    def run_pass(self, label: str) -> dict:
        import spinchain.cli
        import spinchain.green2
        from spinchain.chain import ChainSpec

        wl = self.workload
        pass_dir = self.out_dir / label
        pass_dir.mkdir()
        outs = [pass_dir / (c.key + c.suffix) for c in wl.commands]
        codes, values = [], []
        start = time.perf_counter()
        for command, out in zip(wl.commands, outs):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(spinchain.cli.main([*command.argv, "--out", str(out)]))
        if wl.kernel_calls:
            spec = ChainSpec(*wl.line_spec)
            for s1, s2, d1, d2, t in wl.kernel_calls:
                values.append(spinchain.green2.green2(s1, s2, d1, d2, t, spec).value)
        wall = time.perf_counter() - start
        written = sum(p.stat().st_size for p in pass_dir.iterdir())
        return {
            "label": label,
            "wall": wall,
            "codes": codes,
            "bytes": written,
            "digests": [self._keep_once(out) for out in outs],
            "values": [[v.real, v.imag] for v in values],
        }

    def _keep_once(self, out: pathlib.Path) -> str | None:
        """Digest of an output; only the first file with each digest is kept."""
        if not out.exists():
            return None
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest in self.first_file:
            out.unlink()
        else:
            self.first_file[digest] = str(out.relative_to(self.out_dir))
        return digest


def yardstick() -> float:
    """Wall time of a fixed piece of work, to measure the host's current speed.

    The mix resembles the program's: an interpreter loop, many small numpy
    calls and float formatting. It uses no spinchain code, so no program
    change can move it, and no numpy part that importing spinchain does not
    already load, so it adds nothing to peak_mb.
    """
    import numpy as np

    vec = np.linspace(0.0, 1.0, 100)
    grid = np.linspace(0.0, 1.0, 60_000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(600_000):
        acc += (i % 7) * 0.5
    for _ in range(12_000):
        vec = np.cos(vec * 1.0001) + 0.5
    for x in grid:  # one string at a time, never all of them
        f"{x:.11e}"
    return time.perf_counter() - start


def blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    # Runtime thread count from the OpenBLAS that numpy loaded, when it
    # exposes the query.
    import ctypes

    libdir = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                return info
    return info


def main(argv: list[str]) -> int:
    out_dir, name, seed, smoke, seconds, trace = argv
    out_dir = pathlib.Path(out_dir)
    workload = workloads.build(name, int(seed), smoke == "1")

    start = time.perf_counter()
    import spinchain.cli  # noqa: F401  (the numpy stack comes with it)
    setup_s = time.perf_counter() - start

    runner = Runner(workload, out_dir)
    # The yardstick runs before the cold pass and after every pass. It
    # touches nothing spinchain initialises lazily, so the cold pass after it
    # still meets every first-call cost itself.
    yard = [yardstick()]
    passes = [runner.run_pass("cold")]
    yard.append(yardstick())
    # Warm passes fill the budget without overrunning it: a pass starts only
    # if one more like the last still ends within it. At least one runs.
    deadline = time.perf_counter() + float(seconds)
    while len(passes) < 2 or time.perf_counter() + passes[-1]["wall"] <= deadline:
        passes.append(runner.run_pass(f"warm{len(passes)}"))
        yard.append(yardstick())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "yardstick": yard,
        "peak_mb": peak_mb,
        "files": runner.first_file,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas_info(),
            "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "traced": [],
    }
    if trace == "1":
        import tracer as tracing

        # Built before wrapping, so that resolving a harper command's kick
        # count (the CLI default included) records no span.
        parser = spinchain.cli.build_parser()

        def kicks(command: tuple[str, ...]) -> int:
            return parser.parse_args(list(command)).kicks

        tracer = tracing.Tracer()
        result["wrapped"] = tracer.install()
        for k in range(2):
            record = runner.run_pass(f"traced{k}")
            metrics, problems = tracing.layer_metrics(tracer.take(), kicks)
            metrics["cli.bytes_written"] = record["bytes"]
            record.update(metrics=metrics, problems=problems)
            result["traced"].append(record)
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
