"""Freeze the seed outputs of the workloads the dense oracle cannot check.

Usage, from the repository root: python3 perfbench/freeze_refs.py

Runs the ring-gate and dense-kernels grid commands once at seed 0, at full
and at smoke size, and stores each grid's value column in
perfbench/refs/<workload>[-smoke].npz. Run it only when a change of the
program's results is intended; the benchmark checks against these files.
"""
from __future__ import annotations

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spinchain.cli  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    refs.REF_DIR.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="freeze-", dir=HERE.parent))
    try:
        for name in ("ring-gate", "dense-kernels"):
            for smoke in (False, True):
                wl = workloads.build(name, 0, smoke)
                values = {}
                for command in wl.commands:
                    if command.axes is None:
                        continue
                    out = scratch / f"{command.key}.csv"
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = spinchain.cli.main([*command.argv, "--out", str(out)])
                    if code != 0:
                        raise SystemExit(f"{name}: {command.key} exited {code}")
                    values[command.key] = refs.read_grid(out)[:, 2]
                np.savez_compressed(refs.frozen_path(wl), **values)
                print(f"wrote {refs.frozen_path(wl)}")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
