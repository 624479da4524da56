"""Line census of ``src/spinchain``: which lines the shipped paths reach, which only the tests.

A ``sys.settrace`` line tracer, started before ``spinchain`` is imported so
that import-time lines count, records every line of ``src/spinchain`` that
runs. It runs the shipped paths first, in this process: the README's CLI
examples (``tools/readme_outputs.py``), the scripts in ``demos/`` (by
``runpy``) and the seed-0 commands of every benchmark workload, each command
through ``spinchain.cli.main`` into a temporary directory. Then it runs the
tier-1 suite (``pytest -q`` from the repository root) under the same tracer.

The executable lines are those of the modules' code objects' line tables. For
each function (``<module>`` for the module body) it prints how many lines the
shipped paths reach, how many only the tests reach (and which) and how many
neither reaches (and which), then the totals. A child process a test starts
is not traced, so a line only such a child runs counts as reached by neither.

Run from the repository root (the script puts this checkout's ``src`` first
on ``sys.path``); on a 2-CPU host it took 40 s, against 31 s for tier-1 alone:

    python3 tools/line_census.py

Exits 1 if a shipped command or demo fails; the tests' outcome does not change the exit code.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinchain"
_PREFIX = str(SRC) + os.sep
#: The lines run so far, per phase: (file name, line number).
reached: dict[str, set] = {"shipped": set(), "tests": set()}
_phase = reached["shipped"]


def _trace(frame, event, arg):
    """The global tracer: trace the frames of ``src/spinchain`` only, line by line."""
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _phase.add((frame.f_code.co_filename, frame.f_lineno))  # the call, or a generator's resume
    return _local


def _local(frame, event, arg):
    if event == "line":
        _phase.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


sys.settrace(_trace)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tools"))

import readme_outputs  # noqa: E402  (imports spinchain, so after the tracer starts)


def _executable(path: pathlib.Path) -> dict[int, str]:
    """Each executable line of one module, mapped to the qualified name of its innermost code."""
    owners = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:  # a code object is read before those it holds, which then take its shared lines
        code = todo.pop()
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        owners.update((line, code.co_qualname) for _, _, line in code.co_lines() if line is not None)
    return owners


def run_shipped(out_dir: pathlib.Path) -> list[str]:
    """Run the README commands, the demos and the benchmark's seed-0 commands; what failed."""
    with contextlib.redirect_stdout(io.StringIO()):
        results = readme_outputs.run(out_dir) + readme_outputs.run_bench(out_dir)
        failed = [" ".join(argv) for argv, code in results if code != 0]
        for demo in readme_outputs.DEMOS:
            try:
                runpy.run_path(str(demo), run_name="__main__")
            except BaseException as exc:  # a demo that exits or raises has failed
                failed.append(f"demos/{demo.name}: {exc!r}")
    return failed


def run_tests() -> int:
    """Run tier-1 in this process, from the repository root; pytest's exit code."""
    import pytest

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider"]))
    finally:
        os.chdir(cwd)


def _spans(lines) -> str:
    """Ascending line numbers as ranges: 3-5,9."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def report() -> None:
    """Print the census per module and function, then the totals."""
    kinds = ("shipped", "tests-only", "neither")
    totals, inside = collections.Counter(), 0
    for path in sorted(SRC.glob("*.py")):
        owners = _executable(path)
        census = {}  # owner -> lines per kind, in the order of each owner's first line
        for line, owner in sorted(owners.items()):
            key = (str(path), line)
            kind = next((k for k, run in zip(kinds, reached.values()) if key in run), kinds[2])
            census.setdefault(owner, {k: [] for k in kinds})[kind].append(line)
            totals[kind] += 1
            inside += kind == kinds[2] and owner != "<module>"
        print(f"{path.stem}: {len(owners)} executable lines")
        for owner, lines in census.items():
            counts = ", ".join(f"{kind} {len(lines[kind])}" for kind in kinds)
            spans = "".join(f"; {kind} {_spans(lines[kind])}" for kind in kinds[1:] if lines[kind])
            print(f"  {owner}: {counts}{spans}")
    print(f"total: {sum(totals.values())} executable lines; "
          + ", ".join(f"{kind} {totals[kind]}" for kind in kinds) + f" ({inside} inside functions)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failed = run_shipped(pathlib.Path(tmp))
    _phase = reached["tests"]
    run_tests()
    sys.settrace(None)
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    report()
    sys.exit(1 if failed else 0)
