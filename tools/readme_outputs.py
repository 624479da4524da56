"""Run the README's command-line examples and the demos, writing their outputs into one directory.

Reads the ``spinchain ...`` lines of the first ``sh`` block under the
"Command-line tool" heading of ``README.md`` (joining ``\\`` continuations),
points each ``--out`` into OUT_DIR and runs each line in-process through
``spinchain.cli.main``. Then runs every script in ``demos/`` in its own
process and writes its stdout to ``OUT_DIR/demos/<name>.txt``. Comparing two
such directories with ``diff -r`` shows whether a change keeps the README's
outputs and the demos' printout byte-identical.

Run from the repository root (the script puts this checkout's ``src`` first
on ``sys.path``):

    python3 tools/readme_outputs.py OUT_DIR

Exits 1 if any command or demo exits non-zero, after running them all.
"""

from __future__ import annotations

import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinchain.cli import main  # noqa: E402  (needs ROOT/src on sys.path)

README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_commands() -> list[list[str]]:
    """argv lists, without the leading ``spinchain``, of the README's CLI examples."""
    section = README.read_text().split("## Command-line tool", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "spinchain":
            commands.append(words[1:])
    return commands


def with_out_dir(argv: list[str], out_dir: pathlib.Path) -> list[str]:
    """argv with the value of ``--out`` moved into out_dir (file name kept)."""
    at = argv.index("--out") + 1
    return argv[:at] + [str(out_dir / pathlib.Path(argv[at]).name)] + argv[at + 1 :]


def run(out_dir: pathlib.Path) -> list[tuple[list[str], int]]:
    """Run every README command into out_dir; (argv, exit code) per command."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for argv in readme_commands():
        argv = with_out_dir(argv, out_dir)
        results.append((argv, main(argv)))
    return results


def run_demo(script: pathlib.Path, out_dir: pathlib.Path) -> subprocess.CompletedProcess:
    """Run one demo on this checkout's ``src``; its stdout goes to out_dir/demos/<name>.txt."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    (out_dir / "demos").mkdir(parents=True, exist_ok=True)
    (out_dir / "demos" / f"{script.stem}.txt").write_text(proc.stdout)
    return proc


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: readme_outputs.py OUT_DIR")
    out_dir = pathlib.Path(sys.argv[1])
    failed = [f"spinchain {shlex.join(argv)}" for argv, code in run(out_dir) if code != 0]
    failed += [f"demos/{d.name}" for d in DEMOS if run_demo(d, out_dir).returncode != 0]
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    sys.exit(1 if failed else 0)
