"""Run the README's command-line examples and write their outputs into one directory.

Reads the ``spinchain ...`` lines of the first ``sh`` block under the
"Command-line tool" heading of ``README.md`` (joining ``\\`` continuations),
points each ``--out`` into OUT_DIR and runs each line in-process through
``spinchain.cli.main``. Comparing two such directories with ``diff -r`` shows
whether a change keeps the README's outputs byte-identical.

Run from the repository root:

    PYTHONPATH=src python3 tools/readme_outputs.py OUT_DIR

Exits 1 if any command exits non-zero, after running them all.
"""

from __future__ import annotations

import pathlib
import shlex
import sys

from spinchain.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: readme_outputs.py OUT_DIR")
    failed = [argv for argv, code in run(pathlib.Path(sys.argv[1])) if code != 0]
    for argv in failed:
        print(f"failed: spinchain {shlex.join(argv)}", file=sys.stderr)
    sys.exit(1 if failed else 0)
