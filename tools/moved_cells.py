"""Count the cells that moved between two ``tools/readme_outputs.py`` directories.

For each CSV under OLD_DIR, subdirectories included, compared with the file
at the same relative path under NEW_DIR, prints the number of cells, the
number whose printed value text differs and the largest |new - old| over the
values:

    python3 tools/moved_cells.py OLD_DIR NEW_DIR

Exits 1 if a CSV is missing from NEW_DIR or has other cells (its l,t columns).
"""

from __future__ import annotations

import pathlib
import sys


def cells(path: pathlib.Path) -> list[list[str]]:
    """The l, t and value texts of each cell of a grid CSV, header dropped."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: moved_cells.py OLD_DIR NEW_DIR")
    old_dir, new_dir = map(pathlib.Path, sys.argv[1:])
    failed = False
    for old_path in sorted(old_dir.rglob("*.csv")):
        name = old_path.relative_to(old_dir)
        new_path = new_dir / name
        old, new = cells(old_path), (cells(new_path) if new_path.is_file() else None)
        if new is None or [c[:2] for c in old] != [c[:2] for c in new]:
            print(f"{name}: cells differ or missing", file=sys.stderr)
            failed = True
            continue
        moved = [(a[2], b[2]) for a, b in zip(old, new) if a[2] != b[2]]
        worst = max((abs(float(b) - float(a)) for a, b in moved), default=0.0)
        print(f"{name}: {len(old)} cells, {len(moved)} moved, max |dvalue| {worst:.3e}")
    sys.exit(1 if failed else 0)
