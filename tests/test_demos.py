"""Smoke test: every demo script runs to completion and prints its narrative.

Each demo runs through ``tools/readme_outputs.py``'s ``run_demo``, the same
function that writes the demos' printout for a byte-identity ``diff -r``.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_TOOL = ROOT / "tools" / "readme_outputs.py"
_SPEC = importlib.util.spec_from_file_location("readme_outputs", _TOOL)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


@pytest.mark.parametrize("script", tool.DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(script, tmp_path):
    proc = tool.run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert (tmp_path / "demos" / f"{script.stem}.txt").read_text() == proc.stdout
