"""Tests for the command-line interface.

Everything runs in-process through ``main(argv)``; one test crosses the
process boundary to check exit-code propagation of the installed module.
"""
from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spinchain.chain import ChainSpec, InitialState, conventions_hash
from spinchain.cli import main
from spinchain.harper import HarperSpec, fidelity_free_kicked
from spinchain.protocols import fidelity_grid

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    assert header == "l,t,value"
    parsed = [(int(l), float(t), float(v)) for l, t, v in (r.split(",") for r in rows)]
    return parsed


def test_fidelity_grid_matches_library_and_reruns_byte_identical(tmp_path):
    args = ["fidelity", "--n", "8", "--tmax", "1.0", "--dt", "0.5", "--lmax", "4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta1 = (tmp_path / "a.csv.meta.json").read_bytes()
    meta2 = (tmp_path / "b.csv.meta.json").read_bytes()
    assert meta1 == meta2

    rows = _read_csv(out1)
    ls, ts = [1, 2, 3, 4], [0.0, 0.5, 1.0]
    assert len(rows) == len(ls) * len(ts)
    # rows iterate t in the outer loop
    assert [r[0] for r in rows[: len(ls)]] == ls
    assert rows[0][1] == 0.0 and rows[-1][1] == 1.0
    grid = fidelity_grid(ChainSpec(8, "open", 0.5, 1.0), "free", ls, ts)
    for l, t, v in rows:
        assert v == pytest.approx(grid[ls.index(l), ts.index(t)], rel=1e-10, abs=1e-12)


def test_thread_count_does_not_change_output(tmp_path):
    base = [
        "qdp-diff", "--n", "10", "--site", "3", "--t0", "0.5",
        "--tmax", "1.5", "--dt", "0.5", "--lmax", "6",
    ]
    out1, out3 = tmp_path / "t1.csv", tmp_path / "t3.csv"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_qdp_diff_is_zero_before_the_event(tmp_path):
    out = tmp_path / "d.csv"
    assert main([
        "qdp-diff", "--n", "10", "--site", "2", "--t0", "1.0",
        "--tmax", "2.0", "--dt", "0.5", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    before = [v for _, t, v in rows if t < 1.0]
    after = [v for _, t, v in rows if t > 1.0]
    assert before and all(v == 0.0 for v in before)
    assert any(v != 0.0 for v in after)


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# grid shape\n"
        "n = 10\n"
        "boundary = closed\n"
        "tmax = 1.0\n"
        "dt = 0.5\n"
    )
    out = tmp_path / "c.csv"
    assert main([
        "fidelity", "--config", str(cfg), "--dt", "0.25", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    ts = sorted({t for _, t, _ in rows})
    assert ts == [0.0, 0.25, 0.5, 0.75, 1.0]  # flag beat the config value
    assert max(l for l, _, _ in rows) == 10
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["parameters"]["n"] == 10
    assert meta["parameters"]["boundary"] == "closed"
    assert meta["parameters"]["dt"] == 0.25


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lmaxx = 5\n")
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    cfg.write_text("command = harper\n")
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fidelity", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_metadata_sidecar_contents(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["fidelity", "--n", "6", "--tmax", "0.5", "--dt", "0.5", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["command"] == "fidelity"
    assert meta["format_version"] == 1
    assert meta["conventions"]["fingerprint"] == conventions_hash()
    assert "hamiltonian" in meta["conventions"]["entries"]
    assert meta["grid"]["t"] == [0.0, 0.5]
    assert "out" not in meta["parameters"]
    assert "package_version" in meta


def test_exit_codes_for_bad_usage(tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["fidelity", "--n", "not-a-number"]) == 2
    assert main(["fidelity", "--alpha2", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
    assert main([
        "fidelity", "--lmin", "5", "--lmax", "3", "--out", str(tmp_path / "x.csv"),
    ]) == 2
    assert main(["detector", "--qdp-kick", "10", "--kicks", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # non-finite parameters and out-of-range sites
    assert main(["fidelity", "--n", "10", "--tmax", "inf", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fidelity", "--n", "10", "--tmin", "nan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fidelity", "--n", "10", "--dt", "nan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["qdp-diff", "--n", "10", "--site", "50", "--tmax", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["unitary-qdp", "--n", "10", "--site", "50", "--tmax", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["two-magnon-split", "--n", "10", "--site", "11", "--tmax", "4",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["harper", "--n", "10", "--g", "nan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["harper", "--n", "10", "--eta", "nan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["two-magnon-split", "--n", "10", "--delta-abs", "nan", "--tmax", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # NaN values in a grid: tau * g overflows the kick phase, Delta = 1e308 the pair energies
    assert main(["harper", "--n", "8", "--g", "1e10", "--tau", "1e300", "--kicks", "2",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["detector", "--n", "8", "--g", "1e10", "--tau", "1e300", "--qdp-kick", "1",
                 "--kicks", "3", "--alpha2", "0.5", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["two-magnon-split", "--n", "8", "--boundary", "closed", "--site", "3",
                 "--t0", "1", "--tmax", "2", "--dt", "1", "--delta", "1e308", "--part", "total",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # --tol belongs to the two checks only
    assert main(["fidelity", "--n", "6", "--tmax", "0.5", "--tol", "1e-30",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["--help"]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,fields", [
    (["harper", "--n", "8", "--g", "1e10", "--tau", "1e300", "--kicks", "2"], ("tau", "g")),
    (["detector", "--n", "8", "--g", "1e10", "--tau", "1e300", "--qdp-kick", "1",
      "--kicks", "3", "--alpha2", "0.5"], ("tau", "g")),
    (["harper", "--n", "8", "--eta", "1e308", "--kicks", "2"], ("n", "eta")),
    (["two-magnon-split", "--n", "8", "--boundary", "closed", "--site", "3", "--t0", "1",
      "--tmax", "2", "--dt", "1", "--delta", "1e308", "--part", "total"], ("j", "delta")),
    (["fidelity", "--n", "8", "--j", "1e308", "--tmax", "0"], ("j", "delta")),
])
def test_overflowing_parameters_are_refused_by_name(tmp_path, capsys, argv, fields):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    for field in fields:
        assert f"{field} = " in err, err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_refuses_a_dense_matrix_too_large_to_hold(tmp_path, monkeypatch):
    from spinchain import oracle

    original = oracle._build_one

    def guarded(spec):
        if spec.n > 10_000:  # 800 MB of doubles
            pytest.fail(f"dense {spec.n} x {spec.n} one-excitation matrix requested")
        return original(spec)

    monkeypatch.setattr(oracle, "_build_one", guarded)
    assert main(["calibrate", "--n", "100000", "--out", str(tmp_path / "c.json")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_oversized_grids_exit_before_allocation(tmp_path):
    # every grid here is refused from its axis bounds alone, before any list is built
    out = ["--out", str(tmp_path / "x.csv")]
    assert main(["fidelity", "--n", "10", "--tmax", "1e6", "--dt", "1"] + out) == 2  # 10 000 010 cells
    assert main(["fidelity", "--tmax", "1e12", "--dt", "1e-3"] + out) == 2
    assert main(["qdp-diff", "--tmax", "1e300", "--dt", "1e-300"] + out) == 2  # span / dt is inf
    assert main(["unitary-qdp", "--n", "100000000", "--tmax", "0"] + out) == 2
    assert main(["two-magnon-split", "--n", "12", "--tmax", "1e9"] + out) == 2
    assert main(["harper", "--n", "10", "--kicks", "1000000"] + out) == 2
    assert main(["detector", "--n", "10", "--qdp-kick", "0", "--kicks", "1000000"] + out) == 2
    # small grids on rings over green2.MAX_RING_SITES: the ring kernel refuses them
    assert main(["unitary-qdp", "--boundary", "closed", "--n", "1000", "--tmax", "0"] + out) == 2
    assert main(["two-magnon-split", "--n", "1000", "--tmax", "0"] + out) == 2
    assert list(tmp_path.iterdir()) == []


def test_times_past_the_bessel_domain_exit_2_and_write_nothing(tmp_path):
    # 4*J*t = 4e5 is over bessel.MAX_ARG on the small exact chain too
    out = ["--out", str(tmp_path / "x.csv")]
    assert main(["fidelity", "--n", "12", "--tmin", "2e5", "--tmax", "2e5"] + out) == 2
    assert list(tmp_path.iterdir()) == []


def test_each_gate_command_builds_its_ring_kernel_once(tmp_path, monkeypatch):
    from spinchain import green2

    builds = []
    original = green2.RingTwoMagnon.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(green2.RingTwoMagnon, "__init__", counting_init)
    ring = ["--n", "12", "--boundary", "closed", "--site", "3", "--t0", "1.0",
            "--tmax", "3.0", "--dt", "0.5"]  # five columns at or after t0
    for command in ("unitary-qdp", "two-magnon-split"):
        builds.clear()
        assert main([command, *ring, "--out", str(tmp_path / f"{command}.csv")]) == 0
        assert len(builds) == 1, command


def test_exit_code_for_failed_numerical_check(tmp_path):
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--n", "8", "--tol", "1e-30", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert any(not entry["pass"] for entry in report.values())


def test_exit_code_for_unwritable_output(tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    assert main(["fidelity", "--n", "6", "--tmax", "0.5", "--out", str(target)]) == 4


def test_calibrate_passes_at_default_tolerance(tmp_path):
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--n", "12", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report) == 4  # n = 12 and n = 100, two boundaries each
    assert all(entry["pass"] for entry in report.values())
    assert all(entry["worst"] <= entry["tolerance"] for entry in report.values())


def test_oracle_check_passes(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--n", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "splitting identity",
        "measurement protocol vs dense evolution",
        "gate protocol vs dense evolution",
        "paired-band census",
    }
    assert all(entry["pass"] for entry in report.values())


@pytest.mark.parametrize("n", [2, 65, 600])
def test_oracle_check_refuses_a_bad_size_before_any_check(tmp_path, capsys, n):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--n", str(n), "--out", str(out)]) == 2
    assert "ok" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_harper_grid_matches_library(tmp_path):
    out = tmp_path / "h.csv"
    assert main([
        "harper", "--n", "8", "--g", "1.1", "--tau", "0.4", "--kicks", "3",
        "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    assert len(rows) == 8 * 4
    spec = HarperSpec(n=8, g=1.1, tau=0.4)
    for kicks in (0, 3):
        expected = fidelity_free_kicked(spec, kicks)
        got = [v for l, t, v in rows if t == pytest.approx(kicks * 0.4)]
        assert np.allclose(got, expected, atol=1e-10)


def test_detector_grid_sums_to_zero_per_column(tmp_path, monkeypatch):
    from spinchain import harper

    steps = []
    original = harper.floquet_step

    def counting_step(spec):
        steps.append(spec)
        return original(spec)

    monkeypatch.setattr(harper, "floquet_step", counting_step)
    out = tmp_path / "det.csv"
    assert main([
        "detector", "--n", "12", "--g", "1.0", "--tau", "0.3",
        "--qdp-site", "2", "--qdp-kick", "2", "--kicks", "5",
        "--out", str(out),
    ]) == 0
    assert len(steps) <= 2  # each vector is stepped once per kick, not once per column
    rows = _read_csv(out)
    ts = sorted({t for _, t, _ in rows})
    assert len(ts) == 4  # kicks 2..5 inclusive
    spec = HarperSpec(12, 1.0, 0.3)
    initial = InitialState(math.sqrt(0.5), math.sqrt(0.5))
    for n, t in enumerate(ts, start=2):
        column = [v for _, tt, v in rows if tt == t]
        assert len(column) == 12
        assert abs(sum(column)) < 1e-10
        want = harper.qdp_and_detect(spec, 2, 2, n, initial).detector
        assert column == [float(f"{v:.11e}") for v in want]


def test_unitary_qdp_and_split_commands_run(tmp_path):
    out = tmp_path / "u.csv"
    assert main([
        "unitary-qdp", "--n", "10", "--boundary", "closed", "--site", "2",
        "--t0", "0.5", "--tmax", "1.0", "--dt", "0.5", "--lmax", "5",
        "--out", str(out),
    ]) == 0
    values = [v for _, _, v in _read_csv(out)]
    assert all(0.0 <= v <= 1.0 for v in values)
    out2 = tmp_path / "s.csv"
    assert main([
        "two-magnon-split", "--n", "10", "--boundary", "closed", "--site", "2",
        "--t0", "0.5", "--tmax", "1.0", "--dt", "0.5", "--lmax", "5",
        "--part", "total", "--out", str(out2),
    ]) == 0
    split_values = [v for _, _, v in _read_csv(out2)]
    assert all(v >= 0.0 for v in split_values)
    assert any(v > 0.0 for v in split_values)


def test_exit_code_crosses_the_process_boundary():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spinchain.cli", "fidelity", "--n", "not-a-number"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
    )
    assert proc.returncode == 2
