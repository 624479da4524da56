"""Tests for the command-line interface.

Everything runs in-process through ``main(argv)``; one test crosses the
process boundary to check exit-code propagation of the installed module.
"""
from __future__ import annotations

import errno
import importlib.util
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spinchain.chain import ChainSpec, InitialState, conventions_hash, reduced_phase
from spinchain.cli import _splitting_samples, main
from spinchain.green1 import reduced_profile
from spinchain.harper import HarperSpec, KickedChain
from spinchain.protocols import fidelity_from_amplitudes, measured, occupation_change

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    assert header == "l,t,value"
    parsed = [(int(l), float(t), float(v)) for l, t, v in (r.split(",") for r in rows)]
    return parsed


def test_fidelity_command_matches_library_and_reruns_byte_identical(tmp_path):
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
    spec = ChainSpec(8, "open", 0.5, 1.0)
    for l, t, v in rows:
        free = fidelity_from_amplitudes(reduced_profile(1, t, spec))
        assert v == pytest.approx(free[l - 1], rel=1e-10, abs=1e-12)


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


def test_unitary_qdp_cells_before_t0_are_free_or_zero(tmp_path):
    # before the gate nothing has happened: the free fidelity, or no change
    axes = ["--n", "12", "--boundary", "closed", "--tmin", "0.5", "--tmax", "4", "--dt", "0.5",
            "--lmin", "2", "--lmax", "9"]
    gate = ["unitary-qdp", *axes, "--site", "3", "--t0", "2.0"]
    paths = {name: tmp_path / f"{name}.csv" for name in ("free", "gate", "diff")}
    assert main(["fidelity", *axes, "--out", str(paths["free"])]) == 0
    assert main([*gate, "--out", str(paths["gate"])]) == 0
    assert main([*gate, "--diff", "--out", str(paths["diff"])]) == 0
    lines = {name: path.read_text().splitlines()[1:] for name, path in paths.items()}
    before = [float(line.split(",")[1]) for line in lines["free"]].index(2.0)
    assert before == 3 * 8  # t = 0.5, 1.0, 1.5 at sites 2..9, time outer
    assert lines["gate"][:before] == lines["free"][:before]
    assert all(line.endswith(",0.00000000000e+00") for line in lines["diff"][:before])
    assert lines["gate"][before:] != lines["free"][before:]


def test_phase_only_gate_diff_is_exactly_zero(tmp_path):
    # delta = 0 leaves a global phase: the gated rows are the free rows, bit for bit
    out = tmp_path / "d.csv"
    assert main([
        "unitary-qdp", "--n", "100", "--boundary", "closed", "--site", "15", "--t0", "7.5",
        "--tmax", "12", "--dt", "0.25", "--gamma-abs", "1", "--delta-abs", "0", "--diff",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 100 * 49
    assert all(line.endswith(",0.00000000000e+00") for line in lines)


def test_admitted_phase_only_gate_is_exactly_the_free_readout(tmp_path):
    # |gamma| = 0.999999999999 is admitted as a global phase, so the rows are
    # exactly the free readout
    axes = ["--n", "20", "--tmax", "3", "--dt", "0.5"]
    gate = ["unitary-qdp", *axes, "--boundary", "open", "--site", "3", "--t0", "1",
            "--gamma-abs", "0.999999999999", "--delta-abs", "0"]
    free, gated, diff = (tmp_path / f"{name}.csv" for name in ("free", "gated", "diff"))
    assert main(["fidelity", *axes, "--out", str(free)]) == 0
    assert main([*gate, "--out", str(gated)]) == 0
    assert main([*gate, "--diff", "--out", str(diff)]) == 0
    assert gated.read_bytes() == free.read_bytes()
    lines = diff.read_text().splitlines()[1:]
    assert len(lines) == 20 * 7
    assert all(line.endswith(",0.00000000000e+00") for line in lines)


def test_gate_chain_rule_phase_only_anywhere_flipping_on_rings(tmp_path, capsys):
    axes = ["--n", "100", "--boundary", "open", "--tmax", "12", "--dt", "0.25"]
    gate = ["unitary-qdp", *axes, "--site", "15", "--t0", "7.5"]
    free, gated, flipped = (tmp_path / f"{name}.csv" for name in ("free", "gated", "flipped"))
    assert main(["fidelity", *axes, "--out", str(free)]) == 0
    assert main([*gate, "--gamma-abs", "1", "--delta-abs", "0", "--out", str(gated)]) == 0
    assert gated.read_bytes() == free.read_bytes()
    # a flipping gate opens the pair channel, which only the ring kernel evolves
    capsys.readouterr()
    assert main([*gate, "--gamma-abs", "0", "--delta-abs", "1", "--out", str(flipped)]) == 2
    assert "closed chain" in capsys.readouterr().err
    assert not flipped.exists()


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lmaxx = 5\n")
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fidelity", "--config", str(tmp_path / "missing.cfg")]) == 2
    # a file that cannot be read, or that gives a key twice ('-' and '_'
    # spell one key), exits 2 and names the file
    (tmp_path / "dir.cfg").mkdir()
    cfg_twice = tmp_path / "twice.cfg"
    for path, data, key in ((tmp_path / "dir.cfg", None, "cannot read"),
                            (tmp_path / "latin1.cfg", b"n = 10 # \xe9\n", "cannot read"),
                            (cfg_twice, b"n = 10\nn = 12\n", "'n'"),
                            (cfg_twice, b"delta-abs = 0\ndelta_abs = 1\n", "'delta_abs'")):
        if data is not None:
            path.write_bytes(data)
        capsys.readouterr()
        assert main(["unitary-qdp", "--site", "3", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err, err
        assert "Traceback" not in err
    # values are checked as the flags check them (a choice, or a true or false
    # word), and the subcommand is the command line's; each refusal names the file
    for line, command in (("part = foo\n", ["two-magnon-split", "--n", "10", "--site", "3",
                                            "--t0", "1", "--tmax", "2"]),
                          ("diff = maybe\n", ["unitary-qdp", "--n", "10", "--site", "3",
                                              "--t0", "1", "--tmax", "2"]),
                          ("command = harper\n", ["fidelity"])):
        cfg.write_text(line)
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: " in err and line.split()[0] in err, err
        assert "Traceback" not in err
    # a value of the wrong type, or a flag a file cannot set, names the file and the key
    for line, key in (("n = abc\n", "'n'"), ("lmax =\n", "'lmax'"), ("help = yes\n", "'help'"),
                      ("config = other.cfg\n", "'config'")):
        cfg.write_text(line)
        capsys.readouterr()
        assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err, err
        assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_config_defaults_stay_with_their_call(tmp_path):
    # a config file's values are defaults of its own call: a later plain run in
    # the same process, after a run, a refusal or an overridden run, uses the stock ones
    plain = ["fidelity", "--tmax", "0.5", "--lmax", "3"]

    def run_plain(name):
        out = tmp_path / name
        assert main([*plain, "--out", str(out)]) == 0
        return out.read_bytes(), (tmp_path / f"{name}.meta.json").read_bytes()

    reference = run_plain("reference.csv")
    params = json.loads(reference[1])["parameters"]
    assert (params["n"], params["boundary"], params["dt"]) == (100, "open", 0.25)
    assert sorted({t for _, t, _ in _read_csv(tmp_path / "reference.csv")}) == [0.0, 0.25, 0.5]

    cfg = tmp_path / "run.cfg"
    settings = "boundary = closed\ndt = 0.5\nn = "
    for i, (text, flags, code) in enumerate((
            (settings + "8\n", [], 0),
            (settings + "abc\n", [], 2),
            (settings + "8\n", ["--n", "6", "--boundary", "open", "--dt", "0.25"], 0))):
        cfg.write_text(text)
        assert main([*plain, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / f"config{i}.csv")]) == code
        assert run_plain(f"plain{i}.csv") == reference, text


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch, capsys):
    from spinchain import cli

    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._shared_parser.cache_clear()
    plain = ["fidelity", "--n", "4", "--tmax", "0", "--out", str(tmp_path / "x.csv")]
    assert main(plain) == 0
    assert len(builds) == 1
    assert main(["fidelity", "--n", "not-a-number"]) == 2
    capsys.readouterr()
    assert main(["unitary-qdp", "--help"]) == 0
    first_help = capsys.readouterr().out
    assert "--delta-phase" in first_help
    assert main(plain) == 0
    capsys.readouterr()
    assert main(["unitary-qdp", "--help"]) == 0
    assert capsys.readouterr().out == first_help
    assert len(builds) == 1
    # a config run sets its defaults on a parser of its own
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\n")
    assert main([*plain, "--config", str(cfg)]) == 0
    assert len(builds) == 2


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


def test_exit_codes_for_bad_usage(tmp_path, capsys):
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
    for command, t0 in itertools.product(("qdp-diff", "unitary-qdp", "two-magnon-split"),
                                         ("nan", "inf", "-1")):
        assert main([command, "--n", "12", "--boundary", "closed", "--site", "3", "--t0", t0,
                     "--tmax", "2", "--out", str(tmp_path / "x.csv")]) == 2
        assert "t0 must be finite and >= 0" in capsys.readouterr().err
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
    # a gate amplitude too large to square is refused as bad input, not an OverflowError
    for command, flag in itertools.product(("unitary-qdp", "two-magnon-split"),
                                           (["--gamma-abs", "1e155"], ["--delta-abs", "1e200"])):
        assert main([command, "--n", "5", "--boundary", "closed", "--site", "2", "--t0", "0.1",
                     "--tmax", "1", "--dt", "0.5", *flag, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "|gamma|^2 + |delta|^2 must be 1" in err and "Traceback" not in err
    # --tol belongs to the two checks only
    assert main(["fidelity", "--n", "6", "--tmax", "0.5", "--tol", "1e-30",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # a tolerance must be finite and positive; it is checked before any check is built
    report = ["--out", str(tmp_path / "x.json")]
    assert main(["oracle-check", "--n", "6", "--tol", "inf", *report]) == 2
    assert main(["oracle-check", "--n", "6", "--tol", "nan", *report]) == 2
    assert main(["calibrate", "--tol", "-1", *report]) == 2
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
    # finite, but the hop phases 2*tau*cos p would be rounding noise
    (["harper", "--n", "8", "--g", "0", "--tau", "1e300", "--kicks", "2"], ("tau",)),
    # a dense 3e6 x 3e6 Floquet step; refused before anything is allocated
    (["harper", "--n", "3000000", "--kicks", "0"], ("n",)),
    (["detector", "--n", "3000000", "--qdp-kick", "0", "--kicks", "0", "--alpha2", "0.5"], ("n",)),
])
def test_overflowing_parameters_are_refused_by_name(tmp_path, capsys, argv, fields):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    for field in fields:
        assert f"{field} = " in err, err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_refuses_a_dense_matrix_too_large_to_hold(tmp_path, monkeypatch, capsys):
    from spinchain import oracle

    def refused(spec, sector):
        pytest.fail(f"dense {sector} matrix at n = {spec.n} built before the refusal")

    monkeypatch.setattr(oracle, "build_hamiltonian", refused)
    assert main(["calibrate", "--n", "100000", "--out", str(tmp_path / "c.json")]) == 2
    assert "n = 100000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_oversized_grids_exit_before_allocation(tmp_path, monkeypatch):
    # every grid here is refused from its axis bounds alone, before any list is built
    from spinchain import cli

    def refused(*args, **kwargs):
        pytest.fail("a row was computed before the grid guard refused the grid")

    monkeypatch.setattr(cli, "SpinChain", refused)
    monkeypatch.setattr(cli, "KickedChain", refused)
    out = ["--out", str(tmp_path / "x.csv")]
    assert main(["fidelity", "--n", "10", "--tmax", "1e6", "--dt", "1"] + out) == 2  # 10 000 010 cells
    assert main(["fidelity", "--tmax", "1e12", "--dt", "1e-3"] + out) == 2
    assert main(["qdp-diff", "--tmax", "1e300", "--dt", "1e-300"] + out) == 2  # span / dt is inf
    assert main(["unitary-qdp", "--n", "100000000", "--tmax", "0"] + out) == 2
    assert main(["two-magnon-split", "--n", "12", "--tmax", "1e9"] + out) == 2
    assert main(["harper", "--n", "10", "--kicks", "1000000"] + out) == 2
    assert main(["detector", "--n", "10", "--qdp-kick", "0", "--kicks", "1000000"] + out) == 2
    # every row spans all n sites, however few of them are kept
    assert main(["fidelity", "--n", "3000000000", "--lmax", "1", "--tmax", "0"] + out) == 2
    # every kick from 0 is stepped, however few of them are read out
    assert main(["detector", "--n", "10", "--qdp-kick", "1000000000",
                 "--kicks", "1000000000"] + out) == 2
    # small grids on rings over green2.MAX_RING_SITES: the ring kernel refuses them
    assert main(["unitary-qdp", "--boundary", "closed", "--n", "1000", "--tmax", "0"] + out) == 2
    assert main(["two-magnon-split", "--n", "1000", "--tmax", "0"] + out) == 2
    assert list(tmp_path.iterdir()) == []


def test_times_past_the_bessel_domain_exit_2_and_write_nothing(tmp_path, capsys):
    # 4*J*t = 4e5 is over bessel.MAX_ARG on the small exact chain too
    out = ["--out", str(tmp_path / "x.csv")]
    assert main(["fidelity", "--n", "12", "--tmin", "2e5", "--tmax", "2e5"] + out) == 2
    assert list(tmp_path.iterdir()) == []
    # the ring's pair evolution refuses the same bound
    split = ["two-magnon-split", "--n", "12", "--boundary", "closed"]
    assert main(split + ["--tmin", "1e300", "--tmax", "1e300"] + out) == 2
    assert list(tmp_path.iterdir()) == []
    # with the pair energies' 4*J*(|Delta| + 2) in place of 4*J: here 4*J*|t| is
    # only 2, but 4*J*(|Delta| + 2)*|t| is 2e8
    ring = ["--n", "6", "--boundary", "closed", "--delta", "1e8", "--site", "2", "--t0", "0.5",
            "--tmax", "1.5"]
    for command in ("unitary-qdp", "two-magnon-split"):
        assert main([command, *ring] + out) == 2
        assert "Delta = 100000000.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_each_gate_command_builds_its_ring_kernel_once(tmp_path, monkeypatch):
    from spinchain import green2

    builds = []
    original = green2.RingTwoMagnon.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    green2.kernels.clear()
    monkeypatch.setattr(green2.RingTwoMagnon, "__init__", counting_init)
    ring = ["--n", "12", "--boundary", "closed", "--site", "3", "--t0", "1.0",
            "--tmax", "3.0", "--dt", "0.5"]  # five columns at or after t0
    # the gate commands on one ring share one kernel
    for command in ("unitary-qdp", "two-magnon-split"):
        assert main([command, *ring, "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert len(builds) == 1
    # a second ring builds one more
    ring[1] = "13"
    assert main(["unitary-qdp", *ring, "--out", str(tmp_path / "13.csv")]) == 0
    assert len(builds) == 2
    green2.kernels.clear()


def test_gate_grid_ending_before_t0_builds_no_ring_kernel(tmp_path, monkeypatch):
    from spinchain import green2

    builds = []
    monkeypatch.setattr(green2.RingTwoMagnon, "__init__", lambda self, spec: builds.append(spec))
    green2.kernels.clear()
    ring = ["--n", "12", "--boundary", "closed", "--site", "3", "--t0", "5.0",
            "--tmax", "4.5", "--dt", "0.5"]  # every column before t0
    for command in ("unitary-qdp", "two-magnon-split"):
        assert main([command, *ring, "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert main(["unitary-qdp", *ring, "--diff", "--out", str(tmp_path / "diff.csv")]) == 0
    assert builds == []
    # a ring too large to build is still refused before any time is read
    big = ["--n", "513", "--boundary", "closed", "--site", "3", "--t0", "50", "--tmax", "10"]
    assert main(["unitary-qdp", *big, "--out", str(tmp_path / "big.csv")]) == 2
    assert not (tmp_path / "big.csv").exists()
    assert builds == []
    green2.kernels.clear()


def test_exit_code_for_failed_numerical_check(tmp_path):
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--n", "8", "--tol", "1e-30", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert any(not entry["pass"] for entry in report.values())


def test_exit_code_for_unwritable_output(tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    assert main(["fidelity", "--n", "6", "--tmax", "0.5", "--out", str(target)]) == 4


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier-run"])
def test_outputs_are_written_both_or_neither(tmp_path, capsys, earlier):
    # a sidecar name that is a directory: exit 4, and the CSV is neither written nor replaced
    out = tmp_path / "x.csv"
    args = ["fidelity", "--n", "6", "--tmax", "1", "--dt", "0.5", "--out", str(out)]
    if earlier:
        assert main(args) == 0
        (tmp_path / "x.csv.meta.json").unlink()
    before = sorted(p.name for p in tmp_path.iterdir())
    old = out.read_bytes() if earlier else None
    (tmp_path / "x.csv.meta.json").mkdir()
    assert main(args[:2] + ["7"] + args[3:]) == 4
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["x.csv.meta.json"])
    assert (out.read_bytes() if earlier else None) == old
    # the CSV name a directory: nothing beside it is written either
    (tmp_path / "x.csv.meta.json").rmdir()
    (tmp_path / "d.csv").mkdir()
    assert main(args[:-1] + [str(tmp_path / "d.csv")]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["d.csv"])


def test_a_failure_between_chunks_leaves_the_earlier_outputs(tmp_path, monkeypatch, capsys):
    # the CSV is streamed into its staged file; a write that fails part-way leaves no trace
    from spinchain import cli

    out = tmp_path / "x.csv"
    args = ["fidelity", "--n", "6", "--tmax", "1", "--dt", "0.5", "--out", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    grid_csv = cli.grid_csv

    def failing(*grid):
        chunks = grid_csv(*grid)
        yield next(chunks)
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "grid_csv", failing)
    assert main(args[:2] + ["7"] + args[3:]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_row_failing_in_a_later_chunk_leaves_the_earlier_outputs(tmp_path, monkeypatch, capsys):
    # 3 001 rows on 4 sites, 2 048 to a chunk; the stream's second block ends in a NaN row
    from spinchain import protocols

    rows = protocols.SpinChain.rows

    def nan_in_the_second_block(self, source, times):
        for k, block in enumerate(rows(self, source, times)):
            if k == 1:
                block[-1] = np.nan
            yield block

    monkeypatch.setattr(protocols.SpinChain, "rows", nan_in_the_second_block)
    out = tmp_path / "x.csv"
    args = ["fidelity", "--n", "4", "--tmax", "6000", "--dt", "2", "--out", str(out)]
    assert main(args[:4] + ["2000"] + args[5:]) == 0  # one block
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 2
    assert "grid values leave [0, 1] or are NaN" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # the staged CSV is opened before the first row is computed, so an unwritable
    # --out exits 4 before the failing row is reached
    assert main(args[:-1] + [str(tmp_path / "no_such_dir" / "x.csv")]) == 4
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, message", [
    (["fidelity", "--n", "2", "--tmax", "99999", "--dt", "1"],
     "4*J*t must be <= 100000.0, got 199998.0"),
    (["qdp-diff", "--n", "4", "--site", "2", "--t0", "1", "--tmax", "60000", "--dt", "1000"],
     "4*J*t must be <= 100000.0, got 120000.0"),
    (["unitary-qdp", "--n", "8", "--site", "2", "--t0", "1", "--tmax", "20000", "--dt", "1000"],
     "4*J*(|Delta| + 2)*|t| must be <= 100000.0, got 119994.0 at t = 19999.0"),
], ids=["fidelity", "qdp-diff", "unitary-qdp"])
def test_a_time_past_the_bound_is_refused_before_any_file_is_opened(tmp_path, capsys, argv,
                                                                     message):
    # the last time is checked before the first row: no file, not even under a missing
    # directory, where a row failing on the way would exit 4
    for out in (tmp_path / "x.csv", tmp_path / "no_such_dir" / "x.csv"):
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("site", ["0", "101"])
def test_detector_site_is_refused_before_any_file_is_opened(tmp_path, site):
    out = str(tmp_path / "no_such_dir" / "x.csv")
    assert main(["detector", "--qdp-site", site, "--kicks", "10", "--out", out]) == 2


def test_outputs_replace_earlier_files_and_write_through_symlinks(tmp_path):
    target, link = tmp_path / "real.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    args = ["fidelity", "--n", "6", "--tmax", "1", "--dt", "0.5", "--out", str(link)]
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args[:2] + ["7"] + args[3:]) == 0
    assert link.is_symlink() and target.read_bytes() != first
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["link.csv", "link.csv.meta.json", "real.csv"]


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
    # every dense comparison, the gate's included, is held to the default --tol
    for name in ("splitting identity", "measurement protocol vs dense evolution",
                 "gate protocol vs dense evolution"):
        assert report[name]["tolerance"] == 1e-9, name


@pytest.mark.parametrize("n", [3, 12, 64])
def test_splitting_check_is_the_one_sample_reference(tmp_path, hk_propagators, n):
    # the check's own draws, one sample at a time, as the batched check makes them
    rng = np.random.default_rng(7)
    want, worst = [], 0.0
    for boundary in ("open", "closed"):
        spec = ChainSpec(n, boundary, 0.5, 1.0)
        for _ in range(100):
            m = int(rng.integers(1, n + 1))
            l = int(rng.integers(1, n + 1))
            t0 = float(rng.uniform(0.0, 3.0))
            t = t0 + float(rng.uniform(0.0, 3.0))
            h, k = hk_propagators(1, l, m, t, t0, spec)
            g = reduced_phase(spec, t) * reduced_profile(1, t, spec)[l - 1]
            want.append((h, k, g))
            worst = max(worst, abs(h + k - g))
    got = _splitting_samples(n)
    assert len(got) == 200
    for (h, k, g), (h_ref, k_ref, g_ref) in zip(got, want):
        assert (h, k, g) == (h_ref, k_ref, g_ref)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--n", str(n), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["splitting identity"]["worst"] == worst


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
    (block,) = KickedChain(spec).rows(1, range(4))
    for kicks in (0, 3):
        expected = fidelity_from_amplitudes(block[kicks])
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
    assert len(steps) == 1  # one step for the command; each vector stepped once per kick
    rows = _read_csv(out)
    ts = sorted({t for _, t, _ in rows})
    assert len(ts) == 4  # kicks 2..5 inclusive
    spec = HarperSpec(12, 1.0, 0.3)
    initial = InitialState(math.sqrt(0.5), math.sqrt(0.5))
    (detectors,) = occupation_change(measured(KickedChain(spec), 2, 2, range(2, 6)), initial)
    for t, detector in zip(ts, detectors, strict=True):
        column = [v for _, tt, v in rows if tt == t]
        assert len(column) == 12
        assert abs(sum(column)) < 1e-10
        assert column == [float(f"{v:.11e}") for v in detector]


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


def test_readme_outputs_tool_runs_every_readme_command(tmp_path):
    path = ROOT / "tools" / "readme_outputs.py"
    spec = importlib.util.spec_from_file_location("readme_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    results = tool.run(tmp_path)
    assert len(results) == 8
    for argv, code in results:
        assert code == 0, argv
        out = pathlib.Path(argv[argv.index("--out") + 1])
        assert out.parent == tmp_path
        assert out.is_file() and out.with_name(out.name + ".meta.json").is_file()


def test_bench_compare_states_the_verdict_against_the_bound():
    path = ROOT / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tight = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    # the bound is a fraction of the parent's median: 20 % slower is inside 25 %, 30 % is not
    slower = tool.compare(tight, [v * 1.2 for v in tight], "lower", 0.25)
    assert slower["allowed"] == 0.25
    assert slower["within_bound"] and not slower["unresolved"]
    assert not tool.compare(tight, [v * 1.3 for v in tight], "lower", 0.25)["within_bound"]
    # a spread wider than the bound on either side leaves the verdict unresolved ...
    assert tool.compare(tight, wide, "lower", 0.25)["unresolved"]
    assert tool.compare(wide, tight, "lower", 0.25)["unresolved"]
    # ... unless every change run beats every parent run
    apart = tool.compare([v + 1.0 for v in wide], wide, "lower", 0.1)
    assert apart["within_bound"] and not apart["unresolved"]
    # a higher-is-better metric is worse when it drops
    assert tool.compare([1.0] * 10, [0.97] * 10, "higher", 0.05)["within_bound"]
    assert not tool.compare([1.0] * 10, [0.9] * 10, "higher", 0.05)["within_bound"]


def test_exit_code_crosses_the_process_boundary():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spinchain.cli", "fidelity", "--n", "not-a-number"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
    )
    assert proc.returncode == 2
