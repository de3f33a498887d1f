import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import spinchain
from spinchain import (ChainSpec, WindowSelectionError, build_hamiltonian,
                       collect_spacings, dimension_of_series, dimension_scan,
                       ensemble_averages, eta, eta_scan, fidelity_series, fit_scaling,
                       perturbation_comparison, sample_disorder, scan_fidelity,
                       substream, transfer_time)
from spinchain.boxcount import DIMENSION_HEADER
from spinchain.chain import grid_cells
from spinchain import cli, tableio
from spinchain.cli import OPTIONS, main
from spinchain.fitting import FitResult, threshold_scaling
from spinchain.levelstats import ETA_HEADER
from spinchain.scans import FidelityPoint, PerturbationRow, threshold_curves
from spinchain.tableio import read_csv, sidecar_path, write_sidecar


ROOT = Path(__file__).parents[1]


def run_cli(*argv):
    assert main([str(a) for a in argv]) == 0


def read_sidecar(csv_path):
    return json.loads(sidecar_path(csv_path).read_text())


def test_transfer_matches_library_call(tmp_path):
    out = tmp_path / "transfer.csv"
    run_cli("transfer", "--n", 12, "--eps-j", 0.05, "--seed", 7,
            "--t-max", 3.0, "--dt", 0.01, "--out", out)
    metadata, header, rows = read_csv(out)
    assert header == ["time", "amp_real", "amp_imag", "fidelity"]
    spec = ChainSpec(n_sites=12, eps_j=0.05)
    series = fidelity_series(build_hamiltonian(spec, sample_disorder(spec, substream(7, 0))),
                             3.0, 0.01)
    assert len(rows) == len(series)
    assert rows[5][3] == series.fidelity[5]          # 17 digits round-trip
    assert metadata["seed"] == "7"
    assert read_sidecar(out)["command"] == "transfer"


def test_scan_deterministic_bytes(tmp_path):
    args = ("scan", "--n", 8, 12, "--eps-j", 0.02, 0.1, "--n-real", 10,
            "--seed", 13)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*args, "--out", out1)
    run_cli(*args, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()
    side1 = read_sidecar(out1)
    side2 = read_sidecar(out2)
    side1.pop("wall_clock"), side2.pop("wall_clock")
    assert side1 == side2


def test_scan_then_fit_and_threshold_round_trip(tmp_path):
    table = tmp_path / "table.csv"
    # synthetic table written through the CSV layer
    from spinchain.scans import FidelityPoint
    from spinchain.tableio import write_csv
    rows = []
    for n in (10, 40, 160):
        for eps in np.sqrt(-np.log(0.8) / (0.2 * n)) * np.geomspace(0.3, 3, 9):
            fbar = 0.5 * (1 + np.exp(-0.2 * n * eps * eps))
            rows.append(FidelityPoint(n, eps, 0.0, 0.5, fbar, 0.0, 1))
    write_csv(table, FidelityPoint._fields, rows, metadata={"seed": 1})

    fit_out = tmp_path / "fit.csv"
    run_cli("fit-scaling", "--table", table, "--out", fit_out)
    _, header, fit_rows = read_csv(fit_out)
    values = {r[0]: r[1] for r in fit_rows}
    assert values["kappa_j"] == pytest.approx(0.2, abs=1e-12)

    thr_out = tmp_path / "thr.csv"
    run_cli("threshold", "--table", table, "--f-target", 0.9, "--param", "eps_j",
            "--out", thr_out)
    side = read_sidecar(thr_out)
    exponent = side["targets"]["0.90000000000000002"]["fit"]["params"]["exponent"]
    assert exponent == pytest.approx(-0.5, abs=1e-9)


def test_spectrum_and_eta_scan(tmp_path):
    out = tmp_path / "spec.csv"
    run_cli("spectrum", "--n", 40, "--eps-j", 0.0, "--n-real", 5, "--seed", 3,
            "--out", out)
    side = read_sidecar(out)
    assert side["eta"] == 1.0
    _, header, rows = read_csv(out)
    widths = [r[1] - r[0] for r in rows]
    mass = sum(w * r[3] for w, r in zip(widths, rows))
    assert mass == pytest.approx(1.0, abs=1e-12)

    out2 = tmp_path / "eta.csv"
    run_cli("eta-scan", "--n", 30, "--eps-j", 0.001, 1.0, "--n-real", 40,
            "--seed", 4, "--out", out2)
    _, _, rows2 = read_csv(out2)
    assert rows2[0][2] > rows2[1][2]  # eta falls with disorder


def test_fractal_command(tmp_path):
    out = tmp_path / "frac.csv"
    run_cli("fractal", "--n", 40, "--eps-j", 0.4, "--seed", 6,
            "--t-max", 2000, "--dt", 0.05, "--out", out)
    side = read_sidecar(out)
    assert 1.0 <= side["fit"]["params"]["dimension"] <= 2.0
    _, header, rows = read_csv(out)
    assert header == ["box_length", "m"]
    assert len(rows) >= 10


def test_perturbation_command(tmp_path):
    out = tmp_path / "pert.csv"
    run_cli("perturbation", "--n", 6, "--eps", 0.003, 0.01, "--sector", "b",
            "--n-real", 200, "--seed", 9, "--out", out)
    _, header, rows = read_csv(out)
    assert [r[0] for r in rows] == ["b", "b"]
    side = read_sidecar(out)
    assert abs(side["sectors"]["b"]["slope_fit"]["params"]["exponent"] - 2.0) < 0.3


@pytest.mark.parametrize("t, refused", [(1.0, True), (0.0, True),
                                        (3 * transfer_time(), False)])
def test_perturbation_refuses_a_non_transfer_time(tmp_path, t, refused):
    out = tmp_path / "pert.csv"
    argv = ("perturbation", "--n", 6, "--eps", 0.01, "--sector", "b",
            "--n-real", 20, "--seed", 1, "--t", t, "--out", out)
    if not refused:
        run_cli(*argv)
        assert 0.99 < read_csv(out)[2][0][4] < 1.0
        return
    with pytest.raises(SystemExit) as err:
        main([str(a) for a in argv])
    assert f"perturbation: --t {t!r}: " in str(err.value)
    assert "nearest t = 0.7853981633974483" in str(err.value)
    assert not out.exists()


def test_perturbation_fits_its_slope_without_an_eps_of_zero(tmp_path):
    # eps = 0 is the clean chain, whose infidelity is rounding: its row is
    # written, but the log-log slope cannot take it
    out = tmp_path / "pert.csv"
    run_cli("perturbation", "--n", 8, "--eps", 0, 0.01, 0.03, "--n-real", 10,
            "--seed", 1, "--out", out)
    _, _, rows = read_csv(out)
    assert [(r[0], r[1]) for r in rows] == [(s, e) for s in "jb" for e in (0.0, 0.01, 0.03)]
    assert all(np.isnan(r[7]) and np.isnan(r[8]) for r in rows if r[1] == 0.0)
    for summary in read_sidecar(out)["sectors"].values():
        assert summary["slope_fit"]["mask"] == [1, 2]
    # one distinct eps leaves no slope to fit, which is no error of --t
    run_cli("perturbation", "--n", 8, "--eps", 0.01, 0.01, "--n-real", 10,
            "--seed", 1, "--out", out)
    assert [summary["slope_fit"] for summary in read_sidecar(out)["sectors"].values()] \
        == [None, None]


def test_sidecar_records_the_library_versions(tmp_path, monkeypatch):
    # scipy's version only where the run has loaded scipy
    import scipy
    versions = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__}
    write_sidecar(tmp_path / "a.csv", {})
    assert read_sidecar(tmp_path / "a.csv")["libraries"] == {**versions,
                                                             "scipy": scipy.__version__}
    monkeypatch.delitem(sys.modules, "scipy")
    write_sidecar(tmp_path / "b.csv", {})
    assert read_sidecar(tmp_path / "b.csv")["libraries"] == {**versions, "scipy": None}


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_sidecars_are_strict_json(tmp_path):
    # a two-point slope fit has a NaN stderr, which the sidecar writes as null
    out = tmp_path / "pert.csv"
    for argv in ("--n 8 --eps 0 0.01 0.03", "--n 6 --eps 0.003 0.01"):
        run_cli("perturbation", *argv.split(), "--n-real", 10, "--seed", 1, "--out", out)
        side = _strict_json(sidecar_path(out))
        assert [summary["slope_fit"]["stderr"] for summary in side["sectors"].values()] \
            == [{"exponent": None}, {"exponent": None}], argv
    write_sidecar(out, {"values": [np.nan, -np.inf, np.float32(np.inf), 1.5]})
    assert _strict_json(sidecar_path(out))["values"] == [None, None, None, 1.5]


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# seed=1\n\nx,y\n  \n1,2\n\n3,abc\n")
    assert read_csv(path) == ({"seed": "1"}, ["x", "y"], [(1.0, 2.0), (3.0, "abc")])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8 12\neps-j = 0.02 0.1\nn_real = 10\nseed = 13\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("scan", "--config", cfg, "--out", out1)
    run_cli("scan", "--n", 8, 12, "--eps-j", 0.02, 0.1, "--n-real", 10,
            "--seed", 13, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()
    # flags override the file
    out3 = tmp_path / "c.csv"
    run_cli("scan", "--config", cfg, "--n-real", 5, "--out", out3)
    _, _, rows = read_csv(out3)
    assert rows[0][6] == 5


def test_missing_seed_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["scan", "--n", "8", "--out", str(tmp_path / "x.csv")])


def test_scan_table_reads_back_as_the_points_that_wrote_it(tmp_path):
    out = tmp_path / "scan.csv"
    run_cli("scan", "--n", 6, 11, 17, "--eps-j", 0.0, 0.07, 0.4, "--eps-b", 0.0, 0.3,
            "--corr-p", 0.3, "--n-real", 12, "--seed", 21, "--out", out)
    _, _, rows = cli._read_tables("fit-scaling", [str(out)], (FidelityPoint._fields,))
    read_back = [FidelityPoint(*row) for row in rows]
    points = scan_fidelity((6, 11, 17), (0.0, 0.07, 0.4), 12, 21,
                           eps_b_grid=(0.0, 0.3), corr_p_grid=(0.3,))
    assert len(points) == 18 and read_back == points
    for back, point in zip(read_back, points):
        assert type(back.n_sites) is int and type(back.n_real) is int
        assert all(a.hex() == b.hex() for a, b in zip(back[1:6], point[1:6]))


def test_scan_corr_p_half_rows_equal_plain_scan_rows(tmp_path):
    # corr_p is the outer axis and does not enter the stream keys
    grid = ("--n", 8, 12, "--eps-j", 0.05, 0.2, "--eps-b", 0, 0.3, "--n-real", 10,
            "--seed", 5)
    corr, plain = tmp_path / "corr.csv", tmp_path / "scan.csv"
    run_cli("scan", *grid, "--corr-p", 0.1, 0.5, 0.9, "--out", corr)
    run_cli("scan", *grid, "--out", plain)
    _, corr_header, corr_rows = read_csv(corr)
    _, scan_header, scan_rows = read_csv(plain)
    assert corr_header == scan_header
    assert [r[3] for r in corr_rows] == [0.1] * 8 + [0.5] * 8 + [0.9] * 8
    assert corr_rows[8:16] == scan_rows
    assert read_sidecar(corr)["config"]["corr_p"] == \
        "0.10000000000000001 0.5 0.90000000000000002"


@pytest.mark.parametrize("given, missing", [("--l-min", "--l-max"),
                                            ("--l-max", "--l-min")])
def test_fractal_manual_window_needs_both_edges(tmp_path, given, missing):
    out = tmp_path / "frac.csv"
    with pytest.raises(SystemExit) as err:
        main(["fractal", "--n", "20", "--eps-j", "0.4", "--seed", "6",
              "--t-max", "200", given, "1", "--out", str(out)])
    assert f"{missing} is missing" in str(err.value)
    assert not out.exists()


def test_fractal_exits_on_a_constant_series(tmp_path):
    # at N = 500 and eps_j = 1.2 this draw's |f_N| stays below 1e-30 up to
    # t = 100, so F is exactly 1/2 and box counting has no excursion to count
    out = tmp_path / "frac.csv"
    with pytest.raises(SystemExit) as err:
        main(["fractal", "--n", "500", "--eps-j", "1.2", "--t-max", "100", "--seed", "1",
              "--out", str(out)])
    assert str(err.value).startswith("fractal: all excursions vanish (constant series), "
                                     "dimension undefined: the largest |f_N| is ")
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command computed before checking its options")


@pytest.mark.parametrize("argv, flags, checked_first", [
    # 21 samples, where box counting needs 33
    ("fractal --n 20 --t-max 1 --dt 0.05", "--t-max 1.0 --dt 0.05", True),
    ("dimension-scan --n 20 --eps-j 0.3 --t-max 1 --dt 0.05", "--t-max 1.0 --dt 0.05",
     True),
    ("fractal --n 20 --eps-j 0.4 --t-max 200 --l-min 2 --l-max 1",
     "--l-min 2.0 --l-max 1.0", True),
    # which box lengths a window holds is known once the series is counted
    ("fractal --n 20 --eps-j 0.4 --t-max 200 --l-min 1 --l-max 2",
     "--l-min 1.0 --l-max 2.0", False),
    # t_max / dt overflows to an infinite sample count
    ("transfer --n 20 --t-max 1e308 --dt 1e-300", "--t-max 1e+308 --dt 1e-300", True),
    ("fractal --n 20 --t-max 1e308 --dt 1e-300", "--t-max 1e+308 --dt 1e-300", True),
    ("dimension-scan --n 20 --eps-j 0.3 --t-max 1e308 --dt 1e-300",
     "--t-max 1e+308 --dt 1e-300", True),
], ids=["fractal-too-short", "dimension-scan-too-short", "fractal-reversed-window",
        "fractal-window-too-narrow", "transfer-overflow", "fractal-overflow",
        "dimension-scan-overflow"])
def test_box_count_options_exit_naming_their_flags(tmp_path, monkeypatch, argv, flags,
                                                   checked_first):
    if checked_first:
        monkeypatch.setattr(cli, "fidelity_series", _no_work)
        monkeypatch.setattr(cli, "dimension_scan", _no_work)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(argv.split() + ["--seed", "1", "--out", str(out)])
    assert str(err.value).startswith(f"{argv.split()[0]}: {flags}: ")
    assert not out.exists()


# command -> (a table it does not read, the header it must list as found)
OTHER_KIND = {
    "fit-scaling": ("eta-scan --n 10 --eps-j 0.1 0.5 --n-real 3 --seed 4",
                    "n_sites,eps_j,eta"),
    "threshold": ("spectrum --n 10 --eps-j 0.1 --n-real 3 --seed 4",
                  "bin_left,bin_right,bin_center,density"),
}


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
def test_table_commands_reject_a_table_of_another_kind(tmp_path, command):
    argv, found = OTHER_KIND[command]
    table = tmp_path / "other.csv"
    run_cli(*argv.split(), "--out", table)
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(tmp_path / "x.csv")])
    message = str(err.value)
    assert "n_sites,eps_j,eps_b,corr_p,fbar,stderr,n_real" in message
    assert f"found {found}" in message
    if command == "threshold":
        assert "n_sites,eps_j,eta or n_sites,eps_j,dimension,stderr,refused" in message


# command -> the headers it accepts, as its refusal lists them
ACCEPTED_HEADERS = {
    "fit-scaling": "n_sites,eps_j,eps_b,corr_p,fbar,stderr,n_real",
    "threshold": "n_sites,eps_j,eps_b,corr_p,fbar,stderr,n_real or n_sites,eps_j,eta "
                 "or n_sites,eps_j,dimension,stderr,refused",
}


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
def test_table_commands_name_the_accepted_and_the_found_header(tmp_path, command):
    table = tmp_path / "transfer.csv"
    run_cli("transfer", "--n", 6, "--t-max", 0.05, "--seed", 1, "--out", table)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(out)])
    assert str(err.value) == (f"{command}: --table {table}: expected a table with header "
                              f"{ACCEPTED_HEADERS[command]}, found "
                              "time,amp_real,amp_imag,fidelity")
    assert not out.exists()


# a field of the scan row N=10, eps_j=0.1 set to a value no scan writes,
# and the refusal that names it
IMPOSSIBLE_POINTS = [
    ("fbar", math.inf, "fbar inf lies outside [1/2, 1]"),
    ("fbar", math.nan, "fbar nan lies outside [1/2, 1]"),
    ("fbar", 7.0, "fbar 7.0 lies outside [1/2, 1]"),
    ("fbar", 0.3, "fbar 0.3 lies outside [1/2, 1]"),
    ("eps_b", -0.1, "disorder amplitudes must be finite and >= 0"),
    ("corr_p", 1.5, "corr_p must lie in [0, 1], got 1.5"),
]


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
@pytest.mark.parametrize("field, value, reason", IMPOSSIBLE_POINTS,
                         ids=[f"{field}-{value}" for field, value, _ in IMPOSSIBLE_POINTS])
def test_table_commands_refuse_an_impossible_point(tmp_path, command, field, value,
                                                   reason):
    points = [FidelityPoint(n, e, 0.0, 0.5, 0.5 * (1 + math.exp(-0.25 * n * e * e)),
                            0.01, 20) for n in (10, 20) for e in (0.05, 0.1, 0.2, 0.4)]
    intact, table = tmp_path / "intact.csv", tmp_path / "table.csv"
    tableio.write_csv(intact, FidelityPoint._fields, points)
    run_cli(command, "--table", intact, "--out", tmp_path / "intact-out.csv")
    points[1] = points[1]._replace(**{field: value})
    tableio.write_csv(table, FidelityPoint._fields, points)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(out)])
    assert str(err.value) == (f"{command}: --table {table}: the point N=10, eps_j=0.1, "
                              f"eps_b={points[1].eps_b}: {reason}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
def test_table_commands_refuse_a_table_of_several_corr_p(tmp_path, command):
    table = tmp_path / "corr.csv"
    run_cli("scan", "--n", 8, 12, "--eps-j", 0.05, 0.2, "--corr-p", 0.1, 0.9,
            "--n-real", 4, "--seed", 3, "--out", table)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(out)])
    assert "mix corr_p values 0.1, 0.9" in str(err.value)
    assert not out.exists()


def test_perturbation_both_sectors_match_one_library_call_each(tmp_path):
    # the table is the rows of one two-sector call, which are those of one
    # call per sector; the header is PerturbationRow's fields
    out = tmp_path / "pert.csv"
    run_cli("perturbation", "--n", 6, "--eps", 0.003, 0.01, "--n-real", 50,
            "--seed", 9, "--out", out)
    _, header, rows = read_csv(out)
    assert tuple(header) == PerturbationRow._fields
    both, sectors = perturbation_comparison(6, [0.003, 0.01], ("j", "b"), 50, 9)
    one_each = [r for sector in ("j", "b")
                for r in perturbation_comparison(6, [0.003, 0.01], (sector,), 50, 9)[0]]
    assert [tuple(r) for r in rows] == both == one_each
    assert list(sectors) == ["j", "b"]
    assert json.loads(tableio._json_text(sectors)) == read_sidecar(out)["sectors"]


def test_sidecar_writes_a_fit_result_as_its_fields(tmp_path):
    fits = [FitResult(model="m", params={"a": 1.5}, stderr={"a": np.float64(0.25)},
                      residual_norm=0.5, mask=(np.int64(0), 2), window=(1.0, 8.0)),
            FitResult(model="n", params={}, stderr={}, residual_norm=0.0)]
    write_sidecar(tmp_path / "t.csv", {"fits": fits, "kind": FitResult})
    side = read_sidecar(tmp_path / "t.csv")
    assert side["fits"] == [
        {"model": "m", "params": {"a": 1.5}, "stderr": {"a": 0.25},
         "residual_norm": 0.5, "mask": [0, 2], "window": [1.0, 8.0]},
        {"model": "n", "params": {}, "stderr": {}, "residual_norm": 0.0,
         "mask": [], "window": None}]
    assert side["kind"] == str(FitResult)  # a dataclass type is no instance


@pytest.mark.parametrize("argv, config, flag", [
    ("perturbation --n 6 --n-real 0", "", "--n-real"),
    ("perturbation --n 6 --eps 0.01 -0.01", "", "--eps"),
    ("scan --n 8 --eps-j -0.1", "", "--eps-j"),
    ("scan --n 8", "eps_b = 0.1 -0.1", "--eps-b"),
    ("scan --n 8 --eps-j 0.1", "n-real = 0", "--n-real"),
    ("spectrum --n 8 --n-real -3", "", "--n-real"),
    ("eta-scan --n 8 --eps-j 0.1 --n-real 0", "", "--n-real"),
    ("transfer --n 8 --eps-b -0.1", "", "--eps-b"),
    ("transfer --n 8", "dt = 0", "--dt"),
    ("fractal --n 8 --dt 0", "", "--dt"),
    ("fractal --n 8 --t-max 0.01", "", "--t-max"),
    ("scan --n 8 1", "", "--n"),
    ("transfer --n 1", "", "--n"),
    ("scan --n 8 --eps-j inf", "", "--eps-j"),
    ("scan --n 8 --eps-j 0.1 --corr-p 0.5 1.5", "", "--corr-p"),
    ("transfer --n 8 --corr-p nan", "", "--corr-p"),
    ("spectrum --n 8 --bin-width 0", "", "--bin-width"),
    ("eta-scan --n 8 --eps-j 0.1", "bin_width = inf", "--bin-width"),
    # no bin center lies in [0, 1] above width 4, so eta is undefined
    ("spectrum --n 8 --bin-width 5", "", "--bin-width"),
    ("eta-scan --n 8 --eps-j 0.1 --bin-width 4.5", "", "--bin-width"),
    ("fractal --n 8 --t-max inf", "", "--t-max"),
    ("fractal --n 8 --l-min 1 --l-max nan", "", "--l-max"),
    ("fractal --n 8 --l-min 1", "l_max = nan", "--l-max"),
    ("fractal --n 8 --l-min nan", "", "--l-min"),
    ("scan --n 8 --t-eval nan", "", "--t-eval"),
    ("scan --n 8 --eps-j 0.1", "t_eval = inf", "--t-eval"),
    ("perturbation --n 6", "t = -inf", "--t"),
    ("scan --n 10 --eps-j 0.1 --n-real 5 --seed -1", "", "--seed"),
    ("transfer --n 8", "seed = -1", "--seed"),
    # after a flag every word that parses as a float is a value; argparse
    # alone reads only plain negative decimals there as values
    ("perturbation --n 6 --n-real 3 --t -1e-3", "", "--t"),
    ("perturbation --n 6 --n-real 3 --t -inf", "", "--t"),
    ("scan --n 6 --n-real 3 --eps-b 0.1 -1e-3", "", "--eps-b"),
    ("scan --n 6 --n-real 3 --eps-j -2E-1 0.1", "", "--eps-j"),
    ("scan --n 6 --n-real 3", "eps_b = 0.1 -1e-3", "--eps-b"),
])
def test_out_of_range_options_exit_naming_the_flag(tmp_path, argv, config, flag):
    out = tmp_path / "x.csv"
    extra = ["--out", str(out)]
    if "seed" not in argv + config:
        extra += ["--seed", "1"]
    if config:
        (tmp_path / "run.cfg").write_text(config + "\n")
        extra += ["--config", str(tmp_path / "run.cfg")]
    with pytest.raises(SystemExit) as err:
        main(argv.split() + extra)
    assert f"{argv.split()[0]}: {flag} " in str(err.value)
    assert not out.exists()


def test_transfer_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(spinchain.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "spinchain", "transfer", "--n", "300",
                        "--eps-j", "0.1", "--t-max", "2e3", "--dt", "0.05",
                        "--seed", "3", "--out", str(out)], env=env, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


_SCIPY_PROBE = """
import json, sys
from spinchain.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
loaded = [["import", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
    loaded.append([argv[0], scipy_modules()])
print(json.dumps(loaded))
"""


def every_command(tmp_path) -> list:
    """All nine commands at small sizes, those that never load scipy first."""
    scan = str(tmp_path / "scan.csv")
    return [
        ["scan", "--n", "8", "16", "--eps-j", "0.05", "0.1", "0.2", "0.4",
         "--n-real", "20", "--seed", "3", "--out", scan],
        ["scan", "--n", "8", "--eps-j", "0.1", "--corr-p", "0.2", "0.5",
         "--n-real", "5", "--seed", "3", "--out", str(tmp_path / "corr.csv")],
        ["fit-scaling", "--table", scan, "--out", str(tmp_path / "fit.csv")],
        ["threshold", "--table", scan, "--f-target", "0.9", "--param", "eps_j",
         "--out", str(tmp_path / "thr.csv")],
        ["perturbation", "--n", "8", "--eps", "0.01", "--n-real", "5", "--seed", "3",
         "--out", str(tmp_path / "pert.csv")],
        ["eta-scan", "--n", "10", "--eps-j", "0.1", "1.0", "--n-real", "5",
         "--seed", "4", "--out", str(tmp_path / "eta_fresh.csv")],
        ["transfer", "--n", "12", "--eps-j", "0.05", "--t-max", "3", "--seed", "7",
         "--out", str(tmp_path / "transfer.csv")],
        ["transfer", "--n", "12", "--eps-j", "0.05", "--eps-b", "0.1", "--t-max", "3",
         "--seed", "7", "--out", str(tmp_path / "transfer-fields.csv")],
        ["spectrum", "--n", "20", "--eps-j", "0.3", "--eps-b", "0.2", "--n-real", "5",
         "--seed", "5", "--out", str(tmp_path / "spectrum.csv")],
        ["fractal", "--n", "40", "--eps-j", "0.4", "--t-max", "200", "--seed", "6",
         "--out", str(tmp_path / "fractal.csv")],
        ["dimension-scan", "--n", "12", "--eps-j", "0.3", "1.0", "--n-real", "2",
         "--t-max", "35", "--seed", "8", "--out", str(tmp_path / "dimension.csv")],
    ]


def test_scan_and_table_commands_run_without_scipy(tmp_path):
    # scan and perturbation propagate by Chebyshev, perturbation builds its
    # clean basis in closed form and the fits are numpy, so these commands
    # never load scipy; the eigensolving ones bind sterf and dqds from the
    # capsules of scipy's cython_lapack and never load scipy.linalg
    commands = every_command(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(spinchain.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
                           env=env, check=True, capture_output=True, text=True)
    loaded = json.loads(probe.stdout)
    assert [stage for stage, _ in loaded] == ["import", *(argv[0] for argv in commands)]
    for stage, modules in loaded[:6]:
        assert modules == [], stage
    assert read_sidecar(tmp_path / "pert.csv")["libraries"]["scipy"] is None
    for (stage, modules), argv in zip(loaded[6:], commands[5:]):
        assert [m for m in modules if m.startswith("scipy.linalg")] == [], stage
        assert read_sidecar(argv[-1])["libraries"]["scipy"] == scipy.__version__, stage
    run_cli(*commands[5][:-1], tmp_path / "eta.csv")
    assert (tmp_path / "eta_fresh.csv").read_bytes() == (tmp_path / "eta.csv").read_bytes()


_IMPORT_AFTER_AN_EIGENSOLVE = """
import ctypes, sys
import numpy as np
from spinchain import levelstats
levels = levelstats.eigvalsh_tridiagonal(np.full(3, 0.5), np.ones(2))
levelstats.eigvalsh_tridiagonal(np.zeros(3), np.ones(2))
assert sorted(levelstats._BOUND) == ["dlasq1", "dsterf"]
assert not [m for m in sys.modules if m.startswith("scipy.linalg")]
loaded = levelstats._cython_lapack()
import scipy.linalg
assert scipy.linalg.cython_lapack is loaded
assert sys.modules["scipy.linalg.cython_lapack"] is loaded
get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
for name, routine in levelstats._BOUND.items():
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    assert ctypes.cast(routine, ctypes.c_void_p).value == get_pointer(capsule, get_name(capsule))
assert (scipy.linalg.eigvalsh_tridiagonal(np.full(3, 0.5), np.ones(2), lapack_driver="sterf")
        .tobytes() == levels.tobytes())
"""


# Public names that no command enters, each with the benchmark file that
# reads it; each goes when the benchmark stops reading it.
BENCHMARK_READS = {
    "chain.substream": "benchmark/oracle.py",
    "chain.sample_disorder": "benchmark/oracle.py",
    "chain.build_hamiltonian": "benchmark/oracle.py",
    "chain.TridiagonalHamiltonian.dense": "benchmark/oracle.py",
    "evolve.eigh_tridiagonal": "benchmark/tracer.py",
    "levelstats.SpacingHistogram.mass": "benchmark/oracle.py",
    "perturbation.PerturbationCoefficients.step": "benchmark/tracer.py",
}


def _public_code() -> dict:
    """{"module.name" or "module.Class.member": code object} of every public
    function, method and property defined in a spinchain module."""
    found = {}
    for info in pkgutil.iter_modules(spinchain.__path__):
        if info.name == "__main__":   # importing it would run a command
            continue
        module = importlib.import_module(f"spinchain.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            for member, value in vars(obj).items() if inspect.isclass(obj) else ():
                fn = getattr(value, "fget", getattr(value, "__func__", value))
                if not member.startswith("_") and inspect.isfunction(fn):
                    found[f"{info.name}.{name}.{member}"] = fn.__code__
    return found


def test_every_public_callable_is_run_by_a_command(tmp_path):
    # src/ holds what the commands run: a public name that no command
    # enters is dead code, unless the benchmark reads it
    config = tmp_path / "run.cfg"
    config.write_text("eps_j = 0.05\nt_max = 3\n")
    runs = every_command(tmp_path) + [
        ["transfer", "--config", config, "--n", "12", "--seed", "7",
         "--out", tmp_path / "config.csv"],
        ["fractal", "--n", "40", "--eps-j", "0.4", "--t-max", "200", "--seed", "6",
         "--l-min", "0.2", "--l-max", "5", "--out", tmp_path / "manual.csv"]]
    assert {argv[0] for argv in runs} == set(OPTIONS)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            run_cli(*argv)
    finally:
        sys.setprofile(previous)
    unreached = {name for name, code in _public_code().items() if code not in entered}
    assert sorted(unreached - BENCHMARK_READS.keys()) == [], "entered by no command"
    assert sorted(BENCHMARK_READS.keys() - unreached) == [], "now entered by a command"
    for name, path in BENCHMARK_READS.items():
        attr = name.rsplit(".", 1)[1]
        assert re.search(rf"\b{attr}\b", (ROOT / path).read_text()), (name, path)


def test_oracles_do_not_import_spinchain():
    # tests/oracles.py is the independent reference: no package code in it
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "numpy" in imported
    assert [m for m in imported if m.partition(".")[0] == "spinchain"] == []


def test_scipy_linalg_imported_after_an_eigensolve_shares_the_bound_module():
    # the binder loads cython_lapack by its path and leaves no half-registered
    # submodule; a later import scipy.linalg takes the same module object
    env = {**os.environ, "PYTHONPATH": str(Path(spinchain.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", _IMPORT_AFTER_AN_EIGENSOLVE], env=env, check=True)


DATA = Path(__file__).parent / "data"


def _column_gaps(path, golden) -> str:
    """Each column's largest absolute and relative gap of the table at path
    against the golden one, plus the metadata lines that differ; or why
    the two cannot be compared row by row."""
    meta, header, rows = read_csv(path)
    golden_meta, golden_header, golden_rows = read_csv(golden)
    if header != golden_header or len(rows) != len(golden_rows):
        return (f"{len(rows)} rows of {','.join(header)} against {len(golden_rows)} "
                f"rows of {','.join(golden_header)}")
    lines = [f"# {key}: {meta.get(key)!r} against {golden_meta.get(key)!r}"
             for key in sorted(meta.keys() | golden_meta.keys())
             if meta.get(key) != golden_meta.get(key)]
    for column, values, expected in zip(header, zip(*rows), zip(*golden_rows)):
        if any(isinstance(v, str) for v in values + expected):
            differ = sum(a != b for a, b in zip(values, expected))
            lines.append(f"{column}: {differ} rows differ")
            continue
        a, b = np.array(values), np.array(expected)
        with np.errstate(all="ignore"):
            gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
            gap = np.nan_to_num(gap, nan=np.inf)
            relative = np.where(gap == 0.0, 0.0, gap / np.abs(b))
        lines.append(f"{column}: max abs gap {gap.max():.3g}, "
                     f"max rel gap {np.nan_to_num(relative, nan=np.inf).max():.3g}")
    return "\n".join(lines)


def test_column_gaps_name_each_columns_largest_gap(tmp_path):
    header = ("sector", "eps", "fbar")
    tableio.write_csv(tmp_path / "golden.csv", header,
                      [("j", 0.1, 0.5), ("b", 0.2, np.nan)], metadata={"seed": 1})
    tableio.write_csv(tmp_path / "out.csv", header,
                      [("j", 0.1, 0.5 + 1e-12), ("b", 0.2, np.nan)], metadata={"seed": 2})
    assert _column_gaps(tmp_path / "out.csv", tmp_path / "golden.csv").splitlines() == [
        "# seed: '2' against '1'", "sector: 0 rows differ",
        "eps: max abs gap 0, max rel gap 0", "fbar: max abs gap 1e-12, max rel gap 2e-12"]
    tableio.write_csv(tmp_path / "short.csv", header, [("j", 0.1, 0.5)])
    assert _column_gaps(tmp_path / "short.csv", tmp_path / "golden.csv") == \
        "1 rows of sector,eps,fbar against 2 rows of sector,eps,fbar"


# Tables written at fixed seeds by the commit that recorded tests/data; the
# CSV bytes of a fixed seed are part of the package's contract.  The table
# commands record their --table paths, so they run in a fixed directory:
# tests/data for its committed tables, or the test's own directory for a
# table written by the commands before " && ".
@pytest.mark.parametrize("name, argv", [
    ("scan", "scan --n 6 16 --eps-j 0 0.05 0.3 --eps-b 0 0.2 --corr-p 0.3 "
             "--n-real 150 --seed 13"),
    ("perturbation", "perturbation --n 8 --eps 0.003 0.01 0.03 --n-real 150 --seed 9"),
    ("eta-scan", "eta-scan --n 10 30 --eps-j 0.003 0.1 1.0 --n-real 40 --seed 4"),
    ("spectrum", "spectrum --n 30 --eps-j 0.2 --eps-b 0.1 --corr-p 0.3 --n-real 40 "
                 "--seed 3"),
    ("transfer", "transfer --n 12 --eps-j 0.05 --eps-b 0.1 --corr-p 0.7 --t-max 3 "
                 "--dt 0.01 --seed 7"),
    # no field: the series sums over sigma > 0 alone (dqds start, folded sum)
    ("transfer-zero-field", "transfer --n 12 --eps-j 0.05 --t-max 3 --seed 7"),
    ("fractal", "fractal --n 40 --eps-j 0.4 --t-max 200 --seed 6"),
    ("scan-corr-p", "scan --n 8 12 --eps-j 0.05 0.2 --corr-p 0.1 0.5 0.9 "
                    "--n-real 30 --seed 5"),
    ("dimension-scan", "dimension-scan --n 12 20 --eps-j 0.3 0.6 1.0 --t-max 35 "
                       "--n-real 3 --seed 1"),
    ("threshold-eta-scan", "threshold --table eta-scan.csv --f-target 0.5"),
    # 1.4 is crossed at N = 12 only: the sidecar records it as skipped
    ("threshold-dimension-scan", "threshold --table dimension-scan.csv "
                                 "--f-target 1.6 1.4"),
    ("fit-scaling", "scan --n 6 16 --eps-j 0 0.05 0.1 0.3 --eps-b 0 0.5 1 2 "
                    "--n-real 150 --seed 13 --out s.csv && fit-scaling --table s.csv"),
])
def test_output_matches_the_committed_golden_table(tmp_path, monkeypatch, name, argv):
    out = tmp_path / f"{name}.csv"
    *tables, command = argv.split(" && ")
    monkeypatch.chdir(tmp_path if tables else DATA)
    for table in tables:
        run_cli(*table.split())
    run_cli(*command.split(), "--out", out)
    golden = DATA / f"{name}.csv"
    assert out.read_bytes() == golden.read_bytes(), _column_gaps(out, golden)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform sets no CPU affinity")
@pytest.mark.parametrize("name, argv", [
    ("eta-scan", "eta-scan --n 10 30 --eps-j 0.003 0.1 1.0 --n-real 40 --seed 4"),
    ("spectrum", "spectrum --n 30 --eps-j 0.2 --eps-b 0.1 --corr-p 0.3 --n-real 40 "
                 "--seed 3"),
])
def test_level_statistics_bytes_do_not_depend_on_cpu_affinity(tmp_path, name, argv):
    # collect_spacings runs one thread per CPU the process may use: one
    # CPU runs no thread, the host's CPUs as many as there are
    run = ("import os, sys\n"
           "if sys.argv[1] == 'one':\n"
           "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
           "from spinchain.cli import main\n"
           "sys.exit(main(sys.argv[2:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(spinchain.__file__).parents[1])}
    for cpus in ("one", "all"):
        out = tmp_path / f"{cpus}.csv"
        done = subprocess.run([sys.executable, "-c", run, cpus, *argv.split(),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes(), cpus


def test_dimension_scan_command_matches_the_library(tmp_path):
    # a repeated eps_j is its own cell: its refusals are counted apart
    grid = (0.6, 0.3, 0.6)
    out = tmp_path / "dim.csv"
    run_cli("dimension-scan", "--n", 12, 20, "--eps-j", *grid, "--t-max", 35,
            "--n-real", 3, "--seed", 1, "--out", out)
    _, header, rows = read_csv(out)
    assert header == ["n_sites", "eps_j", "dimension", "stderr", "refused"]
    expected, refusals = dimension_scan((12, 20), grid, 3, 1, t_max=35.0)
    assert [r[4] for r in rows] == [0, 1, 1, 1, 0, 1]   # refusals in this draw
    np.testing.assert_array_equal(np.array(rows, dtype=float), np.array(expected, dtype=float))
    assert read_sidecar(out)["refusals"] == refusals


def _dimension_of_cell(spec, seed, key, n_real, t_max):
    """(mean D, stderr, refused) of realizations substream(seed, *key, r)."""
    dims = []
    for r in range(n_real):
        h = build_hamiltonian(spec, sample_disorder(spec, substream(seed, *key, r)))
        try:
            dims.append(dimension_of_series(fidelity_series(h, t_max, 0.05))[0]
                        .params["dimension"])
        except WindowSelectionError:
            pass
    if not dims:
        return np.nan, np.nan, n_real
    err = np.std(dims, ddof=1) / np.sqrt(len(dims)) if len(dims) > 1 else 0.0
    return np.mean(dims), err, n_real - len(dims)


def test_grid_commands_share_the_grid_cells_key_layout(tmp_path):
    # the cell of the k-th N, i-th eps_j and l-th eps_b draws realization r
    # from substream(seed, k, i * len(eps_b) + l, r) whatever its corr_p,
    # the outer axis; a repeated eps_j is a cell of its own
    n_values, eps_j, eps_b, corr_p = (12, 20), (0.6, 0.3, 0.6), (0.0, 0.2), (0.3, 0.8)
    grid = [(p, n, ej, eb, (k, 2 * i + l)) for p in corr_p for k, n in enumerate(n_values)
            for i, ej in enumerate(eps_j) for l, eb in enumerate(eps_b)]
    cells = grid_cells(n_values, eps_j, eps_b, corr_p)
    assert [key for _, key in cells] == [key for *_, key in grid]
    assert [spec for spec, _ in cells] == [
        ChainSpec(n_sites=n, eps_j=ej, eps_b=eb, corr_p=p)
        for p, n, ej, eb, _ in grid]
    keys = [key for _, key in grid_cells(n_values, eps_j, eps_b)]
    assert [key for _, key in cells] == keys * len(corr_p)
    field_free = [(n, ej, (k, i)) for k, n in enumerate(n_values)
                  for i, ej in enumerate(eps_j)]
    assert [key for _, key in grid_cells(n_values, eps_j)] == [
        key for *_, key in field_free]

    # each command's row of a cell is the per-cell library result at its key
    out = {name: tmp_path / f"{name}.csv" for name in ("scan", "eta", "dim")}
    run_cli("scan", "--n", *n_values, "--eps-j", *eps_j, "--eps-b", *eps_b,
            "--corr-p", *corr_p, "--n-real", 7, "--seed", 5, "--out", out["scan"])
    run_cli("eta-scan", "--n", *n_values, "--eps-j", *eps_j, "--n-real", 6,
            "--seed", 5, "--out", out["eta"])
    run_cli("dimension-scan", "--n", *n_values, "--eps-j", *eps_j, "--t-max", 35,
            "--n-real", 3, "--seed", 5, "--out", out["dim"])
    rows = {name: read_csv(path)[2] for name, path in out.items()}
    assert len(rows["scan"]) == len(grid)
    for row, (p, n, ej, eb, key) in zip(rows["scan"], grid):
        spec = ChainSpec(n_sites=n, eps_j=ej, eps_b=eb, corr_p=p)
        [(mean, err)] = ensemble_averages([(spec, key)], 7, 5, [transfer_time()])
        assert list(row) == [n, ej, eb, p, mean[0], err[0], 7]
    assert len(rows["eta"]) == len(rows["dim"]) == len(field_free)
    for eta_row, dim_row, (n, ej, key) in zip(rows["eta"], rows["dim"], field_free):
        spec = ChainSpec(n_sites=n, eps_j=ej)
        assert list(eta_row) == [n, ej, eta(collect_spacings(spec, 6, 5, key))]
        np.testing.assert_array_equal(
            dim_row, [n, ej, *_dimension_of_cell(spec, 5, key, 3, 35.0)])
    # in this draw the first cell has a refusal and its repeat has none
    assert [r[4] for r in rows["dim"]] == [1, 0, 0, 0, 0, 0]


def _curve_table(tmp_path, kind, grid):
    """(table path, N -> (sorted grid, values)) of an eta-scan or a
    dimension-scan run and of the library call it makes."""
    out = tmp_path / f"{kind}.csv"
    if kind == "eta-scan":
        n_values = (10, 20, 40)
        run_cli("eta-scan", "--n", *n_values, "--eps-j", *grid, "--n-real", 30,
                "--seed", 4, "--out", out)
        rows = eta_scan(n_values, grid, 30, 4)
    else:
        n_values = (12, 20, 30)
        run_cli("dimension-scan", "--n", *n_values, "--eps-j", *grid, "--t-max", 200,
                "--n-real", 2, "--seed", 4, "--out", out)
        rows, _ = dimension_scan(n_values, grid, 2, 4, t_max=200.0)
    values = np.array([row[2] for row in rows]).reshape(len(n_values), len(grid))
    order = np.argsort(grid)
    curves = {n: (np.asarray(grid)[order], v[order]) for n, v in zip(n_values, values)}
    return out, curves


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind, targets, model", [
    pytest.param("eta-scan", (0.5, 0.8), "eta-threshold",
                 id="eta-scan-targets0-eta_threshold"),
    pytest.param("dimension-scan", (1.85, 1.8), "dimension-threshold",
                 id="dimension-scan-targets1-dimension_threshold"),
])
def test_threshold_on_curve_tables_matches_the_library(tmp_path, order, kind, targets,
                                                       model):
    grid = [0.001, 0.01, 0.1, 0.3, 0.6, 1.0]
    if order == "descending":
        grid.reverse()
    table, curves = _curve_table(tmp_path, kind, grid)
    out = tmp_path / "thr.csv"
    run_cli("threshold", "--table", table, "--f-target", *targets, "--out", out)
    _, _, rows = read_csv(out)
    side = read_sidecar(out)
    expected_rows = []
    for target in targets:
        scaling = threshold_scaling(curves, target, model=model)
        fit = side["targets"][format(target, ".17g")]["fit"]
        assert fit["model"] == scaling.fit.model
        assert fit["params"] == scaling.fit.params
        assert fit["stderr"] == scaling.fit.stderr
        expected_rows += [("eps_j", target, n, scaling.thresholds[n])
                          for n in sorted(scaling.thresholds)]
    assert len(scaling.thresholds) == 3
    assert rows == expected_rows


def test_threshold_refuses_eps_b_on_a_curve_table(tmp_path):
    table, _ = _curve_table(tmp_path, "eta-scan", [0.01, 0.1])
    out = tmp_path / "thr.csv"
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--table", str(table), "--param", "eps_b", "--out", str(out)])
    assert str(err.value).startswith("threshold: --param eps_b: ")
    assert not out.exists()


def _golden_with(tmp_path, name, n, eps_j, value):
    """The golden name.csv, its (n, eps_j) row's value column set to value."""
    metadata, header, rows = read_csv(DATA / f"{name}.csv")
    rows = [(*row[:2], value, *row[3:]) if tuple(row[:2]) == (n, eps_j) else row
            for row in rows]
    assert any(row[2] is value for row in rows)
    return tableio.write_csv(tmp_path / f"{name}.csv", header, rows, metadata)


@pytest.mark.parametrize("name, bad, need", [
    ("eta-scan", math.inf, "a finite number >= 0"),
    ("eta-scan", -math.inf, "a finite number >= 0"),
    ("eta-scan", math.nan, "a finite number >= 0"),
    ("eta-scan", -0.25, "a finite number >= 0"),
    ("dimension-scan", math.inf, "finite or NaN"),
    ("dimension-scan", -math.inf, "finite or NaN"),
])
def test_threshold_refuses_a_curve_value_out_of_range(tmp_path, name, bad, need):
    # a value threshold_scaling would drop, or interpolate through, moves
    # another cell's crossing without a word
    # each target is crossed at both chain lengths of the golden table
    n, eps_j, target = (10, 0.1, "0.5") if name == "eta-scan" else (12, 0.6, "1.6")
    table = _golden_with(tmp_path, name, n, eps_j, bad)
    out = tmp_path / "thr.csv"
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--table", str(table), "--f-target", target, "--out", str(out)])
    column = "eta" if name == "eta-scan" else "dimension"
    assert str(err.value) == (f"threshold: --table {table}: N = {n}, eps_j = {eps_j!r}: "
                              f"{column} {bad!r} is not {need}")
    assert not out.exists()


def test_threshold_keeps_a_refused_dimension_cell(tmp_path):
    # NaN is dimension_scan's refusal: the cell drops out of its curve
    table = _golden_with(tmp_path, "dimension-scan", 12, 0.6, math.nan)
    out = tmp_path / "thr.csv"
    run_cli("threshold", "--table", table, "--f-target", 1.6, "--out", out)
    assert [row[2] for row in read_csv(out)[2]] == [12, 20]


def test_threshold_keeps_the_targets_it_can_compute(tmp_path):
    # D = 1.6 is crossed at both chain lengths of the golden table, 1.4 at
    # N = 12 only, 1.3 at neither
    table = Path(__file__).parent / "data" / "dimension-scan.csv"
    out = tmp_path / "thr.csv"
    run_cli("threshold", "--table", table, "--f-target", 1.6, 1.4, "--out", out)
    _, _, rows = read_csv(out)
    assert [(r[0], r[1], r[2]) for r in rows] == [("eps_j", 1.6, 12), ("eps_j", 1.6, 20)]
    targets = read_sidecar(out)["targets"]
    assert targets["1.6000000000000001"]["fit"]["model"] == "dimension-threshold"
    assert targets["1.3999999999999999"] == {
        "fit": None,
        "reason": "target 1.4 crossed for 1 chain lengths only; "
                  "skipped: [(20, 'target not crossed within the grid')]"}
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--table", str(table), "--f-target", "1.4", "1.3",
              "--out", str(tmp_path / "none.csv")])
    assert str(err.value).startswith("threshold: --f-target 1.4 1.3: no target yields "
                                     "a threshold: target 1.4 crossed for 1 chain")
    assert not (tmp_path / "none.csv").exists()


@pytest.mark.parametrize("targets, refusal", [
    ("nan 0.9", "--f-target nan: must be finite"),
    ("inf", "--f-target inf: must be finite"),
    ("0.9 0.9", "--f-target 0.9: given more than once"),
    ("1.6 0.9 1.60", "--f-target 1.6: given more than once"),
], ids=["nan", "inf", "repeated", "repeated-apart"])
def test_threshold_refuses_a_target_before_reading_a_table(tmp_path, targets, refusal):
    # the table does not exist: a refusal naming it would mean it was read first
    out = tmp_path / "thr.csv"
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--table", str(tmp_path / "absent.csv"),
              "--f-target", *targets.split(), "--out", str(out)])
    assert str(err.value) == f"threshold: {refusal}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
def test_table_commands_pool_several_tables(tmp_path, command):
    # one coupling scan plus one field scan per N, as the kappa fit and the
    # eps_b threshold need; rows pool in the order given
    tables, points = [], []
    for name, argv in [("j", "--n 10 20 --eps-j 0.05 0.1 0.2 0.4 --seed 5"),
                       ("b10", "--n 10 --eps-b 0.5 1 2 4 --seed 6"),
                       ("b20", "--n 20 --eps-b 0.7 1.4 2.8 5.6 --seed 6")]:
        tables.append(tmp_path / f"{name}.csv")
        run_cli("scan", *argv.split(), "--n-real", 40, "--out", tables[-1])
        _, _, rows = cli._read_tables(command, [str(tables[-1])], (FidelityPoint._fields,))
        points += [FidelityPoint(*row) for row in rows]
    out = tmp_path / "out.csv"
    if command == "fit-scaling":
        run_cli("fit-scaling", "--table", *tables, "--out", out)
        fit = fit_scaling(points)
        expected = [(k, fit.params[k], fit.stderr[k]) for k in sorted(fit.params)]
    else:
        run_cli("threshold", "--table", *tables, "--param", "eps_b", "--f-target", 0.9,
                "--out", out)
        scaling = threshold_scaling(threshold_curves(points, "eps_b"), 0.9,
                                    model="eps_b-threshold")
        expected = [("eps_b", 0.9, n, scaling.thresholds[n])
                    for n in sorted(scaling.thresholds)]
    metadata, _, rows = read_csv(out)
    assert rows == expected
    assert metadata["table"] == " ".join(str(t) for t in tables)
    assert (metadata["table1.seed"], metadata["table2.seed"], metadata["table3.n"]) == \
        ("5", "6", "20")
    assert read_sidecar(out)["table"] == [str(t) for t in tables]


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    ("", "no header row found"),
    ("# seed=1\n# n_real=3\n", "no header row found"),
    ("n_sites,eps_j,eta\n10,0.1,0.5\n10,0.2\n", "data row 2 is not 3 numbers"),
    ("n_sites,eps_j,eta\n10,abc,0.5\n", "data row 1 is not 3 numbers"),
])
def test_table_commands_exit_naming_an_unreadable_table(tmp_path, command, content,
                                                        reason):
    table = tmp_path / "table.csv"
    if content is not None:
        table.write_text(content)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(out)])
    assert str(err.value) == f"{command}: --table {table}: {reason}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
@pytest.mark.parametrize("header, column", [
    (FidelityPoint._fields, "n_sites"), (FidelityPoint._fields, "n_real"),
    (ETA_HEADER, "n_sites"), (DIMENSION_HEADER, "n_sites")],
    ids=["scan-n_sites", "scan-n_real", "eta-scan", "dimension-scan"])
@pytest.mark.parametrize("bad", ["nan", "inf", "10.7"])
def test_table_commands_refuse_a_count_that_is_not_a_finite_integer(tmp_path, command,
                                                                   header, column, bad):
    counts = {"n_sites": "10", "n_real": "7"}
    rows = [[counts.get(name, "0.5") for name in header] for _ in range(2)]
    rows[1][header.index(column)] = bad
    table = tmp_path / "table.csv"
    table.write_text("\n".join(",".join(line) for line in [header, *rows]) + "\n")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--table", str(table), "--out", str(out)])
    assert str(err.value) == (f"{command}: --table {table}: data row 2: {column} "
                              f"{float(bad)!r} is not a finite integer")
    assert not out.exists()


def test_table_commands_refuse_tables_of_two_kinds(tmp_path):
    scan, eta_table = tmp_path / "scan.csv", tmp_path / "eta.csv"
    run_cli("scan", "--n", 8, "--eps-j", 0.1, "--n-real", 3, "--seed", 1, "--out", scan)
    run_cli("eta-scan", "--n", 8, "--eps-j", 0.1, "--n-real", 3, "--seed", 1,
            "--out", eta_table)
    with pytest.raises(SystemExit) as err:
        main(["threshold", "--table", str(scan), str(eta_table), "--out",
              str(tmp_path / "x.csv")])
    assert str(err.value) == (f"threshold: --table {eta_table}: header n_sites,eps_j,eta "
                              f"differs from {scan}'s "
                              "n_sites,eps_j,eps_b,corr_p,fbar,stderr,n_real")


@pytest.mark.parametrize("config, key", [
    ("n_rael = 5", "'n_rael'"),
    ("config = other.cfg", "'config'"),
    # J is the unit of energy, no option: an old file's j key names nothing
    ("j = 1", "'j'"),
])
def test_config_file_key_of_no_option_exits(tmp_path, config, key):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["scan", "--n", "6", "--eps-j", "0.1", "--seed", "1", "--config", str(cfg),
              "--out", str(out)])
    assert str(err.value) == f"scan: config file {cfg}: key {key} names no option of scan"
    assert not out.exists()


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    ("directory", "Is a directory"),
    (b"n_real = 5\xff\n", "'utf-8' codec can't decode byte 0xff in position 10: "
                          "invalid start byte"),
    (b"n_real = 5\noops\n", "expected key=value, got 'oops'"),
], ids=["missing", "directory", "not-utf-8", "no-equals-sign"])
def test_config_file_that_cannot_be_read_exits(tmp_path, content, reason):
    cfg = tmp_path / "run.cfg"
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["scan", "--n", "6", "--seed", "1", "--config", str(cfg), "--out", str(out)])
    assert str(err.value) == f"scan: --config {cfg}: {reason}"
    assert not out.exists()


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# a preset\n   \n  # indented comment\nn_real = 3  # trailing\n\n")
    out = tmp_path / "x.csv"
    run_cli("scan", "--n", 6, "--eps-j", 0.1, "--seed", 1, "--config", cfg, "--out", out)
    assert [row[6] for row in read_csv(out)[2]] == [3]


# the ids of the first four cases name the config key whose value does not parse
@pytest.mark.parametrize("command, config, flags, error", [
    ("scan", "n_real = abc", "", "argument --n-real: invalid int value: 'abc'"),
    ("scan", "eps_j = 0.1 x", "", "argument --eps-j: invalid float value: 'x'"),
    ("scan", "eps_j =", "", "argument --eps-j: expected at least one argument"),
    ("perturbation", "sector = c", "", "argument --sector: invalid choice: 'c'"),
    ("scan", "n_real = abc", "--n-real 3", "argument --n-real: invalid int value: 'abc'"),
], ids=["scan-n_real = abc-'n_real'", "scan-eps_j = 0.1 x-'eps_j'", "scan-eps_j =-'eps_j'",
        "perturbation-sector = c-'sector'", "overridden-by-a-flag"])
def test_config_file_value_that_does_not_parse_exits(tmp_path, capsys, command, config,
                                                     flags, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--n", "6", "--seed", "1", "--config", str(cfg), *flags.split(),
              "--out", str(out)])
    assert err.value.code == 2
    assert f"spinchain {command}: error: {error}" in capsys.readouterr().err
    assert not out.exists()


# One value per option type, as a flag gives it and as cli._parse returns it;
# the single values start with '-' where their type allows it.
SAMPLE_VALUES = {
    (int, False): ("-3", -3),
    (float, False): ("-inf", -math.inf),
    (str, False): ("-run.csv", "-run.csv"),
    (int, True): ("8 12", (8, 12)),
    (float, True): ("0.5 -0.25 1e-3", (0.5, -0.25, 1e-3)),
    (str, True): ("a.csv b.csv", ("a.csv", "b.csv")),
}


def _sample(dest, option):
    """(flag arguments, config file line, parsed value) of a sample value."""
    if option.get("choices"):
        text = parsed = next(c for c in option["choices"] if c != option.get("default"))
    else:
        text, parsed = SAMPLE_VALUES[option.get("type", str), bool(option.get("nargs"))]
    flag = "--" + dest.replace("_", "-")
    words = [flag, *text.split()] if option.get("nargs") else [f"{flag}={text}"]
    return words, f"{dest} = {text}", parsed


@pytest.mark.parametrize("command, dest", [(command, dest) for command, options in
                                           OPTIONS.items() for dest in options])
def test_a_config_value_parses_as_the_same_flag(tmp_path, command, dest):
    options = OPTIONS[command]
    required = [word for d, option in options.items() if option.get("required") and d != dest
                for word in _sample(d, option)[0]]
    words, line, parsed = _sample(dest, options[dest])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    from_file = cli._parse([command, *required, "--config", str(cfg)])
    assert from_file == cli._parse([command, *required, *words])
    assert from_file[1][dest] == parsed


@pytest.mark.parametrize("flags_first", [False, True], ids=["file-first", "flags-first"])
def test_a_flag_overrides_a_config_list(tmp_path, flags_first):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8 12\neps-j = 0.1,0.2\nseed = 3\nout = a.csv\n")
    flags = ["--n", "6", "--out", "b.csv"]
    config = ["--config", str(cfg)]
    _, parsed = cli._parse(["scan", *(flags + config if flags_first else config + flags)])
    assert (parsed["n"], parsed["eps_j"], parsed["seed"], parsed["out"]) == \
        ((6,), (0.1, 0.2), 3, "b.csv")


def test_config_list_values_split_at_commas_or_spaces(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8,12 , 16\neps_j = 0.1, 0.2\ncorr-p = 0.1,0.9 0.5\n")
    _, parsed = cli._parse(["scan", "--seed", "1", "--out", "x.csv", "--config", str(cfg)])
    assert (parsed["n"], parsed["eps_j"], parsed["corr_p"]) == \
        ((8, 12, 16), (0.1, 0.2), (0.1, 0.9, 0.5))


@pytest.mark.parametrize("argv", ["scan --n 6 --n-real 3", "perturbation --n 6 --n-real 3",
                                  "spectrum --n 6 --n-real 3"])
@pytest.mark.parametrize("out, refusal", [
    ("t.json", "the table's JSON sidecar would overwrite it"),
    ("existing", "Is a directory"),
], ids=["json-suffix", "directory"])
def test_an_out_that_cannot_hold_the_table_exits_before_drawing(tmp_path, forbid_draws,
                                                                argv, out, refusal):
    (tmp_path / "existing").mkdir()
    path = tmp_path / out
    with pytest.raises(SystemExit) as err:
        main(argv.split() + ["--seed", "1", "--out", str(path)])
    assert str(err.value) == f"{argv.split()[0]}: --out {path}: {refusal}"
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    assert list((tmp_path / "existing").iterdir()) == []


@pytest.mark.parametrize("command", ["fit-scaling", "threshold"])
@pytest.mark.parametrize("tables", [["s.csv"], ["missing.csv", "s.csv"]],
                         ids=["one-table", "after-a-missing-table"])
@pytest.mark.parametrize("out, refusal", [
    ("s.csv", "would overwrite --table s.csv"),
    ("./s.csv", "would overwrite --table s.csv"),
    ("s", "its JSON sidecar would overwrite --table s.csv's, s.json"),
    ("s.txt", "its JSON sidecar would overwrite --table s.csv's, s.json"),
], ids=["same-path", "same-file", "sidecar-no-suffix", "sidecar-other-suffix"])
def test_an_out_that_names_an_input_table_exits_before_reading_it(tmp_path, monkeypatch,
                                                                  command, tables, out,
                                                                  refusal):
    # a scan table that both commands accept, with its sidecar; a missing
    # table ahead of it shows that the refusal comes before any table is read
    monkeypatch.chdir(tmp_path)
    rows = [FidelityPoint(n, eps, 0.0, 0.5, 0.5 * (1 + np.exp(-0.2 * n * eps * eps)), 0.0, 1)
            for n in (10, 40, 160)
            for eps in np.sqrt(-np.log(0.8) / (0.2 * n)) * np.geomspace(0.3, 3, 9)]
    tableio.write_csv("s.csv", FidelityPoint._fields, rows, metadata={"seed": 1})
    write_sidecar("s.csv", {"command": "scan"})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as err:
        main([command, "--table", *tables, "--out", out])
    assert str(err.value) == f"{command}: --out {out}: {refusal}"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, code, stream, expected", [
    (["--help"], 0, "out", "{transfer,scan,fit-scaling,threshold,spectrum,eta-scan,"
                           "dimension-scan,fractal,perturbation}"),
    (["--version"], 0, "out", f"spinchain {spinchain.__version__}\n"),
    (["foo"], 2, "err", "argument command: invalid choice: 'foo' (choose from "
                        "'transfer', 'scan', 'fit-scaling', 'threshold'"),
    ([], 2, "err", "the following arguments are required: command"),
    (["scan", "--n", "6", "--seed", "1", "--out", "x.csv", "--j", "2"], 2, "err",
     "unrecognized arguments: --j"),
])
def test_help_version_and_unknown_command(capsys, argv, code, stream, expected):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == code
    assert expected in getattr(capsys.readouterr(), stream)


def test_every_subcommand_help_lists_its_options(capsys):
    for command, options in OPTIONS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for dest in ("config", *options):
            assert "--" + dest.replace("_", "-") in text, (command, dest)


def _readme_block(section, language):
    """The first fenced block of the given language in a README section."""
    readme = (ROOT / "README.md").read_text()
    return readme.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1] \
        .split("```", 1)[0]


def _readme_commands():
    """The spinchain lines of README's Command line block, continuations joined."""
    block = _readme_block("Command line", "sh")
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("spinchain ")]


def test_readme_command_block_parses():
    commands = _readme_commands()
    assert sorted({argv[1] for argv in commands}) == sorted(OPTIONS)
    for argv in commands:
        cli._check(*cli._parse(argv[1:]))


def test_readme_quick_tour_runs():
    namespace = {}
    exec(_readme_block("Library quick tour", "python"), namespace)
    assert [r.sector for r in namespace["rows"]] == ["j", "j", "b", "b"]
    assert list(namespace["sectors"]) == ["j", "b"]
    fit, curve = namespace["fit"], namespace["curve"]
    assert fit.model == "box-dimension" and np.isfinite(fit.params["dimension"])
    assert curve.lengths[0] <= fit.window[0] < fit.window[1] <= curve.lengths[-1]


@pytest.mark.parametrize("argv, flags", [
    ("spectrum --n 6 --eps-j 1e308", "--eps-j 1e+308"),
    ("eta-scan --n 6 --eps-j 0.1 1e308", "--eps-j 1e+308"),
    ("fractal --n 6 --eps-j 1e308", "--eps-j 1e+308"),
    ("transfer --n 6 --eps-b 1e308", "--eps-b 1e+308"),
    ("dimension-scan --n 6 40 --eps-j 1e307", "--eps-j 1e+307"),
    ("scan --n 6 --eps-j 0.1 1e308", "--eps-j 1e+308"),
    ("scan --n 6 --eps-j 1e307 --eps-b 8e307", "--eps-j 1e+307 --eps-b 8e+307"),
    ("perturbation --n 6 --eps 1e308", "--eps 1e+308"),
    ("perturbation --n 6 --eps 1e-3 9e307 --sector b", "--eps 9e+307"),
], ids=["spectrum", "eta-scan", "fractal", "transfer", "dimension-scan", "scan",
        "scan-together", "perturbation", "perturbation-b"])
def test_an_overflowing_amplitude_exits_naming_its_flag_before_drawing(
        tmp_path, forbid_draws, argv, flags):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(argv.split() + ["--seed", "1", "--out", str(out)])
    message = str(err.value)
    assert message.startswith(f"{argv.split()[0]}: {flags}: eps_j = ")
    assert "the worst-case chain of N = " in message
    assert not out.exists()


@pytest.mark.parametrize("n", [("6", "40"), ("40", "6")], ids=["ascending", "descending"])
def test_an_overflow_names_the_worst_chain_whatever_the_order_of_n(tmp_path, forbid_draws,
                                                                   n):
    # eps_j = 1e307 overflows alone at N = 40 and only with eps_b = 8e307 at N = 6
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["scan", "--n", *n, "--eps-j", "1e307", "--eps-b", "8e307", "--seed", "1",
              "--out", str(out)])
    assert str(err.value).startswith("scan: --eps-j 1e+307: eps_j = 1e+307, eps_b = 8e+307: "
                                     "the worst-case chain of N = 40 ")
    assert not out.exists()
