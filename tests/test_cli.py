import csv
import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmld import (
    CmldError,
    DegreeDistribution,
    DegreeSequence,
    FluidPath,
    StatePoint,
    StateError,
    eea_run,
    estimate_event_prob,
    giant_fraction,
    lln_check,
    lln_path,
    make_segment_spec,
    minimizer_path,
    path_cost,
    rate_component_degree,
    rate_component_size,
    rate_d_regular_subgraph,
    rate_fit,
)
from cmld.cli import main
from cmld.estimate import clopper_pearson
from cmld.serialize import (
    fluid_path_from_csv,
    fluid_path_to_csv,
    load_degree_distribution,
    load_degree_input,
    load_state_point,
    load_sub_profile,
)

P13 = {"degrees": {"1": 0.5, "3": 0.5}}
Q13 = {"degrees": {"1": 0.1, "3": 0.3}}
P_MIX = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
P30 = {k: 0.06 if k <= 10 else 0.03 if k <= 20 else 0.01 for k in range(1, 31)}


def _not_json(name):
    """json.loads's hook for Infinity, -Infinity and NaN, which JSON lacks."""
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in [
        ("p", P13),
        ("q", Q13),
        ("qbad", {"degrees": {"1": 0.9, "3": 0.3}}),
        ("x1", {"x0": 0.0, "xk": {"3": 1.0}}),
        ("x2", {"x0": 0.0, "xk": {"3": 0.5}}),
    ]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(payload))
        paths[name] = str(f)
    paths["tmp"] = tmp_path
    return paths


class TestRateCommands:
    def test_dreg_prints_rate_and_limit(self, files, capsys):
        assert main(["rate", "dreg", "--D", "3", "--q", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert payload["limit"] == -payload["rate"]

    @pytest.mark.parametrize("argv", [["dreg", "--D", "3", "--q", "1"],
                                      ["dreg", "--D", "4", "--q", "1e-320"],
                                      ["largest-conj", "--D", "3", "--x", "1"]])
    def test_zero_rate_prints_plus_zero(self, argv, capsys):
        assert main(["rate", *argv]) == 0
        out = capsys.readouterr().out
        assert '"rate": 0.0,' in out
        assert math.copysign(1.0, json.loads(out)["rate"]) == 1.0

    def test_degree_payload(self, files, capsys):
        assert main(["rate", "degree", "--p", files["p"], "--q", files["q"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(0.11250700879527151, abs=1e-9)
        assert payload["limit"] == -payload["rate"]
        assert payload["bound_kind"] == "lower_only"

    def test_size(self, files, tmp_path, capsys):
        p = tmp_path / "p3.json"
        p.write_text(json.dumps({"degrees": {"3": 1.0}}))
        assert main(["rate", "size", "--p", str(p), "--r", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(0.5 * math.log(2), abs=1e-6)

    def test_size_three_degrees_matches_library(self, tmp_path, monkeypatch, capsys):
        # {3: 1} above returns before any root is solved; three degrees run
        # both levels of the solver
        w = {3: 0.4, 4: 0.3, 5: 0.3}
        p = tmp_path / "p345.json"
        p.write_text(json.dumps({"degrees": {str(k): v for k, v in w.items()}}))
        assert main(["rate", "size", "--p", str(p), "--r", "0.3"]) == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed)
        rate, argmin = rate_component_size(DegreeDistribution(w), 0.3)
        assert payload["rate"] == rate and payload["limit"] == -rate
        assert payload["argmin"] == {str(k): v for k, v in argmin.items()}
        monkeypatch.setitem(sys.modules, "scipy", None)  # an import of scipy now raises
        assert main(["rate", "size", "--p", str(p), "--r", "0.3"]) == 0
        assert capsys.readouterr().out == printed

    def test_largest_conj_flagged(self, files, capsys):
        assert main(["rate", "largest-conj", "--D", "3", "--x", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conjecture"] is True

    def test_dreg_sub_under_regular_p(self, tmp_path, capsys):
        # with p = {3: 1} the 3-regular subgraph rate is the regular rate
        p = tmp_path / "p3.json"
        p.write_text(json.dumps({"degrees": {"3": 1.0}}))
        assert main(["rate", "dreg-sub", "--p", str(p), "--D", "3", "--q", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(0.5 * math.log(2), abs=1e-12)
        assert payload["limit"] == -payload["rate"]
        assert main(["rate", "dreg-sub", "--p", str(p), "--D", "3", "--q", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == rate_d_regular_subgraph(DegreeDistribution({3: 1.0}), 3, 0.25)

    def test_out_writes_the_printed_payload(self, files, capsys):
        out = files["tmp"] / "rate.json"
        assert main(["rate", "degree", "--p", files["p"], "--q", files["q"],
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed
        assert printed["rate"] == pytest.approx(0.11250700879527151, abs=1e-9)

    def test_missing_file_exit_1(self, files):
        assert main(["rate", "degree", "--p", "/nonexistent.json", "--q", files["q"]]) == 1

    @pytest.mark.parametrize("argv", [[], ["rate", "dreg", "--D", "x", "--q", "0.5"]])
    def test_bad_arguments_exit_1(self, argv, capsys):
        # argparse itself would exit 2, the code for infeasible input
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err


class TestInfeasibleInputs:
    def test_estimate_q_above_p_exit_2(self, files, capsys):
        code = main(["estimate", "--p", files["p"], "--q", files["qbad"],
                     "--n", "100", "--eps", "0.05", "--reps", "10", "--seed", "1"])
        assert code == 2
        assert "q <= p" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--eps", "nan"], "eps must be positive"),
        (["--eps", "0.05", "--workers", "0"], "workers must be at least 1"),
    ])
    def test_estimate_bad_argument_exit_2(self, files, capsys, extra, message):
        code = main(["estimate", "--p", files["p"], "--q", files["q"], "--n", "100",
                     "--reps", "10", "--seed", "1", *extra])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_dreg_low_degree_exit_2(self, files):
        assert main(["rate", "dreg", "--D", "2", "--q", "0.5"]) == 2

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_lln_grid_below_two_exit_2(self, files, capsys, grid):
        assert main(["lln", "--p", files["p"], "--T", "1.2", "--grid", grid]) == 2
        assert "grid_points must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_simulate_grid_below_two_exit_2(self, files, capsys, grid):
        # grid 0 once wrote a header-only CSV and grid 1 a single row, both exit 0
        out = files["tmp"] / "sim.json"
        assert main(["simulate", "--p", files["p"], "--n", "1000", "--seed", "1",
                     "--trajectory", "--out", str(out), "--grid", grid]) == 2
        assert "grid_points must be at least 2" in capsys.readouterr().err
        assert not out.exists() and not (files["tmp"] / "sim.traj.csv").exists()

    @pytest.mark.parametrize("grid", ["0", "1", "2", "3"])
    def test_path_grid_below_four_exit_2(self, files, capsys, grid):
        # the segment grid keeps two body and two tail points, so fewer than
        # four would write a 4-row CSV
        out = files["tmp"] / "seg.csv"
        assert main(["path", "--x1", files["x1"], "--x2", files["x2"],
                     "--grid", grid, "--out", str(out)]) == 2
        assert "grid_points must be at least 4" in capsys.readouterr().err
        assert not out.exists()

    def test_path_x2_above_x1_exit_2(self, tmp_path, capsys):
        x1, x2 = tmp_path / "x1.json", tmp_path / "x2.json"
        x1.write_text('{"x0": 0, "xk": {"3": 0.5}}')
        x2.write_text('{"x0": 0, "xk": {"3": 1.0}}')
        assert main(["path", "--x1", str(x1), "--x2", str(x2)]) == 2
        assert "x2 exceeds x1 at degree 3" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, argv", [
        ('{"degrees": {"3": NaN}}', ["estimate", "--p", "P", "--q", "F", "--n", "16",
                                     "--eps", "0.1", "--reps", "100", "--seed", "1"]),
        ('{"degrees": {"3": 1.0, "4": NaN}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"x0": NaN, "xk": {"3": 1.0}}', ["path", "--x1", "F", "--x2", "X2"]),
    ], ids=["estimate-q", "lln-p", "path-x0"])
    def test_non_finite_input_exit_2(self, files, capsys, payload, argv):
        # JSON NaN reads as a float; each of these once ran and exited 0
        f = files["tmp"] / "nan.json"
        f.write_text(payload)
        names = {"F": str(f), "P": files["p"], "X2": files["x2"]}
        assert main([names.get(a, a) for a in argv]) == 2
        assert "finite" in capsys.readouterr().err


class TestMalformedInputs:
    """A file of the wrong shape, or with a value that is not a number, is exit 1
    and names the file; a number that is no degree is exit 2, wherever it is."""

    @pytest.mark.parametrize("payload, argv", [
        ('{"degrees": {"3": null}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {"3": "1.0"}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {"3": true}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {"three": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": [3, 3]}', ["lln", "--p", "F", "--T", "2"]),
        ('[3, 3]', ["lln", "--p", "F", "--T", "2"]),
        ('{"x0": null, "xk": {"3": 1}}', ["path", "--x1", "F", "--x2", "X2"]),
        ('{"x0": 0, "xk": [1]}', ["path", "--x1", "F", "--x2", "X2"]),
        ('{"x0": 0.0}', ["path", "--x1", "F", "--x2", "X2"]),
        ('[3, 3, "a"]', ["simulate", "--p", "F", "--n", "3", "--seed", "1"]),
        ('[[3], [3]]', ["simulate", "--p", "F", "--n", "2", "--seed", "1"]),
        # keys that float() reads but that are no JSON number
        ('{"degrees": {"1_0": 1.0}}', ["rate", "size", "--p", "F", "--r", "0.5"]),
        ('{"degrees": {"1_0": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {" 3 ": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {"\\u0663": 1.0}}', ["lln", "--p", "F", "--T", "2"]),  # Arabic-Indic 3
        ('{"degrees": {"inf": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"x0": 0, "xk": {" 3 ": 1}}', ["path", "--x1", "F", "--x2", "X2"]),
        # text that is not UTF-8 (a UTF-16 byte-order mark), and no JSON at all
        (b'\xff\xfe{"degrees": {"3": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": ', ["lln", "--p", "F", "--T", "2"]),
    ])
    def test_malformed_file_exit_1(self, files, capsys, payload, argv):
        f = files["tmp"] / "bad.json"
        f.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        names = {"F": str(f), "X2": files["x2"]}
        assert main([names.get(a, a) for a in argv]) == 1
        assert str(f) in capsys.readouterr().err

    @pytest.mark.parametrize("payload, argv", [
        ('{"degrees": {"3.7": 1.0}}', ["lln", "--p", "F", "--T", "2"]),
        ('{"degrees": {"3.7": 1.0}}', ["rate", "degree", "--p", "P", "--q", "F"]),
        ('{"degrees": {"3.7": 1.0}}', ["estimate", "--p", "F", "--q", "Q", "--n", "16",
                                       "--eps", "0.1", "--reps", "10", "--seed", "1"]),
        ('{"x0": 0, "xk": {"3.7": 1}}', ["path", "--x1", "F", "--x2", "X2"]),
    ])
    def test_non_integral_degree_exit_2(self, files, capsys, payload, argv):
        # a key once exited 1 with int()'s message while an array entry exited 2
        f = files["tmp"] / "deg.json"
        f.write_text(payload)
        names = {"F": str(f), "P": files["p"], "Q": files["q"], "X2": files["x2"]}
        assert main([names.get(a, a) for a in argv]) == 2
        assert "degree 3.7 is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["-3", "0", "1e999"])
    def test_number_key_that_is_no_degree_exit_2(self, files, capsys, key):
        f = files["tmp"] / "deg.json"
        f.write_text(f'{{"degrees": {{"{key}": 1.0}}}}')
        assert main(["lln", "--p", str(f), "--T", "2"]) == 2
        assert f"degree {float(key)!r} is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ['{"degrees": {"1e0": 0.5, "03": 0.5}}',
                                         '{"degrees": {"1": 0.5, "3.0": 0.5}}'])
    def test_number_keys_spell_their_degree(self, files, capsys, payload):
        f = files["tmp"] / "deg.json"
        f.write_text(payload)
        assert main(["lln", "--p", str(f), "--T", "2"]) == 0
        got = capsys.readouterr().out
        assert main(["lln", "--p", files["p"], "--T", "2"]) == 0
        assert got == capsys.readouterr().out


class TestTrajectoryCommands:
    def test_lln_writes_csv_and_sidecar(self, files, capsys):
        out = str(files["tmp"] / "lln.csv")
        assert main(["lln", "--p", files["p"], "--T", "1.2", "--grid", "301",
                     "--out", out]) == 0
        meta = json.loads((files["tmp"] / "lln.meta.json").read_text())
        assert meta["rho"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert meta["giant_fraction"] == pytest.approx(22.0 / 27.0, abs=1e-9)
        fp = fluid_path_from_csv(out)
        assert fp.grid[0] == 0.0
        # read back from its CSV, each path keeps its invariants and costs at
        # most 1e-5 up to the tau of its sidecar (criterion 5 on the grid
        # route, 7.8e-7 here); the subcritical path has tau = 0, an empty interval
        sub = files["tmp"] / "psub.json"
        sub.write_text(json.dumps({"degrees": {"1": 0.6, "2": 0.3, "3": 0.1}}))
        assert main(["lln", "--p", str(sub), "--T", "1.0", "--out",
                     str(files["tmp"] / "sub.csv")]) == 0
        for name in ("lln", "sub"):
            fp = fluid_path_from_csv(files["tmp"] / f"{name}.csv")
            fp.check_invariants()
            tau = json.loads((files["tmp"] / f"{name}.meta.json").read_text())["tau"]
            assert path_cost(fp, 0.0, tau) <= 1e-5, name

    def test_lln_sidecar_reports_grid_and_rows(self, files, capsys):
        # the grid is refined around tau, so more rows are written than asked for
        out = files["tmp"] / "lln.csv"
        assert main(["lln", "--p", files["p"], "--T", "1.2", "--grid", "1001",
                     "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        with open(out, newline="") as f:
            rows = sum(1 for row in csv.reader(f) if row) - 1  # less the header
        assert meta["grid_points"] == 1001
        assert meta["rows"] == rows == 1032

    def test_lln_without_out_prints_meta(self, files, capsys):
        assert main(["lln", "--p", files["p"], "--T", "1.2", "--grid", "101"]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["rho"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert meta["giant_fraction"] == pytest.approx(22.0 / 27.0, abs=1e-9)
        # 1 - rho = 5.3e-9 and 5.3e-11: the giant fraction against its closed
        # form 1 - w1 rho - w3 rho^3, rho = w1 / (3 w3)
        f = files["tmp"] / "near.json"
        for w1, w3 in ((0.749999999, 0.250000001), (0.74999999999, 0.25000000001)):
            f.write_text(json.dumps({"degrees": {"1": w1, "3": w3}}))
            assert main(["lln", "--p", str(f), "--T", "2"]) == 0
            rho = w1 / (3 * w3)
            want = 1 - w1 * rho - w3 * rho ** 3
            got = json.loads(capsys.readouterr().out)["giant_fraction"]
            assert abs(got - want) <= 1e-6 * want, (w1, got, want)
        # rho at the zero end, p_1 / (3 p_3) and p_1 / (4 p_4) (1 - p_1 / (4 p_4)),
        # far below the 1e-15 at which an absolute bracket stop returns a midpoint
        for k, want in ((3, 1e-20 / 3), (4, 2.5e-21)):
            f.write_text(json.dumps({"degrees": {"1": 1e-20, str(k): 1.0}}))
            assert main(["lln", "--p", str(f), "--T", "2"]) == 0
            got = json.loads(capsys.readouterr().out)["rho"]
            assert abs(got - want) <= 1e-15 * want, (k, got, want)

    def test_path_reports_costs(self, files, capsys):
        assert main(["path", "--x1", files["x1"], "--x2", files["x2"],
                     "--grid", "2001"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "case_i"
        assert payload["residual"] <= 1e-6
        assert payload["cost_closed"] == pytest.approx(0.5 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("x1, x2", [
        # beta ~ 0.9944, where path_cost once differenced the grid to inf
        ({"x0": 0.17811420009550638, "xk": {"1": 0.5949995265441596, "4": 0.13006241668863816}},
         {"x0": 0.0, "xk": {"1": 0.36991778168318323, "4": 0.10607848419395322}}),
        # a quadrature cost of +inf, once printed as Infinity, which no JSON reader takes
        ({"x0": 0.0, "xk": {"3": 8.815952533666052e-38, "6": 3.718865243276547e-283}},
         {"x0": 0.0, "xk": {"3": 0.0, "6": 0.0}}),
    ], ids=["beta-near-one", "cost-inf"])
    def test_path_out_is_the_printed_report_and_the_first_read_csv(self, tmp_path, capsys,
                                                                  x1, x2):
        # stdout and the .cost.json sidecar are one JSON text; the CSV holds the
        # bytes of a minimizer whose grid is read first, though the CLI costs
        # the minimizer before its CSV samples the grid
        names = []
        for name, x in (("x1", x1), ("x2", x2)):
            (tmp_path / f"{name}.json").write_text(json.dumps(x))
            names.append(str(tmp_path / f"{name}.json"))
        out = tmp_path / "seg.csv"
        assert main(["path", "--x1", names[0], "--x2", names[1], "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        json.loads(printed, parse_constant=_not_json)
        assert out.with_suffix(".cost.json").read_text() == printed
        traj = minimizer_path(make_segment_spec(*map(load_state_point, names)), 4501)
        traj.grid
        fluid_path_to_csv(traj, tmp_path / "first_read.csv")
        assert out.read_bytes() == (tmp_path / "first_read.csv").read_bytes()

    def test_path_solves_its_root_once(self, files, monkeypatch, capsys):
        import cmld.paths

        solved = []
        root = cmld.paths._transition_root

        def spy(*args):
            solved.append(args)
            return root(*args)

        monkeypatch.setattr(cmld.paths, "_transition_root", spy)
        assert main(["path", "--x1", files["x1"], "--x2", files["x2"]]) == 0
        assert len(solved) == 1

    def test_path_grid_sets_only_the_csv(self, files, capsys):
        reports = []
        for grid in ("4", "101", "4501"):
            out = str(files["tmp"] / f"seg{grid}.csv")
            assert main(["path", "--x1", files["x1"], "--x2", files["x2"],
                         "--grid", grid, "--out", out]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            assert len(fluid_path_from_csv(out).grid) == int(grid)
        assert reports[0] == reports[1] == reports[2]

    def test_path_between_equal_points_costs_zero(self, files, capsys):
        assert main(["path", "--x1", files["x1"], "--x2", files["x1"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["varsigma"] == 0.0
        assert payload["cost_closed"] == payload["cost_quadrature"] == 0.0

    def test_simulate_deterministic_under_seed(self, files, capsys):
        argv = ["simulate", "--p", files["p"], "--n", "500", "--seed", "12"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_simulate_trajectory_csv(self, files, capsys):
        out = files["tmp"] / "sim.json"
        assert main(["simulate", "--p", files["p"], "--n", "500", "--seed", "12",
                     "--trajectory", "--grid", "51", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert json.loads(capsys.readouterr().out) == payload
        fp = fluid_path_from_csv(files["tmp"] / "sim.traj.csv")
        assert len(fp.grid) == 51 and fp.grid[0] == 0.0
        assert fp.grid[-1] == pytest.approx(payload["steps"] / payload["n"], rel=1e-15)
        assert fp.degrees == (1, 3)

    def test_simulate_records_a_trajectory_only_for_out(self, files, capsys, monkeypatch):
        # without --out there is no CSV to write, so none is recorded, and
        # stdout is the same as without --trajectory
        import cmld.cli

        recorded = []

        def spy(d, rng, record_trajectory=False):
            recorded.append(record_trajectory)
            return eea_run(d, rng, record_trajectory)

        monkeypatch.setattr(cmld.cli, "eea_run", spy)
        argv = ["simulate", "--p", files["p"], "--n", "500", "--seed", "12"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trajectory"]) == 0
        assert capsys.readouterr().out == plain
        assert main(argv + ["--trajectory", "--out", str(files["tmp"] / "sim.json")]) == 0
        assert capsys.readouterr().out == plain
        assert recorded == [False, False, True]

    def test_simulate_sidecar_is_lln_check(self, files, capsys):
        out = files["tmp"] / "sim.json"
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        for n, seed in ((2000, 4), (1000, 20240810), (2000, 20240810)):
            assert main(["simulate", "--p", files["p"], "--n", str(n), "--seed", str(seed),
                         "--trajectory", "--out", str(out)]) == 0
            meta = json.loads((files["tmp"] / "sim.traj.meta.json").read_text())
            assert (meta["largest_fraction"], meta["sup_distance"]) == lln_check(p, n, seed=seed)
            assert meta["giant_fraction"] == giant_fraction(p)
            assert meta["n"] == n and meta["grid_points"] == 401

    def test_simulate_sidecar_for_a_degree_sequence(self, files, capsys):
        # the sequence's own frequencies n_k / n are {1: 1/2, 3: 1/2}, so its
        # sidecar is the distribution's
        seq = files["tmp"] / "seq.json"
        seq.write_text(json.dumps(DegreeSequence.from_distribution(
            DegreeDistribution({1: 0.5, 3: 0.5}), 2000).degrees))
        for name, p in (("dist", files["p"]), ("seq", str(seq))):
            assert main(["simulate", "--p", p, "--n", "2000", "--seed", "4", "--trajectory",
                         "--grid", "101", "--out", str(files["tmp"] / f"{name}.json")]) == 0
        dist, seq = ((files["tmp"] / f"{name}.traj.meta.json").read_text()
                     for name in ("dist", "seq"))
        assert seq == dist and json.loads(seq)["grid_points"] == 101

    def test_simulate_reports_the_n_it_ran(self, files, capsys):
        # 25 * 0.5 = 12.5 rounds to 12 in both columns: 24 vertices, no parity fix
        argv = ["simulate", "--p", files["p"], "--seed", "12", "--n"]
        assert main(argv + ["24"]) == 0
        exact = capsys.readouterr()
        assert exact.err == ""
        assert main(argv + ["25"]) == 0
        asked = capsys.readouterr()
        assert asked.out == exact.out and json.loads(asked.out)["parity_fix"] is None
        assert len(asked.err.splitlines()) == 1 and "--n 25 gives a 24-vertex" in asked.err

    def test_estimate_reports_the_n_it_ran(self, files, capsys):
        # 27 * 0.5 = 13.5 rounds to 14 in both columns: 28 vertices
        argv = ["estimate", "--p", files["p"], "--q", files["q"], "--eps", "0.2",
                "--reps", "200", "--seed", "5", "--n"]
        assert main(argv + ["28"]) == 0
        exact = capsys.readouterr()
        assert exact.err == ""
        assert main(argv + ["27"]) == 0
        asked = capsys.readouterr()
        assert asked.out == exact.out
        assert len(asked.err.splitlines()) == 1 and "--n 27 gives a 28-vertex" in asked.err

    def test_estimate_json_line(self, files, capsys):
        assert main(["estimate", "--p", files["p"], "--q", files["q"], "--n", "60",
                     "--eps", "0.2", "--reps", "400", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["reps"] == 400
        assert 0.0 <= payload["ci_low"] <= payload["p_hat"] <= payload["ci_high"] <= 1.0

    def test_estimate_at_infinite_eps_prints_json(self, tmp_path, capsys):
        # it printed "eps": Infinity and "per_n_rate": -0.0
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text('{"degrees": {"3": 1}}')
        q.write_text('{"degrees": {"3": 0.5}}')
        assert main(["estimate", "--p", str(p), "--q", str(q), "--n", "12", "--eps", "inf",
                     "--reps", "100", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_not_json)
        assert payload["eps"] is None and payload["hits"] == 100
        assert math.copysign(1.0, payload["per_n_rate"]) == 1.0

    def test_estimate_out_appends_json_lines(self, files, capsys):
        out = files["tmp"] / "est.jsonl"
        argv = ["estimate", "--p", files["p"], "--q", files["q"], "--n", "60",
                "--eps", "0.2", "--reps", "200", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        lines = out.read_text().splitlines()
        assert lines == printed and lines[0] == lines[1]
        payload = json.loads(lines[0])
        assert payload["eps"] == 0.2 and payload["reps"] == 200

    def test_estimate_csv(self, files, capsys):
        out = files["tmp"] / "est.csv"
        argv = ["estimate", "--p", files["p"], "--q", files["q"], "--n", "60",
                "--eps", "0.2", "--reps", "200", "--seed", "5"]
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert main(argv) == 0
        ref = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert int(row["n"]) == ref["n"] == 60
        for key in ("p_hat", "ci_low", "ci_high"):
            assert float(row[key]) == ref[key]
        rate = ref["per_n_rate"]
        assert float(row["per_n_rate"]) == (math.inf if rate is None else rate)


class TestSweep:
    SIZES = ["8", "10", "12"]
    EPS = ["0.125", "0.1", "0.08333333333333333"]  # 1/n, as its 17-digit repr

    @pytest.fixture
    def argv(self, tmp_path):
        for name, weight in (("p3", 1.0), ("q3", 0.5)):
            (tmp_path / f"{name}.json").write_text(json.dumps({"degrees": {"3": weight}}))
        return ["estimate", "--p", str(tmp_path / "p3.json"), "--q", str(tmp_path / "q3.json"),
                "--reps", "3000", "--seed", "5"]

    def test_three_sizes_then_the_fit_line(self, argv, tmp_path, capsys):
        # at the fixture's run, then at 20000 replications on two workers; the
        # same sweep as CSV writes a header and a row per size, and prints the
        # same fit line
        p = DegreeDistribution({3: 1.0})
        rate = rate_component_degree(p, {3: 0.5}).I1
        for reps, seed, workers in (("3000", "5", "1"), ("20000", "20240810", "2")):
            argv[argv.index("--reps") + 1], argv[argv.index("--seed") + 1] = reps, seed
            run = argv + ["--workers", workers]
            sweep = run + ["--n", *self.SIZES, "--eps", *self.EPS]
            out = tmp_path / f"sweep{seed}.jsonl"
            assert main(sweep + ["--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 4 and lines[3].startswith('{"slope": ')
            assert out.read_text().splitlines() == lines[:3]
            for line, n, eps in zip(lines, self.SIZES, self.EPS):
                assert main(run + ["--n", n, "--eps", eps]) == 0
                assert capsys.readouterr().out == line + "\n"
            results = [estimate_event_prob(p, {3: 0.5}, float(eps), int(reps), int(seed), n=int(n))
                       for n, eps in zip(self.SIZES, self.EPS)]
            slope, intercept = rate_fit(results)
            assert json.loads(lines[3]) == {"slope": slope, "intercept": intercept, "rate": rate,
                                            "relative_gap": (slope - rate) / rate}
            out = tmp_path / f"sweep{seed}.csv"
            assert main(sweep + ["--format", "csv", "--out", str(out)]) == 0
            assert capsys.readouterr().out == lines[3] + "\n"
            with open(out, newline="") as f:
                assert [row["n"] for row in csv.DictReader(f)] == self.SIZES

    def test_one_eps_serves_every_size_and_csv_has_a_row_each(self, argv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--n", *self.SIZES, "--eps", "0.2", "--format", "csv",
                            "--out", str(out)]) == 0
        fit = capsys.readouterr().out.splitlines()
        with open(out, newline="") as f:
            assert [row["n"] for row in csv.DictReader(f)] == self.SIZES
        assert main(argv + ["--n", *self.SIZES, "--eps", "0.2", "0.2", "0.2"]) == 0
        assert capsys.readouterr().out.splitlines()[3:] == fit and len(fit) == 1

    @pytest.mark.parametrize("eps", [["0.1", "0.2"], ["0.1", "0.2", "0.3", "0.4"]])
    def test_eps_count_off_exit_1_before_any_estimate(self, argv, monkeypatch, capsys, eps):
        import cmld.cli

        def never(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(cmld.cli, "estimate_event_prob", never)
        assert main(argv + ["--n", *self.SIZES, "--eps", *eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--eps" in captured.err

    def test_fewer_than_three_sizes_with_hits_prints_no_fit(self, argv, capsys):
        # a window of 0.01 at n = 10 and 14 holds only 5 and 7 vertices, and no
        # component of the 3-regular graph has an odd vertex count: only n = 8 hits
        assert main(argv + ["--n", "8", "10", "14", "--eps", "0.125", "0.01", "0.01"]) == 0
        captured = capsys.readouterr()
        hits = [json.loads(line)["hits"] for line in captured.out.splitlines()]
        assert len(hits) == 3 and hits[0] > 0 and hits[1:] == [0, 0]
        assert "no fit line: need >= 3 points with hits, have 1" in captured.err

    def test_repeated_sizes_print_no_fit(self, argv, capsys):
        # three hitting estimates at one size give one abscissa, not a line
        assert main(argv + ["--n", "12", "12", "12", "--eps", "0.08333333333333333"]) == 0
        captured = capsys.readouterr()
        hits = [json.loads(line)["hits"] for line in captured.out.splitlines()]
        assert len(hits) == 3 and min(hits) > 0
        assert "no fit line: need >= 3 distinct sizes with hits, have 1" in captured.err
        assert "Warning" not in captured.err

    def test_zero_rate_gives_a_null_relative_gap(self, argv, tmp_path, capsys):
        # q = p is the typical profile: its rate is exactly 0
        argv[argv.index("--q") + 1] = str(tmp_path / "p3.json")
        assert main(argv + ["--n", *self.SIZES, "--eps", "0.01"]) == 0
        fit = json.loads(capsys.readouterr().out.splitlines()[3])
        assert fit["rate"] == 0.0 and fit["relative_gap"] is None


class TestPinnedRuns:
    """Runs whose outputs are pinned: the estimator's hits, with the same bytes
    at one and four workers, and simulate's bytes in vector blocks, in scalar
    steps only, and with every block stopped after its first round."""

    @pytest.fixture
    def degree_file(self, tmp_path):
        def write(name, weights):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps({"degrees": {str(k): v for k, v in weights.items()}}))
            return str(f)
        return write

    @staticmethod
    def _stdout(capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("p, q, n, eps, reps, seed, hits", [
        ({3: 1.0}, {3: 0.5}, "16", "0.0625", "300000", "11", 170),  # int8 state
        # the whole 100-vertex graph as one component: four shards of up to
        # 2^16 lanes, the last a short one; 2m + 1 = 341, so the state is int16
        (P_MIX, P_MIX, "100", "0.005", "200000", "4242", 41287),
        # thirty degree columns one apart, so the wake compare has 29 rows
        (P30, P30, "100", "0.005", "200000", "4242", 195967),
    ], ids=["regular", "seven-columns", "thirty-columns"])
    def test_estimate_hits_and_bytes_at_one_and_four_workers(self, degree_file, capsys,
                                                             p, q, n, eps, reps, seed, hits):
        # the hit count itself, so a decision rule that moved every worker count alike fails
        argv = ["estimate", "--p", degree_file("p", p), "--q", degree_file("q", q), "--n", n,
                "--eps", eps, "--reps", reps, "--seed", seed]
        one = self._stdout(capsys, argv + ["--workers", "1"])
        assert json.loads(one)["hits"] == hits
        assert self._stdout(capsys, argv + ["--workers", "4"]) == one

    def test_regular_estimate_bytes_across_sizes_and_without_scipy(self, degree_file, capsys,
                                                                   monkeypatch):
        argv = ["estimate", "--p", degree_file("p", {3: 1.0}), "--q", degree_file("q", {3: 0.5}),
                "--eps", "0.0625", "--reps", "300000", "--seed", "11"]
        one = self._stdout(capsys, argv + ["--n", "16", "--workers", "1"])
        res = json.loads(one)
        assert (res["ci_low"], res["ci_high"]) == clopper_pearson(170, 300000)
        # two sizes in one process: the second estimate reuses the first one's pool
        sweep = self._stdout(capsys, argv + ["--n", "12", "16", "--workers", "1"])
        assert self._stdout(capsys, argv + ["--n", "12", "16", "--workers", "4"]) == sweep
        monkeypatch.setitem(sys.modules, "scipy", None)  # an import of scipy now raises
        assert self._stdout(capsys, argv + ["--n", "16", "--workers", "1"]) == one

    def _simulate(self, monkeypatch, capsys, argv, out, **gates):
        """stdout, then the bytes of the JSON, trajectory CSV and sidecar at ``out``,
        with the block gates of cmld.explore set to ``gates`` for the run."""
        import cmld.explore

        with monkeypatch.context() as mp:
            for name, value in gates.items():
                mp.setattr(cmld.explore, name, value)
            printed = self._stdout(capsys, argv + ["--out", str(out)])
        return [printed.encode()] + [out.with_suffix(suffix).read_bytes()
                                     for suffix in (".json", ".traj.csv", ".traj.meta.json")]

    def test_simulate_digest_in_blocks_scalar_steps_and_short_commits(self, degree_file, tmp_path,
                                                                      monkeypatch, capsys):
        argv = ["simulate", "--p", degree_file("pmix", P_MIX), "--n", "100000", "--seed", "7",
                "--trajectory"]
        block = self._simulate(monkeypatch, capsys, argv, tmp_path / "block.json")
        # the bytes written when every row of (A, V) was stored
        assert hashlib.sha256(block[2]).hexdigest() == (
            "d3e686445c779652b80af867677673d578a73a6841ec4b7a23bd25fa6a758d8a")
        # a block threshold no run reaches: every step is a scalar step
        assert self._simulate(monkeypatch, capsys, argv, tmp_path / "scalar.json",
                              _MIN_BLOCK=1 << 62) == block
        # a commit threshold no round reaches: every block stops after its first round
        assert self._simulate(monkeypatch, capsys, argv, tmp_path / "short.json",
                              _MIN_COMMIT=1 << 30) == block

    @pytest.mark.parametrize("p, n", [
        ({3: 1.0}, "500000"),  # one degree column, whose blocks reach the 2^16-step cap
        (P30, "100000"),  # each round's mass table has thirty rows
    ], ids=["one-column", "thirty-columns"])
    def test_simulate_bytes_in_blocks_and_scalar_steps(self, degree_file, tmp_path, monkeypatch,
                                                       capsys, p, n):
        argv = ["simulate", "--p", degree_file("p", p), "--n", n, "--seed", "7", "--trajectory"]
        block = self._simulate(monkeypatch, capsys, argv, tmp_path / "block.json")
        assert self._simulate(monkeypatch, capsys, argv, tmp_path / "scalar.json",
                              _MIN_BLOCK=1 << 62) == block


class TestRoundTrip:
    def test_degree_distribution_roundtrip(self, tmp_path):
        p = DegreeDistribution({2: 0.125, 7: 0.875})
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"degrees": {str(k): v for k, v in p.weights.items()}}))
        assert load_degree_distribution(f).weights == p.weights

    def test_state_point_roundtrip(self, tmp_path):
        x = StatePoint(0.7071067811865476, {3: 1.0 / 3.0})
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"x0": x.x0, "xk": {str(k): v for k, v in x.xk.items()}}))
        back = load_state_point(f)
        assert back.x0 == x.x0
        assert back.xk == x.xk

    def test_fluid_path_csv_exact_roundtrip(self, tmp_path):
        full = lln_path(DegreeDistribution({1: 0.5, 3: 0.5}), T=1.2, grid_points=101)
        # after tau_zeta every zeta_k is zero, but degrees (1, 3) are still tracked
        after = full.slice(float(full.grid[full.grid >= full.tau_markers["tau_zeta"]][0]), 1.2)
        for fp in (full, after):
            f = tmp_path / "traj.csv"
            fluid_path_to_csv(fp, f)
            back = fluid_path_from_csv(f)
            assert back.degrees == fp.degrees
            assert np.array_equal(back.grid, fp.grid)
            assert np.array_equal(back.psi, fp.psi)
            assert np.array_equal(back.zeta0, fp.zeta0)
            for k in fp.degrees:
                assert np.array_equal(back.zeta(k), fp.zeta(k))

    def test_fluid_path_csv_bytes_are_the_csv_writers(self, tmp_path):
        # one format string per row writes what csv.writer writes from
        # format(x, ".17g") cells, on signed zeros, subnormals, the largest
        # magnitudes, integral floats and a lln path
        odd = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               2.0, -3.0, 1e16, 0.1, 1 / 3]
        grid = np.arange(len(odd), dtype=float)
        zetak = np.column_stack([odd[::-1], np.roll(odd, 3)])
        special = FluidPath(grid=grid, degrees=(3, 12), zeta0=odd, zetak=zetak,
                            psi=np.roll(odd, 5))
        lln = lln_path(DegreeDistribution({1: 0.5, 3: 0.5}), T=1.2, grid_points=101)
        for name, fp in (("special", special), ("lln", lln)):
            f, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
            fluid_path_to_csv(fp, f)
            with open(ref, "w", newline="") as out:
                w = csv.writer(out)
                w.writerow(["t", "zeta_0"] + [f"zeta_{k}" for k in fp.degrees] + ["psi"])
                rows = np.column_stack([fp.grid, fp.zeta0, fp.zetak, fp.psi])
                w.writerows([format(float(x), ".17g") for x in row] for row in rows)
            assert f.read_bytes() == ref.read_bytes()
        cells = set((tmp_path / "special.csv").read_bytes().replace(b"\r\n", b",").split(b","))
        assert {b"-0", b"4.9406564584124654e-324", b"-2.2250738585072014e-308",
                b"1e+308", b"2", b"10000000000000000"} <= cells

    @pytest.mark.parametrize("text", [
        "t,zeta_0,zeta_x,psi\n0,0,1,0\n",
        "t,zeta_0,zeta_3,psi\n0,0,1,0\n0.1,0.2\n",
        "t,zeta_0,zeta_3,psi\n0,0,one,0\n",
        "",
        "t,zeta_0,zeta_3,psi\n",
        "t,zeta_0,zeta_3,psi\n0,nan,1,0\n",
        "t,zeta_0,zeta_3,psi\n0,0,1,0\n0.1,0,inf,0\n",
        "t,zeta_0,zeta_3,psi\n0,0,inf,0\n",
        b"\xff\xfet,zeta_0,zeta_3,psi\n0,0,1,0\n",
        "t,zeta_0,zeta_0,psi\n0,0,1,0\n",
        "t,zeta_0,zeta_3,zeta_03,psi\n0,0,1,1,0\n",
        "t,zeta_0,zeta_\u0663,psi\n0,0,1,0\n",
    ], ids=["header", "ragged", "not-a-number", "empty", "header-only", "nan", "inf",
            "inf-only-row", "not-utf-8", "degree-0", "degree-twice", "non-ascii-digit"])
    def test_malformed_trajectory_csv_is_a_value_error(self, tmp_path, text):
        # the exit-1 class, as for a malformed JSON file: not a CmldError
        f = tmp_path / "bad.csv"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=re.escape(str(f))) as info:
            fluid_path_from_csv(f)
        assert not isinstance(info.value, CmldError)

    def test_estimate_json_line_roundtrip(self):
        from cmld import EstimateResult, estimate_event_prob
        from cmld.serialize import json_line

        res = estimate_event_prob((1, 1, 3, 3), {3: 0.5}, eps=0.3, reps=300, seed=9)
        assert math.isfinite(res.per_n_rate)
        payload = json.loads(json_line({"eps": 0.3, **res.as_dict()}))
        assert payload.pop("eps") == 0.3
        assert EstimateResult(**payload) == res


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats()
                 | st.text(max_size=4))
_DEGREE_KEYS = st.integers(-1, 8).map(str) | st.floats().map(repr) | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["degrees", "x0", "xk"]) | _DEGREE_KEYS, inner, max_size=4),
    max_leaves=12,
)
_DEGREE_MAPS = st.dictionaries(_DEGREE_KEYS, _JSON_SCALARS, max_size=4)
# arbitrary JSON, and objects of the loaders' own shapes with arbitrary contents
_JSON_INPUTS = (_JSON_VALUES | st.fixed_dictionaries({"degrees": _DEGREE_MAPS})
                | st.fixed_dictionaries({"x0": _JSON_SCALARS, "xk": _DEGREE_MAPS}))


class TestLoaders:
    @given(value=_JSON_INPUTS)
    @example(value={"degrees": {"1": 1e308, "2": 1e308}})  # a sum past the double range
    @example(value={"x0": 10**400, "xk": {"NaN": 10**400}})
    @example(value=[1e300, 1e300])
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_loads_or_raises_value_error(self, tmp_path_factory, value):
        # NaN, infinities and integers past the double range included; every
        # CmldError a loader raises is a ValueError
        f = tmp_path_factory.mktemp("json") / "input.json"
        f.write_text(json.dumps(value))
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        for load in (load_degree_distribution, load_degree_input, load_state_point,
                     lambda path: load_sub_profile(path, p)):
            try:
                assert load(f) is not None
            except ValueError:
                pass


class TestDegreeSequenceInput:
    def test_simulate_accepts_json_array(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text(json.dumps([1, 1, 3, 3, 2, 2]))
        assert main(["simulate", "--p", str(f), "--n", "6", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 6 and payload["m"] == 6

    def test_simulate_non_integral_degree_exit_2(self, tmp_path, capsys):
        # [2.5, 2.5] once ran as the 2-regular sequence (2, 2)
        f = tmp_path / "seq.json"
        f.write_text(json.dumps([2.5, 2.5]))
        assert main(["simulate", "--p", str(f), "--n", "2", "--seed", "3"]) == 2
        assert "degree 2.5 is not a positive integer" in capsys.readouterr().err

    def test_simulate_array_length_mismatch_exit_1(self, tmp_path):
        f = tmp_path / "seq.json"
        f.write_text(json.dumps([1, 1]))
        assert main(["simulate", "--p", str(f), "--n", "6", "--seed", "3"]) == 1


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        assert main(["verify"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 9 and all("  PASS  " in row for row in rows)
        assert "25 segments" in rows[1] and "1000 randomized" in rows[4]

    def test_fast_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fast"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cmld") and "unrecognized arguments: --fast" in err

    def test_broken_chain_is_a_failed_row(self, monkeypatch, capsys):
        # a chain that breaks its own invariants fails the conservation row
        # and exits 1, not 2 as if the input were infeasible
        import cmld.verify

        def broken(*args, **kwargs):
            raise StateError("exploration exceeded the step bound m + n = 9")

        monkeypatch.setattr(cmld.verify, "eea_run", broken)
        row = cmld.verify._check_conservation()
        assert not row.passed
        assert row.detail == "exploration exceeded the step bound m + n = 9 on sequence 0"
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        row_line, = [ln for ln in out.splitlines() if ln.startswith("exploration conservation")]
        assert row_line.endswith("  FAIL  " + row.detail)
