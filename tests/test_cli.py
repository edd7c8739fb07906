import argparse
import json
import math
import time

import pytest

from lorlab import experiments
from lorlab.cli import (EXIT_NUMERICAL, EXIT_PARSE, EXIT_PASS, EXIT_SCENARIO,
                        build_parser, main)
from lorlab.experiments import RUNNERS


def run(args):
    return main(args)


def test_scatter_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = run(["scatter", "--out", str(out), "--seed", "5"])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["experiment"] == "scatter"
    assert report["scenario"] == "minkowski_slab"
    assert report["seed"] == 5
    assert report["records"]
    summary = report["summary"]
    assert set(summary) >= {"max_residual", "mean_residual", "pass",
                            "wall_time_s"}
    assert summary["pass"] is True


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["connect", "--out", str(a), "--seed", "3"]) == EXIT_PASS
    assert run(["connect", "--out", str(b), "--seed", "3"]) == EXIT_PASS
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    ra["summary"].pop("wall_time_s")
    rb["summary"].pop("wall_time_s")
    assert ra == rb


def test_seed_changes_records(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["connect", "--out", str(a), "--seed", "3"])
    run(["connect", "--out", str(b), "--seed", "4"])
    assert (json.loads(a.read_text())["records"]
            != json.loads(b.read_text())["records"])


def test_bad_config_is_parse_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["scatter", "--config", str(cfg)]) == EXIT_PARSE


def test_non_object_config_is_parse_error(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert run(["scatter", "--config", str(cfg)]) == EXIT_PARSE


def test_unknown_scenario_is_scenario_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "nonexistent"}))
    assert run(["scatter", "--config", str(cfg)]) == EXIT_SCENARIO


def test_bad_scenario_params_are_scenario_error(tmp_path, capsys):
    """A scenario parameter that the builder cannot read exits 3, like an
    unknown scenario; before, its ValueError escaped as a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "stationary_rot",
                               "scenario_params": {"B": "x"}}))
    assert run(["scatter", "--config", str(cfg)]) == EXIT_SCENARIO
    assert capsys.readouterr().err.startswith("scenario error: ")


@pytest.mark.parametrize("params, value", [({"n_space": 0}, "n_space"),
                                           ({"thickness": 0.0}, "thickness"),
                                           ({"thickness": -1.0}, "thickness")],
                         ids=["no_space", "zero_thickness", "negative_thickness"])
def test_degenerate_slab_is_scenario_error(tmp_path, capsys, params, value):
    """A slab without a spatial direction or with no thickness cannot be
    built: exit 3 naming the value, not a numerical failure in the
    march."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "minkowski_slab",
                               "scenario_params": params}))
    assert run(["scatter", "--config", str(cfg)]) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ")
    assert f"needs {value} " in err
    assert err.rstrip().endswith(f"not {params[value]}")


def test_unknown_command_is_parse_error(capsys):
    assert run(["no-such-command"]) == EXIT_PARSE


def test_threads_option_removed(capsys):
    assert run(["scatter", "--threads", "1"]) == EXIT_PARSE


def test_tolerance_violation_exits_numerical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-30, "n": 2}))
    out = tmp_path / "r.json"
    code = run(["michel", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert json.loads(out.read_text())["summary"]["pass"] is False


def test_csv_output(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    assert run(["scatter", "--config", str(cfg), "--out", str(out),
                "--csv", str(csv_path)]) == EXIT_PASS
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4      # header + three records
    assert "speed_drift" in lines[0]


def test_normal_coords_runs(tmp_path):
    out = tmp_path / "r.json"
    assert run(["normal-coords", "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["summary"]["max_residual"] < 1e-8
    assert len(report["records"]) == 8
    for rec in report["records"]:
        assert set(rec) == {"normal_distance", "max_normal_component",
                            "max_abs_phi"}, set(rec)


def test_conformal_reparam_runs(tmp_path):
    out = tmp_path / "r.json"
    assert run(["conformal-reparam", "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert [r["factor"] for r in report["records"]] == [
        "constant 1", "constant 4", "gaussian"]
    for rec in report["records"]:
        assert set(rec) == {"factor", "max_deviation", "sigma_end",
                            "alpha_rate_error",
                            "alpha_monotone_violations"}, set(rec)


def test_every_subcommand_has_help():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert set(helps) == set(RUNNERS)
    assert all(h and h.strip() for h in helps.values()), helps


# Exit code and record keys of the runners that read n, each run at
# {"n": 2}.
CONTRACTS = {
    "scatter": (EXIT_PASS, {"x", "v_proj", "y", "w_proj", "travel",
                            "speed_drift"}),
    "connect": (EXIT_PASS, {"x", "y", "energy", "causal", "endpoint_miss"}),
    "michel": (EXIT_PASS, {"x", "y", "position_residual",
                           "covector_residual"}),
    "defining-r-sweep": (EXIT_PASS, {"s", "r", "r_closed_form"}),
    "verify-thm1": (EXIT_PASS, {"x", "y", "fd_value", "half_transform",
                                "rel_error"}),
    "verify-thmmag": (EXIT_PASS, {"x", "v_proj", "endpoint_residual",
                                  "exit_residual", "length_residual",
                                  "action_residual"}),
    "magnetic-michel": (EXIT_PASS, {"x", "y", "action", "entry_residual",
                                    "exit_residual"}),
    # checks criterion 09's stated 2 l^2, which fails by design
    "lin-equivalence": (EXIT_NUMERICAL, {"x", "y", "length", "lorentzian",
                                         "magnetic", "ratio", "ratio_over_2l",
                                         "rel_error_vs_2l2"}),
}


@pytest.mark.parametrize("command", sorted(CONTRACTS))
def test_runner_contract(tmp_path, command):
    code, keys = CONTRACTS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2}))
    out = tmp_path / "r.json"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["summary"]["pass"] is (code == EXIT_PASS)
    assert len(report["records"]) == 2
    for rec in report["records"]:
        assert set(rec) >= keys, set(rec)
    if command == "lin-equivalence":
        assert all(abs(r["ratio_over_2l"] - 1.0) < 1e-6
                   for r in report["records"])


@pytest.mark.parametrize("command", ["kernel-tests", "gauge-invariance",
                                     "all"])
def test_fixed_runners_reject_a_config(tmp_path, capsys, command):
    """These runners read no config, so a tolerance there would be
    silently ignored: a non-empty config is a parse error that names the
    subcommand, raised before any criterion runs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-30}))
    assert run([command, "--config", str(cfg)]) == EXIT_PARSE
    assert f"error: {command} takes no config" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_misspelt_config_key_is_parse_error(tmp_path, capsys, command):
    """Every runner reads its config through one reader: a key that the
    runner does not read is a parse error that names the key, raised
    before any work."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerence": 1e-30}))
    assert run([command, "--config", str(cfg)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} ") and "'tolerence'" in err


@pytest.mark.parametrize("command, config", [
    ("scatter", {"n": "x"}), ("scatter", {"n": 2.0}), ("scatter", {"n": True}),
    ("scatter", {"tolerance": "tight"}), ("scatter", {"step": False}),
    ("scatter", {"scenario_params": [1]}), ("connect", {"scenario": 1}),
    ("normal-coords", {"tolerance": None})])
def test_wrong_config_value_type_is_parse_error(tmp_path, capsys, command,
                                                config):
    """A value whose type does not fit the key's default is a parse error
    that names the key, raised before any work."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg)]) == EXIT_PARSE
    (key,) = config
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} reads config key {key!r}")


@pytest.mark.parametrize("command, config", [
    ("scatter", {"n": -3}), ("scatter", {"n": 0}), ("scatter", {"step": 0}),
    ("connect", {"tolerance": 0.0}), ("normal-coords", {"tolerance": -1})])
def test_out_of_range_config_value_is_parse_error(tmp_path, capsys, command,
                                                  config):
    """A count below 1, or a tolerance or step not above 0, is a parse
    error that names the key, raised before any work: an empty grid or a
    negative tolerance would otherwise report a tolerance violation."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg)]) == EXIT_PARSE
    (key,) = config
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} reads config key {key!r}")


def test_int_config_value_reads_as_float(tmp_path):
    """An int is fine where a float is read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "tolerance": 1}))
    assert run(["scatter", "--config", str(cfg)]) == EXIT_PASS


@pytest.mark.parametrize("command", ["verify-thmmag", "magnetic-michel",
                                     "lin-equivalence"])
def test_stationary_runners_need_a_stationary_scenario(tmp_path, capsys,
                                                       command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "minkowski_slab", "n": 2}))
    assert run([command, "--config", str(cfg)]) == EXIT_SCENARIO
    assert "minkowski_slab" in capsys.readouterr().err


def test_report_fails_on_a_nan_residual():
    rep = experiments._report("x", "s", 0, [], [0.0, float("nan")], 1.0,
                              time.perf_counter())
    assert math.isnan(rep["summary"]["max_residual"])
    assert rep["summary"]["pass"] is False
