import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import grandamalgam as ga
from grandamalgam import cli
from grandamalgam.cli import ConfigError, RunConfig, emit_config, parse_config


SAMPLE_CONFIG = """\
# grand norm of the constant function
subcommand = grand
input = const:1
output_dir = out
seed = 0
param.p = 2
param.box = 0,1
param.cells = 64
"""


def test_parse_emit_round_trip():
    config = parse_config(SAMPLE_CONFIG)
    text = emit_config(config)
    assert parse_config(text) == config
    # emit is canonical
    assert emit_config(parse_config(text)) == text


def test_parse_config_empty_lists_required_fields():
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config("")


def test_parse_config_diagnostics():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a key value pair")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("subcommand = grand\ninput = const:1\nbogus = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("subcommand = grand\nsubcommand = norm\ninput = const:1\n")


def test_validation_out_of_range_p_names_invariant():
    with pytest.raises(ConfigError, match="p > 1"):
        parse_config("subcommand = grand\ninput = const:1\nparam.p = 0.5\n")


def test_validation_unknown_param_key():
    config = RunConfig("grand", "const:1", {"nonsense": "1"})
    with pytest.raises(ConfigError, match="param.nonsense"):
        cli.validate_config(config)


def test_validation_subcommand_and_cells():
    with pytest.raises(ConfigError, match="subcommand"):
        cli.validate_config(RunConfig("frobnicate", "const:1"))
    with pytest.raises(ConfigError, match="cells"):
        cli.validate_config(RunConfig("norm", "const:1", {"cells": "1"}))
    with pytest.raises(ConfigError, match="box"):
        cli.validate_config(RunConfig("norm", "const:1", {"box": "1,0"}))
    with pytest.raises(ConfigError, match="input"):
        cli.validate_config(RunConfig("norm", ""))
    with pytest.raises(ConfigError, match="probe"):
        cli.validate_config(RunConfig("maximal", "const:1", {"probe": "99"}))
    with pytest.raises(ConfigError, match="checks"):
        cli.validate_config(RunConfig("verify", "", {"checks": "bogus"}))


def test_cli_grand_closed_form(tmp_path):
    out = tmp_path / "g"
    code = cli.main(
        ["grand", "--p", "2", "--a", "const:1", "--f", "const:1",
         "--box", "0,1", "--cells", "64", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "grand_summary.json").read_text())
    assert sorted(summary) == sorted(["value", "argmax_eps", "variant", "p", "theta"])  # README
    assert summary["value"] == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert summary["argmax_eps"] == pytest.approx(1.0, rel=1e-6, abs=0.0)
    curve = (out / "grand_curve.csv").read_text().splitlines()
    assert curve[0] == "eps,inner_norm,weighted_term"
    assert len(curve) >= 34  # default 33-point grid, plus any refinement row


def test_cli_norm_and_weight(tmp_path):
    out = tmp_path / "n"
    code = cli.main(
        ["norm", "--f", "const:2", "--w", "const:1", "--p", "2",
         "--box", "0,1", "--cells", "32", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "norm_summary.json").read_text())
    assert summary["value"] == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_cli_maximal_probe(tmp_path):
    out = tmp_path / "m"
    code = cli.main(
        ["maximal", "--f", "indicator:0,1", "--box", "-8,8", "--cells", "2048",
         "--probe", "2", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "maximal_summary.json").read_text())
    assert summary["probes"][0]["mf"] == pytest.approx(0.25, abs=0.01)
    assert (out / "maximal.csv").exists()
    probes = (out / "probes.csv").read_text().splitlines()
    assert probes[0] == "x,mf"


def test_cli_amalgam_one_window(tmp_path):
    out = tmp_path / "a"
    code = cli.main(
        ["amalgam", "--f", "const:1", "--local", "classical", "--global", "classical",
         "--p", "2", "--q", "2", "--window-side", "64", "--window-stride", "64",
         "--box", "0,1", "--cells", "64", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "amalgam_summary.json").read_text())
    assert summary["value"] == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert (out / "control.csv").exists()
    # a classical global stage has no epsilon curve: a header-only file
    assert (out / "outer_curve.csv").read_text() == "eps,inner_norm,weighted_term\n"


@pytest.mark.parametrize("local", ["classical", "grand"])
@pytest.mark.parametrize("global_", ["classical", "grand"])
def test_cli_amalgam_summary_keeps_both_exponents(local, global_, tmp_path):
    out = tmp_path / "a"
    code = cli.main(
        ["amalgam", "--f", "const:1", "--local", local, "--global", global_,
         "--p", "3", "--q", "2", "--window-side", "16", "--window-stride", "16",
         "--box", "0,1", "--cells", "64", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "amalgam_summary.json").read_text())
    assert (summary["p"], summary["q"]) == (3.0, 2.0)
    assert (summary["local"], summary["global"]) == (local, global_)


def test_cli_input_from_csv(tmp_path):
    dom = ga.BoxDomain(0.0, 1.0, 32)
    f = ga.build(dom, lambda x: x)
    path = tmp_path / "f.csv"
    ga.write_grid_csv(f, path)
    out = tmp_path / "o"
    code = cli.main(["norm", "--f", str(path), "--p", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "norm_summary.json").read_text())
    assert summary["value"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)


def test_cli_config_file_execution(tmp_path):
    out = tmp_path / "cfg_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE_CONFIG.replace("output_dir = out", f"output_dir = {out}"))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert (out / "grand_summary.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("subcommand = grand\ninput = const:1\nparam.p = 0.5\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "p > 1" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_verify_subset_and_artifacts(tmp_path):
    out = tmp_path / "v"
    code = cli.main(
        ["verify", "--check", "norm_axioms", "--check", "maximal_unbounded",
         "--cells", "64", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == ["norm_axioms", "maximal_unbounded"]
    assert (out / "norm_axioms.json").exists()
    assert (out / "norm_axioms.csv").exists()
    growth = (out / "growth_curve.csv").read_text().splitlines()
    assert growth[0] == "T,log_T,norm"
    assert len(growth) == 6


def test_cli_verify_subset_deterministic(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(
            ["verify", "--check", "norm_axioms", "--cells", "64", "--seed", "7",
             "--out", str(out)]
        ) == 0
        outs.append(out)
    for fname in ("summary.json", "norm_axioms.json", "norm_axioms.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_sampler_specs():
    s = cli.make_sampler("gaussian:0,0.5", 1)
    assert s(0.0) == pytest.approx(1.0, rel=1e-6, abs=0.0)
    with pytest.raises(ConfigError):
        cli.make_sampler("gaussian:0", 1)
    with pytest.raises(ConfigError):
        cli.make_sampler("wat:1", 1)
    ramp = cli.make_sampler("ramp:0,1", 1)
    assert float(ramp(0.5)) == pytest.approx(0.5, rel=1e-6, abs=0.0)
    bump = cli.make_sampler("bump:0,1", 1)
    assert float(bump(0.0)) == pytest.approx(1.0, rel=1e-6, abs=0.0)
    assert float(bump(2.0)) == 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grand", "--eps-count", "abc"], "param.eps_count: expected an integer, got 'abc'"),
        (["grand", "--theta", "x"], "param.theta: expected a number, got 'x'"),
        (["amalgam", "--window-side", "2.5"], "param.window_side: expected an integer, got '2.5'"),
        (["amalgam", "--q", "two"], "param.q: expected a number, got 'two'"),
        (["norm", "--p", "inf"], "param.p: expected a finite number, got 'inf'"),
        (["amalgam", "--q", "nan"], "param.q: expected a finite number, got 'nan'"),
        (["grand", "--theta", "inf"], "param.theta: expected a finite number, got 'inf'"),
        (["grand", "--eps-min", "nan"], "param.eps_min: expected a finite number, got 'nan'"),
        (["grand", "--p", "1e999"], "param.p: expected a finite number, got '1e999'"),
        (["grand", "--p", "2", "--eps-min", "1.5"], "param.eps_min: need 0 < eps_min < p - 1 = 1.0, got 1.5"),
        (["maximal", "--cells", "64", "--radii", "5000"],
         "param.radii: max radius 5000 exceeds the grid extent 64"),
        (["maximal", "--radii", "3,3"], "param.radii: radii must be distinct"),
        (["grand", "--f", "wat:1"],
         "input: unknown sampler 'wat'; expected one of const, indicator, gaussian, ramp, bump"),
        (["amalgam", "--a", "gaussian:0"],
         "param.a: gaussian: expected a center per axis and a sigma, got 1 number(s) on a 1-D box"),
        (["norm", "--f", "gaussian:0,abc"], "input: gaussian: expected comma-separated numbers, got '0,abc'"),
        (["norm", "--f", "const:1,5,6"], "input: const: expected the value, got 3 number(s) on a 1-D box"),
        (["norm", "--f", "gaussian:0,inf"], "input: gaussian: expected finite numbers, got '0,inf'"),
        (["grand", "--f", "indicator:0.5,0.2"], "input: indicator: axis 0: lower 0.5 > upper 0.2"),
        (["norm", "--box", "0,1,0,1", "--f", "indicator:0,1"],
         "input: indicator: expected a lower,upper pair per axis, got 2 number(s) on a 2-D box"),
        (["norm", "--w", "gaussian:0,0"], "param.w: gaussian: sigma must be positive, got 0.0"),
        (["amalgam", "--b", "bump:0.5,-1"], "param.b: bump: width must be positive, got -1.0"),
        (["grand", "--a", "ramp:1,0"], "param.a: ramp: need a < b, got a = 1.0, b = 0.0"),
        (["norm", "--box", "0,1,0,1", "--f", "ramp:0,1"],
         "input: ramp: expected a and b (1-D only), got 2 number(s) on a 2-D box"),
        (["norm", "--box", "0,inf"], "param.box: expected finite numbers, got '0,inf'"),
        (["verify", "--check", "norm_axioms", "--seed", "-1"], "seed: expected a non-negative integer, got -1"),
        (["amalgam", "--window-stride", "100"],
         "param.window_stride: axis 0: window stride 100 cells exceeds the 64 cells of the box"),
        (["grand", "--a", "indicator:0,0.5"], "param.a: weight values must be strictly positive"),
        (["grand", "--f", "indicator:0.001,0.002"],
         "input: indicator:0.001,0.002 is zero at every cell center of the box"),
        (["amalgam", "--f", "gaussian:100,0.01"],
         "input: gaussian:100,0.01 is zero at every cell center of the box"),
        (["grand", "--p", "1e300"], "param.p: 1e+300 - 1 is not exact in float64; need at most 2**53"),
        (["amalgam", "--p", "1e17"], "param.p: 1e+17 - 1 is not exact in float64; need at most 2**53"),
        (["amalgam", "--q", "1e17"], "param.q: 1e+17 - 1 is not exact in float64; need at most 2**53"),
        (["norm", "--box", "-1e308,1e308", "--cells", "4"],
         "param.box: axis 0: the extent upper - lower of [-1e+308, 1e+308] overflows"),
    ],
)
def test_bad_numeric_value_names_the_parameter(tmp_path, capsys, argv, message):
    # a later --f in argv takes the place of this one (verify takes none)
    f = [] if argv[0] == "verify" else ["--f", "const:1"]
    assert cli.main([argv[0], *f, *argv[1:], "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert not (tmp_path / "o").exists()  # rejected before the output directory is made


def test_weight_specs_are_checked_where_they_are_sampled(tmp_path, capsys):
    # A CSV's grid is known only on load, which comes before the output directory is made.
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (4, 4)), 1.0), path)
    cases = [
        (["norm", "--f", str(path), "--w", "gaussian:0,1"],
         "param.w: gaussian: expected a center per axis and a sigma, got 2 number(s) on a 2-D box"),
        (["amalgam", "--f", str(path), "--local", "classical", "--b", "ramp:0,1"],
         "param.b: ramp: expected a and b (1-D only), got 2 number(s) on a 2-D box"),
    ]
    for argv, message in cases:
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "o").exists()


def test_bad_numeric_value_in_config_file_names_the_parameter():
    with pytest.raises(ConfigError, match="param.eps_min: expected a number, got 'small'"):
        parse_config("subcommand = grand\ninput = const:1\nparam.eps_min = small\n")


def _flag_config(monkeypatch, argv):
    """The validated RunConfig that ``main(argv)`` would run."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert cli.main(argv) == 0
    return cli.validate_config(seen[0])


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_flags_and_config_file_share_defaults(monkeypatch, subcommand):
    if subcommand == "verify":
        argv, text = ["verify"], "subcommand = verify\n"
    else:
        argv = [subcommand, "--f", "const:1"]
        text = f"subcommand = {subcommand}\ninput = const:1\n"
    assert _flag_config(monkeypatch, argv) == parse_config(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--all"],
        ["grand", "--f", "const:1", "--eps-min", "0.01", "--variant", "full"],
        ["amalgam", "--f", "const:1", "--local", "classical", "--window-side", "8"],
        ["maximal", "--f", "const:1", "--no-center", "--probe", "-2,3", "--box", "-4,4"],
    ],
)
def test_flag_config_round_trips_through_a_config_file(monkeypatch, argv):
    config = _flag_config(monkeypatch, argv)
    assert parse_config(emit_config(config)) == config


def test_probe_on_a_2d_box_is_rejected_before_computing(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, (cli,), "maximal_fast")
    argv = ["maximal", "--f", "const:1", "--box", "-8,8,-8,8", "--cells", "16", "--probe", "2"]
    assert cli.main([*argv, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.startswith("config error: param.probe:")
    assert calls == []


@pytest.mark.parametrize(
    "domain, probe, message",
    [
        (ga.BoxDomain(0.0, 1.0, 16), "5", "point 5.0 outside the grid [0.0, 1.0]"),
        (ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (4, 4)), "0.5", "probe points need a 1-D grid"),
    ],
)
def test_probe_is_checked_against_the_csv_grid(tmp_path, capsys, monkeypatch, domain, probe,
                                               message):
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(domain, 1.0), path)
    calls = _count_calls(monkeypatch, (cli,), "maximal_fast")
    argv = ["maximal", "--f", str(path), "--probe", probe, "--out", str(tmp_path / "m")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"config error: param.probe: {message}"
    assert calls == []


def test_radii_are_checked_against_the_csv_grid(tmp_path, capsys, monkeypatch):
    # the box says 1024 cells, the CSV has 16: the CSV's grid decides, on load
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(ga.BoxDomain(0.0, 1.0, 16), 1.0), path)
    calls = _count_calls(monkeypatch, (cli,), "maximal_fast")
    argv = ["maximal", "--f", str(path), "--radii", "2,17", "--out", str(tmp_path / "m")]
    assert cli.main(argv) == 2
    message = "param.radii: max radius 17 exceeds the grid extent 16"
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert calls == []
    assert cli.main([*argv[:-3], "2,16", *argv[-2:]]) == 0


def test_probe_inside_a_csv_grid_outside_the_box_is_accepted(tmp_path):
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(ga.BoxDomain(10.0, 20.0, 16), 1.0), path)
    out = tmp_path / "m"
    assert cli.main(["maximal", "--f", str(path), "--probe", "15", "--out", str(out)]) == 0
    summary = json.loads((out / "maximal_summary.json").read_text())
    assert summary["probes"] == [{"x": 15.0, "mf": pytest.approx(1.0, rel=1e-12, abs=0.0)}]


def test_missing_csv_input_is_reported_as_missing(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert cli.main(["norm", "--f", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: input: file not found: {missing}"
    assert not (tmp_path / "o").exists()


def _count_calls(monkeypatch, modules, name):
    """Wrap ``name`` at every binding site in ``modules``; returns the call log."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_amalgam_command_evaluates_control_function_once(tmp_path, monkeypatch):
    from grandamalgam import amalgam

    calls = _count_calls(monkeypatch, (amalgam, cli), "control_function")
    out = tmp_path / "a"
    assert cli.main(["amalgam", "--f", "gaussian:0.5,0.2", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "control.csv").exists() and (out / "outer_curve.csv").exists()


def test_maximal_probe_reuses_the_maximal_function(tmp_path, monkeypatch):
    from grandamalgam import maximal

    calls = _count_calls(monkeypatch, (maximal, cli), "maximal_fast")
    out = tmp_path / "m"
    argv = ["maximal", "--f", "indicator:-1,1", "--cells", "256", "--probe", "2,4,-7.5"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    dom = ga.BoxDomain(-8.0, 8.0, 256)
    chi = ga.indicator(dom, -1.0, 1.0)
    want = ga.maximal_tail_profile(chi, ga.RadiusSet.full(dom), [2.0, 4.0, -7.5])
    summary = json.loads((out / "maximal_summary.json").read_text())
    assert [(p["x"], p["mf"]) for p in summary["probes"]] == want


def test_readme_examples_run(tmp_path):
    """Each `grandamalgam` command of the README runs, and its config block parses."""
    blocks = re.findall(r"```(\w+)\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S)
    lines = [ln for lang, b in blocks if lang == "sh" for ln in b.replace("\\\n", " ").splitlines()]
    argvs = [shlex.split(ln)[1:] for ln in lines if ln.startswith("grandamalgam ")]
    argvs = [argv for argv in argvs if argv[0] != "run"]  # the config file is not in the README
    assert len(argvs) == 4
    for k, argv in enumerate(argvs):
        if "--out" in argv:
            i = argv.index("--out")
            argv = argv[:i] + argv[i + 2:]
        assert cli.main([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
    (ini,) = [b for lang, b in blocks if lang == "ini"]
    assert parse_config(ini).subcommand == "grand"
