import contextlib
import gc
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grandamalgam as ga
from grandamalgam import cli, gridfn, reporting
from grandamalgam.cli import ConfigError, RunConfig, parse_config
from grandamalgam.norms import DEFAULT_EPS_COUNT


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


def emit_config(config: RunConfig) -> str:
    """``config`` as a config file, in the canonical order of its keys."""
    lines = [f"{key} = {getattr(config, key)}" for key in cli._TOP_KEYS]
    lines += [f"param.{key} = {config.parameters[key]}" for key in sorted(config.parameters)]
    return "\n".join(lines) + "\n"


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
    with pytest.raises(ConfigError, match="param.p: need an exponent > 1, got 0.5"):
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
    assert sorted(summary) == sorted(["value", "upper_bound", "argmax_eps", "variant", "p", "theta"])  # README
    assert summary["value"] == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert summary["value"] <= summary["upper_bound"] <= summary["value"] * (1 + 1e-12)
    assert summary["argmax_eps"] == pytest.approx(1.0, rel=1e-6, abs=0.0)
    curve = (out / "grand_curve.csv").read_text().splitlines()
    assert curve[0] == "eps,inner_norm,weighted_term"
    assert len(curve) >= DEFAULT_EPS_COUNT + 1  # the header and the default grid, plus any off-grid maximiser


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
         "--p", "3", "--q", "2", "--theta", "2", "--window-side", "16", "--window-stride", "16",
         "--box", "0,1", "--cells", "64", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "amalgam_summary.json").read_text())
    assert (summary["p"], summary["q"]) == (3.0, 2.0)
    assert (summary["local"], summary["global"]) == (local, global_)
    # each stage's theta and variant under its own keys, as a classical stage writes them
    for stage, theta, variant in ((local, "local_theta", "local_variant"), (global_, "theta", "variant")):
        want = (2.0, "over_p") if stage == "grand" else (None, "classical")
        assert (summary[theta], summary[variant]) == want


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
    assert "param.p: need an exponent > 1, got 0.5" in capsys.readouterr().err
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
        (["grand", "--eps-min", "0.01"], "--eps-min: unknown flag for subcommand grand"),
        (["grand", "--p", "1e999"], "param.p: expected a finite number, got '1e999'"),
        (["grand", "--p", "2", "--eps-count", "1"], "param.eps_count: need at least two grid points"),
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
        # words, the seed and argv itself, which the parameter table checks
        (["grand", "--variant", "foo"], "param.variant: expected 'over_p' or 'full'"),
        (["grand", "--eps-mode", "linear"], "--eps-mode: unknown flag for subcommand grand"),
        (["amalgam", "--global", "x"], "param.global: expected 'classical' or 'grand'"),
        (["verify", "--check", "norm_axioms", "--seed", "x"], "seed: expected an integer, got 'x'"),
        (["grand", "--bogus", "1"], "--bogus: unknown flag for subcommand grand"),
        (["verify", "--all", "--p", "2"], "--p: unknown flag for subcommand verify"),
        (["norm", "--p", "--cells", "4"], "subcommand: unexpected argument '4'"),  # --p's value dropped
        (["maximal", "--no-center=yes"], "--no-center: takes no value"),
        (["grand", "stray"], "subcommand: unexpected argument 'stray'"),
        (["frob"], "subcommand: expected one of norm, grand, amalgam, maximal, verify, run, got 'frob'"),
        # an exponent just past its stage kind's rule, named by its key
        (["amalgam", "--global", "grand", "--q", "1"], "param.q: need an exponent > 1, got 1.0"),
        (["amalgam", "--global", "classical", "--q", "0.5"], "param.q: need an exponent >= 1, got 0.5"),
    ],
)
def test_bad_numeric_value_names_the_parameter(tmp_path, capsys, argv, message):
    # a later --f in argv takes the place of this one (verify takes none)
    f = [] if argv[0] == "verify" else ["--f", "const:1"]
    assert cli.main([argv[0], *f, *argv[1:], "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert not (tmp_path / "o").exists()  # rejected before the output directory is made


def test_a_norm_past_float_range_is_an_input_error(tmp_path, capsys):
    """|f| = a = 1e300 with full weighting: the grand norm is about 1e900 at eps = p - 1 = 2.
    That is an error naming the input, not a summary that reads Infinity."""
    argv = ["grand", "--f", "const:1e300", "--a", "const:1e300", "--variant", "full", "--p", "3",
            "--box", "0,1", "--cells", "4", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: input: the norm exceeds float range")


def test_a_weighted_term_past_float_range_is_an_input_error(tmp_path, capsys):
    """|f| = 1e308: the inner norm is finite, but the term eps**theta times it is 8e308 at
    eps = p - 1 = 2.  That is an error naming the input too, not Infinity."""
    argv = ["grand", "--f", "const:1e308", "--p", "3", "--theta", "3", "--box", "0,1", "--cells", "4",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: input: the norm exceeds float range")


@pytest.mark.parametrize("variant", ["over_p", "full"])
def test_a_prefactor_past_float_range_gives_its_finite_term(tmp_path, variant):
    """theta = 1100 at p = 3: eps**theta passes float range for eps above 1.906, but the
    term at eps = p - 1 = 2, 2**1100 * 1e-30 = 1.358e301, does not.  The sup is that term,
    and no term on the curve is inf."""
    out = tmp_path / "o"
    argv = ["grand", "--f", "const:1e-30", "--p", "3", "--theta", "1100", "--variant", variant,
            "--box", "0,1", "--cells", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    summary = json.loads((out / "grand_summary.json").read_text())
    assert summary["value"] == pytest.approx(math.ldexp(1e-30, 1100), rel=1e-12, abs=0.0)
    assert summary["argmax_eps"] == 2.0
    rows = [line.split(",") for line in (out / "grand_curve.csv").read_text().splitlines()[1:]]
    terms = [float(row[2]) for row in rows]
    assert all(map(math.isfinite, terms)) and max(terms) == summary["value"]


@pytest.mark.parametrize(
    "argv",
    [
        # the grand norm is about 1e900 at eps = p - 1 = 2
        ["grand", "--f", "const:1e300", "--a", "const:1e300", "--variant", "full", "--p", "3"],
        # the local L^1 norms are 1e300, the outer L^1(b^(2/3)) norm at eta = 2 about 1e500
        ["amalgam", "--f", "const:1e300", "--local", "classical", "--p", "1", "--q", "3",
         "--b", "const:1e300", "--window-side", "4", "--window-stride", "4"],
    ],
)
def test_a_run_that_fails_while_computing_makes_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main([*argv, "--box", "0,1", "--cells", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: input: the norm exceeds float range")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grand", "--f", "const:1", "--p"], "--p: expected a value"),
        ([], "subcommand: expected one of norm, grand, amalgam, maximal, verify, run, got ''"),
    ],
)
def test_a_missing_value_or_subcommand_is_named(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # where the default --out, out/, would be made
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_a_rejected_command_leaves_no_cyclic_garbage(tmp_path, capsys):
    """Reference counting frees everything a rejected call made: no parser, or any other
    cycle, is left for a later collection to find at a time that depends on unrelated code."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["grand", "--f", "const:1", "--p", "0.5", "--out", str(tmp_path / "o")]) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("sub", ["grand", "amalgam"])
def test_a_successful_command_leaves_no_cyclic_garbage(tmp_path, sub):
    """The same for a run that computes and writes its files: json's indenting encoder, made
    of closures, would leave cycles for each JSON file."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main([sub, "--f", "gaussian:0.3,0.1", "--out", str(tmp_path / "o")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_files_are_what_json_dumps_writes(tmp_path):
    """Every JSON file of every subcommand is byte for byte json.dumps(payload, sort_keys=True,
    indent=2) and a newline, and so is a payload with every kind of value."""
    payload = {"b": [1, 2.5, {"x": None, "é": "ü\n"}, [], {}], "a": True, "c": {"z": [False, 1e300, -0.0]}}
    assert reporting._json(payload) == json.dumps(payload, sort_keys=True, indent=2)
    for k, argv in enumerate([["norm", "--f", "gaussian:0.5,0.2"], ["grand", "--f", "bump:0.5,0.4"],
                              ["amalgam", "--f", "gaussian:0.5,0.2", "--local", "classical"],
                              ["maximal", "--f", "indicator:-1,1", "--probe", "0,2"],
                              ["verify", "--check", "norm_axioms", "--cells", "32"]]):
        assert cli.main([*argv, "--out", str(tmp_path / str(k))]) == 0
        for path in (tmp_path / str(k)).glob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path


def _help_lines(capsys, argv) -> dict:
    """The help that ``main(argv)`` prints, by first word of each line."""
    assert cli.main(argv) == 0
    return {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.strip()}


@pytest.mark.parametrize("subcommand", [*cli.SUBCOMMANDS, "run"])
def test_help_lists_every_flag_with_its_default_and_words(capsys, subcommand):
    lines = _help_lines(capsys, [subcommand, "--help"])
    for key, default in cli._PARAMS.get(subcommand, {"config": None}).items():
        line = lines["--" + key.replace("_", "-")]
        assert default is None or f"default {default!r}" in line
        kind = cli._KINDS.get(key)
        assert all(word in line for word in kind) if isinstance(kind, tuple) else True
    assert _help_lines(capsys, [subcommand, "--out", "x", "-h"]) == lines


def test_top_level_help_lists_every_subcommand(capsys):
    lines = _help_lines(capsys, ["--help"])
    assert all(sub in lines for sub in (*cli.SUBCOMMANDS, "run"))
    assert _help_lines(capsys, ["-h"]) == lines


def test_the_readme_names_only_flags_and_keys_that_exist():
    """Every --flag the README writes is a flag of some subcommand, and every param.<key> a key
    of some subcommand, so a deleted option cannot stay documented."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    flags = {flag for sub in (*cli.SUBCOMMANDS, "run") for flag in cli._flags(sub)}
    # --help is answered before the table is read; --key is the README's placeholder, --bogus
    # its example of an unknown flag, and --no-build-isolation a flag of pip
    flags |= {"--help", "--key", "--bogus", "--no-build-isolation"}
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) <= flags
    assert set(re.findall(r"param\.(\w+)", text)) <= {key for keys in cli._PARAMS.values() for key in keys}


def test_negative_values_follow_a_flag_or_an_equals_sign(tmp_path):
    """The token after a flag is its value, even when it starts with '-'."""
    argv = ["maximal", "--f", "indicator:-1,1", "--cells", "256"]
    forms = [["--box", "-8,8", "--probe", "-2"], ["--box=-8,8", "--probe=-2"], ["--probe", "-2"]]
    outputs = []
    for k, form in enumerate(forms):
        assert cli.main([*argv, *form, "--out", str(tmp_path / str(k))]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()})
    assert outputs[0] == outputs[1] == outputs[2] and "probes.csv" in outputs[0]


def test_a_missing_input_names_its_key(tmp_path, capsys):
    assert cli.main(["grand", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: input: required (a built-in sampler spec or a grid CSV path)\n"
    assert not (tmp_path / "o").exists()


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
    with pytest.raises(ConfigError, match="param.theta: expected a number, got 'small'"):
        parse_config("subcommand = grand\ninput = const:1\nparam.theta = small\n")


@pytest.mark.parametrize(
    "sub, key, value, message",
    [
        ("amalgam", "p", "0.5", "need an exponent > 1, got 0.5"),
        ("grand", "theta", "0", "need a power of epsilon > 0, got 0.0"),
        ("grand", "eps_count", "1", "need at least two grid points"),
    ],
)
def test_a_csv_input_stage_value_is_rejected_before_the_file_is_read(tmp_path, monkeypatch, sub, key,
                                                                      value, message):
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(ga.BoxDomain(0.0, 1.0, 16), 1.0), path)

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_grid_csv", unread)
    with pytest.raises(ConfigError) as err:
        parse_config(f"subcommand = {sub}\ninput = {path}\nparam.{key} = {value}\n")
    assert str(err.value) == f"param.{key}: {message}"
    # a theta that no stage reads is not checked
    parse_config(f"subcommand = amalgam\ninput = {path}\nparam.local = classical\n"
                 "param.global = classical\nparam.theta = 0\n")


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
        ["grand", "--f", "const:1", "--eps-count", "5", "--variant", "full"],
        ["amalgam", "--f", "const:1", "--local", "classical", "--window-side", "8"],
        ["maximal", "--f", "const:1", "--no-center", "--probe", "-2,3", "--box", "-4,4"],
    ],
)
def test_flag_config_round_trips_through_a_config_file(monkeypatch, argv):
    config = _flag_config(monkeypatch, argv)
    assert parse_config(emit_config(config)) == config


@pytest.mark.parametrize(
    "argv, same",
    [
        (["maximal", "--f", "const:1", "--include-center", "false"], ["maximal", "--f", "const:1", "--no-center"]),
        (["verify", "--checks", "norm_axioms,invariance"],
         ["verify", "--check", "norm_axioms", "--check", "invariance"]),
        (["verify", "--check", "norm_axioms", "--all"], ["verify"]),
        (["grand", "--f", "const:1", "--p", "3", "--p=2.5"], ["grand", "--f=const:1", "--p", "2.5"]),
    ],
)
def test_flag_forms_that_give_the_same_config(monkeypatch, argv, same):
    """Each table key's own flag, the short forms, --all over --check, and the last of a
    repeated flag."""
    assert _flag_config(monkeypatch, argv) == _flag_config(monkeypatch, same)


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


def test_probe_at_the_ends_of_a_csv_grid_is_accepted(tmp_path):
    """A CSV grid's ends are inferred from its centers, off the written box by rounding
    (here [1.4e-17, 0.49999999999999994]): its box's own ends are still in the grid."""
    path = tmp_path / "f.csv"
    ga.write_grid_csv(ga.constant(ga.BoxDomain(0.0, 0.5, 3), 1.5), path)
    out = tmp_path / "m"
    assert cli.main(["maximal", "--f", str(path), "--probe", "0.0,0.5", "--out", str(out)]) == 0
    summary = json.loads((out / "maximal_summary.json").read_text())
    assert summary["probes"] == [{"x": 0.0, "mf": 1.5}, {"x": 0.5, "mf": 1.5}]


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


def _spec(name: str, lower: list, upper: list) -> str:
    """A spec of the sampler family ``name`` that is positive on the whole box."""
    mid = [(lo + up) / 2 for lo, up in zip(lower, upper)]
    width = max(up - lo for lo, up in zip(lower, upper))
    args = {
        "const": [1.5],
        "indicator": [v for lo, up in zip(lower, upper) for v in (lo - 1.0, up + 1.0)],
        "gaussian": [*mid, width],
        "ramp": [lower[0] - width, upper[0] + 1.0],
        "bump": [*mid, 2.0 * width],
    }[name]
    assert len(args) == gridfn._SAMPLERS[name][1](len(lower))
    return f"{name}:" + ",".join(map(repr, args))


@st.composite
def _valid_run(draw):
    """A valid norm, grand, amalgam or maximal run from the parameter tables, on a box of at
    most 16 cells: its subcommand, its values by key ("input" for --f, a sampler spec), its
    box, and whether the input is that spec's grid CSV on the box (see :func:`_csv_input`)."""
    sub = draw(st.sampled_from(["norm", "grand", "amalgam", "maximal"]))
    ndim = draw(st.sampled_from([1, 2]))
    cells = [draw(st.integers(2, 16))] if ndim == 1 else [draw(st.integers(2, 4)) for _ in range(2)]
    lower = [float(draw(st.integers(-4, 4))) for _ in range(ndim)]
    upper = [lo + draw(st.sampled_from([0.5, 1.0, 3.0])) for lo in lower]
    families = [name for name, (_, count, _, _) in gridfn._SAMPLERS.items() if count(ndim) is not None]
    given = {
        "input": _spec(draw(st.sampled_from(families)), lower, upper),
        "box": ",".join(repr(v) for pair in zip(lower, upper) for v in pair),
        "cells": ",".join(map(str, cells)),
    }
    for key, kind in cli._KINDS.items():
        if key not in cli._PARAMS[sub]:
            continue
        if isinstance(kind, tuple):
            given[key] = draw(st.sampled_from(kind))
        elif kind == "sampler":
            given[key] = _spec(draw(st.sampled_from(families)), lower, upper)
        if kind == "sampler" and draw(st.integers(0, 3)) == 0:  # a constant at the edges of float range
            given[key] = f"const:1e{draw(st.integers(-300, 308))}"
    grand = {"p": sub == "grand" or given.get("local") == "grand", "q": given.get("global") == "grand"}
    for key in ("p", "q"):
        if key in cli._PARAMS[sub]:
            given[key] = repr(draw(st.floats(1.5 if grand[key] else 1.0, 4.0)))
    if "theta" in cli._PARAMS[sub]:
        # a large power of eps only where every grand stage reaches an eps above 1
        wide = all(float(given[key]) > 2.0 for key in ("p", "q") if key in given and grand[key])
        given["theta"] = repr(draw(st.floats(0.25, 3.0) | st.floats(3.0, 1100.0 if wide else 3.0)))
    if sub == "grand":
        given["eps_count"] = str(draw(st.sampled_from([2, 3]) | st.integers(2, 40)))
    elif sub == "amalgam":
        given["window_side"] = str(draw(st.integers(1, min(cells))))
        given["window_stride"] = str(draw(st.integers(1, min(cells))))
    elif sub == "maximal":
        radii = draw(st.sampled_from(["full", "dyadic"]) | st.lists(st.integers(1, max(cells)), min_size=1,
                                                                   max_size=3, unique=True).map(
            lambda rs: ",".join(map(str, rs))))
        given["radii"] = radii
        if ndim == 1:
            points = draw(st.lists(st.floats(lower[0], upper[0]), max_size=2))
            given["probe"] = ",".join(map(repr, points))
    return sub, given, (lower, upper, cells, grand), draw(st.booleans())


def _flag(key: str) -> str:
    return "--f" if key == "input" else "--" + key.replace("_", "-")


def _argv(sub: str, given: dict) -> list:
    """The argv of ``sub`` that sets each value of ``given`` by its flag."""
    return [sub, *(token for key, value in given.items() for token in (_flag(key), value))]


def _csv_input(given: dict, box: tuple, folder: Path) -> dict:
    """``given`` with its input spec sampled on the box, written to a grid CSV in ``folder``,
    and named by the file's path, whose grid's ends may differ from the box's by rounding."""
    lower, upper, cells, _ = box
    f = ga.build(ga.BoxDomain(lower, upper, cells), cli.make_sampler(given["input"], len(lower)))
    ga.write_grid_csv(f, folder / "f.csv")
    return {**given, "input": str(folder / "f.csv")}


@st.composite
def _one_bad_key_or_flag(draw):
    """A valid run with one key or flag corrupted: its argv before --out, the argv after it,
    and the key or flag that the error must name."""
    sub, given, (lower, upper, cells, grand), _ = draw(_valid_run())
    params = cli._PARAMS[sub]
    numbers = [key for key in params if cli._KINDS.get(key) in (int, float)]
    cases = [(key, bad) for key in numbers for bad in ("x", "nan", "1e999")]
    cases += [(key, "2.5") for key in numbers if cli._KINDS[key] is int]
    cases += [(key, "bogus") for key in params if isinstance(cli._KINDS.get(key), tuple)]
    cases += [(key, "x") for key in ("box", "cells", "radii", "probe") if key in params]
    # a value just past its rule
    cases += [(key, "1" if grand[key] else "0.99") for key in ("p", "q") if key in params]
    if "theta" in params and (grand["p"] or grand["q"]):
        cases.append(("theta", "0"))
    if sub == "grand":
        cases.append(("eps_count", "1"))
    elif sub == "amalgam":
        cases += [("window_side", "0"), ("window_stride", str(min(cells) + 1))]
    elif sub == "maximal":
        cases.append(("radii", f"1,{max(cells) + 1}"))
        if len(lower) == 1:
            cases.append(("probe", repr(upper[0] + 1.0)))
    # a malformed or non-positive sampler spec
    for key in ["input", *(k for k in params if cli._KINDS.get(k) == "sampler")]:
        ndim = len(lower)
        cases += [(key, "wat:1"), (key, "gaussian:" + ",".join(["1"] * (ndim + 2))),
                  (key, "gaussian:" + ",".join(["0"] * (ndim + 1))), (key, "bump:" + ",".join(["0"] * ndim + ["-1"]))]
        if key != "input":
            cases.append((key, "const:0"))
    others = {f for s in (*cli.SUBCOMMANDS, "run") for f in cli._flags(s)} - set(cli._flags(sub))
    argv_cases = ["unknown flag", "flag of another subcommand", "dropped value"]
    case = draw(st.sampled_from(cases + argv_cases))
    tail = []
    if case == "unknown flag":
        name, tail = "--bogus", ["--bogus", "1"]
    elif case == "flag of another subcommand":
        name = draw(st.sampled_from(sorted(others)))
        tail = [name, "1"]
    elif case == "dropped value":
        key = draw(st.sampled_from(sorted(given)))
        del given[key]
        name, tail = _flag(key), [_flag(key)]
    else:
        key, given[key] = case
        name = "input" if key == "input" else f"param.{key}"
    return _argv(sub, given), tail, name


@settings(max_examples=200, deadline=None, database=None)
@given(_one_bad_key_or_flag())
def test_one_bad_key_or_flag_is_named_and_makes_no_output(tmp_path_factory, case):
    head, tail, name = case
    out = tmp_path_factory.mktemp("run") / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*head, "--out", str(out), *tail])
    assert code == 2 and err.getvalue().startswith(f"config error: {name}:"), (head, tail, err.getvalue())
    assert not out.exists()


@settings(max_examples=400, deadline=None, database=None)
@given(_valid_run(), st.none() | st.integers(-300, 308))
def test_a_valid_run_exits_0_and_writes_only_finite_numbers(tmp_path_factory, run, power):
    """Every run the tables admit succeeds, from a sampler spec or a grid CSV, also with a
    constant input 10**power anywhere in float range, and no file it writes holds inf or NaN,
    and its input as sampled is not all zero unless its spec is a zero constant; or its norm
    is past float range, which is an error that names the input and writes nothing."""
    sub, given, box, csv = run
    if power is not None:
        given = {**given, "input": f"const:1e{power}"}
    name, _, args = given["input"].partition(":")
    zero_spec = name == "const" and float(args) == 0.0
    folder = tmp_path_factory.mktemp("run")
    if csv:
        given = _csv_input(given, box, folder)
    err = io.StringIO()
    loaded, load_input = [], cli._load_input  # the input of the run, as sampled or read
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(cli, "_load_input", lambda *args: loaded.append(load_input(*args)) or loaded[-1])
        code = cli.main([*_argv(sub, given), "--out", str(folder / "o")])
    if code == 2:
        assert err.getvalue().startswith("config error: input: the norm exceeds float range"), (sub, given)
        assert not (folder / "o").exists()
        return
    assert code == 0, (sub, given, err.getvalue())
    assert len(loaded) == 1 and (zero_spec or loaded[0].values.any()), (sub, given)
    for path in (folder / "o").iterdir():
        assert not re.search(r"\b(inf|nan|NaN|Infinity)\b", path.read_text()), (sub, given, path.name)


def _count_args(monkeypatch, name, pick=lambda args: None):
    """Wrap ``cli.<name>``; returns the log of ``pick(args)`` per call."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(pick(args))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_a_run_resolves_each_value_once(tmp_path, monkeypatch):
    """The box, each sampler spec and each number are resolved once per run, from argv or from
    a config file; ``run --config`` resolves the file's configuration once."""
    specs = {"input": "gaussian:0.5,0.2", "a": "bump:0.5,2", "b": "gaussian:0.5,1"}
    numbers = {"p": "3", "q": "2.5", "theta": "2", "window_side": "8", "window_stride": "4"}
    argv = ["amalgam", "--f", specs["input"], "--a", specs["a"], "--b", specs["b"],
            *(token for key, value in numbers.items() for token in ("--" + key.replace("_", "-"), value))]
    config = "".join(f"{k} = {v}\n" for k, v in
                     {"subcommand": "amalgam", "input": specs["input"], "output_dir": tmp_path / "c"}.items())
    config += "".join(f"param.{k} = {v}\n" for k, v in {**specs, **numbers}.items() if k != "input")
    (tmp_path / "run.cfg").write_text(config)
    for args in ([*argv, "--out", str(tmp_path / "a")], ["run", "--config", str(tmp_path / "run.cfg")]):
        with monkeypatch.context() as patch:
            samplers = _count_args(patch, "make_sampler", lambda a: a[0])
            boxes = _count_args(patch, "_domain_from")
            parsed = _count_args(patch, "_number", lambda a: a[1])
            resolved = _count_args(patch, "_resolve")
            assert cli.main(args) == 0
        assert sorted(samplers) == sorted(specs.values())
        assert len(boxes) == 1 and len(resolved) == 1
        assert sorted(parsed) == sorted(numbers)
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("a", "c")]
    assert outputs[0] == outputs[1]


def test_readme_examples_run(tmp_path):
    """Each `grandamalgam` command of the README runs, its config block parses, and its
    library sketch runs."""
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
    (sketch,) = [b for lang, b in blocks if lang == "python"]
    exec(compile(sketch, "README.md", "exec"), {})
