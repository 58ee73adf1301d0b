"""Command-line front end: run configurations, resolved once, and report emission.

A run is a :class:`RunConfig`, from argv or a ``key = value`` config file.
``_PARAMS`` declares each subcommand's keys and defaults, ``_KINDS`` each key's
kind (float, int, allowed words, or a sampler spec).  The config-file keys, the
``--flag`` of each key (``eps_count`` is ``--eps-count``) and the help all come
from them.

One pass, :func:`_resolve`, turns each parameter into its value once: numbers by
``_KINDS``, the box, each sampler spec, the window, the radius set and the probe
points.  Each rule on a value alone has one owner in the library, whose
``ValueError`` becomes a configuration error that names the key, and it is checked
before any grid exists.  The values that need the input's grid (the weights, the
window's stride, the radii and the probes) are checked on the box of a sampler input
before it is sampled, and on the grid of a CSV input when it is read.  So a bad flag or
value is reported by its name before any computation.  Outputs carry 17 significant
digits, so identical configurations give identical files.
Exit codes: 0 success, 1 any FAIL verdict, 2 configuration error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .amalgam import (
    AmalgamSpec,
    WindowSpec,
    _window_on,
    amalgam_norm,
    control_function,
    write_control_csv,
)
from .gridfn import BoxDomain, GridFunction, _SAMPLERS, build, read_grid_csv, weight_from
from .maximal import RadiusSet, _sample_profile, maximal_fast, write_maximal_csv
from .norms import (
    DEFAULT_EPS_COUNT,
    ClassicalSpace,
    GrandParams,
    Variant,
    _check_theta,
    _eps_grid,
    _grand_exponent,
    grand_norm,
    weighted_lp_norm,
    write_norm_csv,
)
from .reporting import write_check_csv, write_check_json, write_csv, write_json
from . import verify as verify_mod

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

# The parameter table, part one.  Per subcommand: every accepted ``param.``
# key and its default string; a key whose default is empty may be left empty.
_PARAMS = {
    "norm": {"p": "2", "w": "const:1", "box": "0,1", "cells": "64"},
    "grand": {
        "p": "2",
        "theta": "1",
        "variant": "over_p",
        "a": "const:1",
        "eps_count": str(DEFAULT_EPS_COUNT),
        "box": "0,1",
        "cells": "64",
    },
    "amalgam": {
        "p": "2",
        "q": "2",
        "theta": "1",
        "a": "const:1",
        "b": "const:1",
        "local": "grand",
        "global": "grand",
        "window_side": "4",
        "window_stride": "4",
        "box": "0,1",
        "cells": "64",
    },
    "maximal": {
        "radii": "full",
        "probe": "",
        "include_center": "true",
        "box": "-8,8",
        "cells": "1024",
    },
    "verify": {"checks": "all", "cells": "256"},
}

# Part two.  Per key: float, int, the tuple of allowed words, or "sampler".
# Keys not listed (box, cells, radii, probe, checks) are parsed where they
# are used.  Numbers come first, so they are checked first.
_KINDS = {
    "p": float,
    "q": float,
    "theta": float,
    "eps_count": int,
    "window_side": int,
    "window_stride": int,
    "variant": ("over_p", "full"),
    "local": ("classical", "grand"),
    "global": ("classical", "grand"),
    "include_center": ("true", "false"),
    "w": "sampler",
    "a": "sampler",
    "b": "sampler",
}

SUBCOMMANDS = tuple(_PARAMS)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key or line."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input: str = ""
    parameters: dict = field(default_factory=dict)
    # The defaults of config files and of --out/--seed alike; only verify reads the seed.
    output_dir: str = "out"
    seed: int = 7


# ----------------------------------------------------------------------------
# Config file format:  key = value, one per line, '#' comments;
# computation parameters under 'param.<name>'.
# ----------------------------------------------------------------------------

_TOP_KEYS = ("subcommand", "input", "output_dir", "seed")


def parse_config(text: str) -> RunConfig:
    """The configuration of a config file's ``text``, checked by :func:`validate_config`."""
    return validate_config(_read_config(text))


def _read_config(text: str) -> RunConfig:
    """The configuration that ``text`` states, with no value checked but the seed."""
    top: dict[str, str] = {}
    params: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("param."):
            name = key[len("param.") :]
            if name in params:
                raise ConfigError(f"line {lineno}: duplicate key param.{name}")
            params[name] = value
        elif key in _TOP_KEYS:
            if key in top:
                raise ConfigError(f"line {lineno}: duplicate key {key}")
            top[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if "subcommand" not in top:
        raise ConfigError("missing required keys: subcommand")
    if "seed" in top:
        top["seed"] = _seed(top["seed"])
    return RunConfig(parameters=params, **top)


def _seed(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"seed: expected an integer, got {text!r}") from None


def _number(params: dict, key: str):
    """The numeric parameter ``key`` as its kind; a malformed value names the key."""
    kind = _KINDS[key]
    try:
        value = kind(params[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"param.{key}: expected {noun}, got {params[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"param.{key}: expected a finite number, got {params[key]!r}")
    return value


def _made(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ``ValueError`` is a configuration error of
    ``param.<key>``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"param.{key}: {exc}") from None


def _parse_floats(text: str, label: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{label}: expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{label}: expected finite numbers, got {text!r}")
    return vals


def _parse_cells(params: dict, ndim: int) -> tuple[int, ...]:
    vals = params["cells"].split(",")
    try:
        cells = tuple(int(v) for v in vals)
    except ValueError:
        raise ConfigError(f"param.cells: expected integers, got {params['cells']!r}")
    if len(cells) == 1:
        cells = cells * ndim
    if len(cells) != ndim:
        raise ConfigError("param.cells: one count, or one per axis")
    if any(c < 2 for c in cells):
        raise ConfigError("param.cells: need at least 2 cells per axis")
    return cells


def _domain_from(params: dict) -> BoxDomain:
    vals = _parse_floats(params["box"], "param.box")
    if len(vals) not in (2, 4):
        raise ConfigError("param.box: expected 'lo,up' or 'lo0,up0,lo1,up1'")
    return _made("box", BoxDomain, vals[0::2], vals[1::2], _parse_cells(params, len(vals) // 2))


def validate_config(config: RunConfig) -> RunConfig:
    """``config`` with its defaults filled in, once :func:`_resolve` has checked its values;
    for a CSV input, those that need its grid are checked when :func:`run` reads it."""
    return _resolve(config)[0]


def _resolve(config: RunConfig) -> tuple[RunConfig, dict]:
    """``config`` with its defaults filled in, and the value of each of its parameters,
    each resolved once and checked by the owner of its rule.  A sampler input's
    values on its box are there too; a CSV input's come when it is read (:func:`_load_input`)."""
    sub = config.subcommand
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: expected one of {', '.join(SUBCOMMANDS)}, got {sub!r}")
    for key in config.parameters:
        if key not in _PARAMS[sub]:
            raise ConfigError(f"param.{key}: unknown key for subcommand {sub}")
    params = {**_PARAMS[sub], **config.parameters}
    config = replace(config, parameters=params)

    values = {}
    if sub != "verify":
        if not config.input:
            raise ConfigError("input: required (a built-in sampler spec or a grid CSV path)")
        values["box"] = _domain_from(params)
        if not _is_csv(config.input):
            values["input"] = make_sampler(config.input, values["box"].ndim)
        elif not Path(config.input).exists():
            raise ConfigError(f"input: file not found: {config.input}")

    for key, kind in _KINDS.items():
        if key not in params or kind == "sampler":
            continue
        if isinstance(kind, tuple):
            if params[key] not in kind:
                words = " or ".join(repr(word) for word in kind)
                raise ConfigError(f"param.{key}: expected {words}")
        elif params[key] or _PARAMS[sub][key]:
            values[key] = _number(params, key)

    # each stage's exponent by its kind, and theta once a stage is grand
    kinds = {"norm": ["classical"], "grand": ["grand"],
             "amalgam": [params.get("local"), params.get("global")]}.get(sub, [])
    for key, kind in zip(("p", "q"), kinds):
        _made(key, ClassicalSpace if kind == "classical" else _grand_exponent, values[key])
    if "grand" in kinds:
        _made("theta", _check_theta, values["theta"])
    if sub == "grand":
        _made("eps_count", _eps_grid, values["p"], values["eps_count"])
    elif sub == "amalgam":  # a tiling window first, so that a bad side is told from a bad stride
        window = _made("window_side", WindowSpec, values["window_side"], values["window_side"])
        values["window"] = _made("window_stride", replace, window, stride_cells=values["window_stride"])
    elif sub == "maximal":
        if params["radii"] not in ("full", "dyadic"):
            try:
                radii = tuple(int(tok) for tok in params["radii"].split(","))
            except ValueError:
                raise ConfigError("param.radii: 'full', 'dyadic', or positive integers") from None
            values["radii"] = _made("radii", RadiusSet, radii, params["include_center"] == "true")
        if params["probe"]:
            values["probe"] = _parse_floats(params["probe"], "param.probe")
    elif sub == "verify":
        if config.seed < 0:
            raise ConfigError(f"seed: expected a non-negative integer, got {config.seed}")
        values["cells"] = _parse_cells(params, 1)[0]
        if values["cells"] < 16:
            raise ConfigError("param.cells: verify needs at least 16 cells")
        names = None if params["checks"] == "all" else [n.strip() for n in params["checks"].split(",")]
        values["checks"] = _made("checks", verify_mod._checks_named, names)

    if "input" in values:  # a sampler input, whose grid is the box
        values.update(_on_grid(config, values, values["box"], "box"))
    return config, values


def _on_grid(config: RunConfig, values: dict, domain: BoxDomain, what: str) -> dict:
    """The values of ``config`` that need the grid, on ``domain``, a ``what``: each weight
    spec's weight by its key, the stages on them ("space", or amalgam's "spec" with its
    window), and maximal's named radius set ("radii"); an explicit one and the probe points
    are checked against ``domain``."""
    sub, params = config.subcommand, config.parameters
    out = {
        key: _made(key, weight_from, domain, make_sampler(params[key], domain.ndim, f"param.{key}"))
        for key, kind in _KINDS.items()
        if kind == "sampler" and key in params
    }
    if sub == "norm":
        out["space"] = _stage("classical", "p", values, out["w"])
    elif sub == "grand":
        out["space"] = GrandParams(values["p"], out["a"], values["theta"], Variant(params["variant"]),
                                   values["eps_count"])
    elif sub == "amalgam":
        out["spec"] = AmalgamSpec(
            local_space=_stage(params["local"], "p", values, out["a"]),
            global_space=_stage(params["global"], "q", values, out["b"]),
            window=_made("window_stride", _window_on, domain, values["window"]),
        )
    elif sub == "maximal":
        if "radii" in values:
            _made("radii", values["radii"].validate_for, domain)
        else:
            named = RadiusSet.full if params["radii"] == "full" else RadiusSet.dyadic
            out["radii"] = named(domain, params["include_center"] == "true")
        if "probe" in values:
            _check_probes(values["probe"], domain, what)
    return out


def _stage(kind: str, key: str, values: dict, weight) -> ClassicalSpace | GrandParams:
    """The ``kind`` stage of exponent ``key`` on ``weight``; a grand one has the library's
    default epsilon grid and variant."""
    if kind == "classical":
        return ClassicalSpace(values[key], weight)
    return GrandParams(values[key], weight, values["theta"])


def _check_probes(points: list[float], domain: BoxDomain, what: str) -> None:
    """Each probe point checked against the 1-D ``domain``, a ``what``."""
    if domain.ndim != 1:
        raise ConfigError(f"param.probe: probe points need a 1-D {what}")
    for x in points:
        if not domain.contains(x):
            raise ConfigError(f"param.probe: point {x} outside the {what} [{domain.lower[0]}, {domain.upper[0]}]")


# ----------------------------------------------------------------------------
# Built-in samplers, addressable by name so runs are reproducible from config
# ----------------------------------------------------------------------------


def make_sampler(spec: str, ndim: int, key: str = "input"):
    """``spec`` ('name:x,y,...') as a sampler on an ``ndim``-D box; errors name ``key``."""
    name, _, text = spec.partition(":")
    if name not in _SAMPLERS:
        raise ConfigError(f"{key}: unknown sampler {name!r}; expected one of {', '.join(_SAMPLERS)}")
    factory, count, what, split = _SAMPLERS[name]
    args = _parse_floats(text, f"{key}: {name}")
    if len(args) != count(ndim):
        raise ConfigError(f"{key}: {name}: expected {what}, got {len(args)} number(s) on a {ndim}-D box")
    try:
        return factory(*split(args, ndim))
    except ValueError as exc:
        raise ConfigError(f"{key}: {name}: {exc}") from None


def _is_csv(text: str) -> bool:
    return Path(text).suffix == ".csv"


def _load_input(config: RunConfig, values: dict) -> GridFunction:
    """The input as a grid function; a CSV input's values on its grid go into ``values``.
    A sampled input that is zero at every cell center, which no grid could tell from the
    zero function, is an error unless it is constant."""
    if _is_csv(config.input):
        f = read_grid_csv(config.input)
        values.update(_on_grid(config, values, f.domain, "grid"))
        return f
    f = build(values["box"], values["input"])
    if not f.values.any() and config.input.partition(":")[0] != "const":
        raise ConfigError(f"input: {config.input} is zero at every cell center of the box")
    return f


# ----------------------------------------------------------------------------
# Subcommand execution
# ----------------------------------------------------------------------------


# A runner computes everything its subcommand reports and returns its exit code and its
# files: each file's name and the writer that takes the file's path.


def _run_norm(params: dict, values: dict, f: GridFunction):
    space = values["space"]
    value = weighted_lp_norm(f, space.p, space.weight)
    return 0, {"norm_summary.json": lambda path: write_json(path, {"value": value, "p": space.p})}


def _run_grand(params: dict, values: dict, f: GridFunction):
    report = grand_norm(f, values["space"])
    return 0, {
        "grand_curve.csv": lambda path: write_norm_csv(report, path),
        "grand_summary.json": lambda path: write_json(path, report.summary()),
    }


def _run_amalgam(params: dict, values: dict, f: GridFunction):
    spec = values["spec"]
    cf = control_function(f, spec.local_space, spec.window)
    report = amalgam_norm(f, spec, control=cf)
    summary = report.summary()
    # The outer report's own p is the global exponent q; p is the local exponent.
    local = spec.local_space
    grand = isinstance(local, GrandParams)
    summary.update({"local": params["local"], "global": params["global"],
                    "p": local.p, "q": spec.global_space.p,
                    "local_theta": local.theta if grand else None,
                    "local_variant": local.variant.value if grand else "classical"})
    return 0, {
        "control.csv": lambda path: write_control_csv(cf, path),
        "outer_curve.csv": lambda path: write_norm_csv(report, path),
        "amalgam_summary.json": lambda path: write_json(path, summary),
    }


def _run_maximal(params: dict, values: dict, f: GridFunction):
    rs = values["radii"]
    result = maximal_fast(f, rs)
    summary = {
        "radii": params["radii"],
        "include_center": rs.include_center,
        "max_value": float(np.max(result.mf.values)),
    }
    files = {"maximal.csv": lambda path: write_maximal_csv(result, path)}
    if "probe" in values:
        probes = _sample_profile(result, values["probe"])
        files["probes.csv"] = lambda path: write_csv(path, ["x", "mf"], probes)
        summary["probes"] = [{"x": x, "mf": v} for x, v in probes]
    files["maximal_summary.json"] = lambda path: write_json(path, summary)
    return 0, files


def _run_verify(config: RunConfig, values: dict):
    cells = values["cells"]
    results = verify_mod.run_all_checks(seed=config.seed, cells=cells, names=values["checks"])
    files = {}
    for result in results:
        files[f"{result.name}.json"] = lambda path, r=result: write_check_json(r, path)
        files[f"{result.name}.csv"] = lambda path, r=result: write_check_csv(r, path)
        if result.name == "maximal_unbounded":
            rows = [(row["T"], row["log_T"], row["norm"]) for row in result.details]
            files["growth_curve.csv"] = lambda path: write_csv(path, ["T", "log_T", "norm"], rows)
    checks = [{"name": r.name, "verdict": r.verdict.value, "estimated_constant": r.estimated_constant}
              for r in results]
    files["summary.json"] = lambda path: write_json(path, {"seed": config.seed, "cells": cells, "checks": checks})
    return (1 if any(r.failed for r in results) else 0), files


def run(config: RunConfig) -> int:
    """Execute ``config``; returns the process exit code.  Its values are resolved once
    (:func:`_resolve`), and everything is computed before the output directory is made,
    so a run that fails makes none."""
    config, values = _resolve(config)
    if config.subcommand == "verify":
        code, files = _run_verify(config, values)
    else:
        # Everything that can fail on the input's grid fails before the run computes.
        f = _load_input(config, values)
        runner = {"norm": _run_norm, "grand": _run_grand, "amalgam": _run_amalgam, "maximal": _run_maximal}
        try:
            code, files = runner[config.subcommand](config.parameters, values, f)
        except ValueError as exc:  # what is left to fail is the input itself: a norm past float range
            raise ConfigError(f"input: {exc}") from None
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(outdir / name)
    return code


# ----------------------------------------------------------------------------
# argv front end
# ----------------------------------------------------------------------------


# Help of each subcommand, and of the names that a flag and default do not explain.
_HELP = {
    "norm": "weighted L^p norm",
    "grand": "grand norm with the epsilon-sup curve",
    "amalgam": "two-stage amalgam norm",
    "maximal": "centered Hardy-Littlewood maximal function",
    "verify": "run proposition checks",
    "run": "execute a config file",
    "box": "lo,up (1-D) or lo0,up0,lo1,up1 (2-D)",
    "cells": "cells per axis",
    "a": "grandizer sampler",
    "radii": "'full', 'dyadic', or a comma list of cells",
    "probe": "comma list of probe points",
    "input": "sampler spec or grid CSV path (required)",
    "check": "check name (repeatable)",
    "config": "key = value config file (required)",
}


def _flags(sub: str) -> dict:
    """Each --flag of ``sub`` and the name it sets; 'name=value' for a flag that takes none."""
    if sub == "run":
        return {"--config": "config"}
    lead = {"--all": "checks=all", "--check": "check"} if sub == "verify" else {"--f": "input"}
    table = {"--" + key.replace("_", "-"): key for key in _PARAMS[sub]}
    if sub == "maximal":
        table["--no-center"] = "include_center=false"
    return {**lead, **table, "--out": "output_dir", "--seed": "seed"}


def _help(sub: str) -> str:
    """Help of ``sub`` from the parameter table; for "", the list of subcommands."""
    rows = {name: _HELP[name] for name in (*SUBCOMMANDS, "run")}
    if sub:
        defaults = {**_PARAMS.get(sub, {}), "output_dir": RunConfig.output_dir, "seed": RunConfig.seed}
        rows = {}
        for flag, name in _flags(sub).items():
            kind = _KINDS.get(name)
            notes = [_HELP.get(name), isinstance(kind, tuple) and "one of " + ", ".join(kind),
                     name in defaults and f"default {defaults[name]!r}"]
            rows[flag] = "; ".join(filter(None, notes)) or "sets " + name
    width = max(map(len, rows)) + 2
    head = [f"usage: grandamalgam {sub or '<subcommand>'} [--flag value ...]",
            _HELP.get(sub, "subcommands") + ":"]
    return "\n".join(head + [f"  {key:<{width}}{text}" for key, text in rows.items()])


def _config_from_argv(argv: list) -> RunConfig | None:
    """The configuration ``argv`` gives, or None once -h/--help is answered.  A flag's value is
    the next token, even ``-8,8``; a repeated flag keeps its last, but --check collects."""
    subs, sub = (*SUBCOMMANDS, "run"), argv[0] if argv else ""
    if "-h" in argv or "--help" in argv:
        print(_help(sub if sub in subs else ""))
        return None
    if sub not in subs:
        raise ConfigError(f"subcommand: expected one of {', '.join(subs)}, got {sub!r}")
    flags, given = _flags(sub), {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        name, switch, fixed = flags.get(flag, "").partition("=")
        if not name:
            raise ConfigError(f"{flag}: unknown flag for subcommand {sub}" if token.startswith("-")
                              else f"subcommand: unexpected argument {token!r}")
        if switch and eq:
            raise ConfigError(f"{flag}: takes no value")
        value = fixed if switch else value if eq else next(tokens, None)
        if value is None:
            raise ConfigError(f"{flag}: expected a value")
        given[name] = [*given.get(name, ()), value] if name == "check" else value
    if sub == "run":
        path = given.get("config", "")
        if not Path(path).is_file():
            raise ConfigError(f"--config: expected a config file, got {path!r}")
        return _read_config(Path(path).read_text())
    checks = given.pop("check", None)
    if checks and given.get("checks") != "all":
        given["checks"] = ",".join(checks)
    top = {key: given.pop(key) for key in _TOP_KEYS if key in given}
    if "seed" in top:
        top["seed"] = _seed(top["seed"])
    return RunConfig(sub, parameters=given, **top)


def main(argv=None) -> int:
    try:
        config = _config_from_argv(sys.argv[1:] if argv is None else argv)
        return 0 if config is None else run(config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
