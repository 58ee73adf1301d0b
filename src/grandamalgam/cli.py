"""Command-line front end: validated run configurations and report emission.

Every run is described by a :class:`RunConfig` (subcommand, input function,
parameter map, output directory, seed), whether it was assembled from flags
or parsed from a line-oriented ``key = value`` config file.  Each parameter
is declared once, in one table: ``_PARAMS`` gives each subcommand's keys and
their default strings, ``_KINDS`` gives each key's kind (float, int, a tuple
of allowed words, or a sampler spec).  Everything else is derived from it:
the keys a config file accepts and the defaults it gets, the ``--flag`` for
each key (``eps_count`` becomes ``--eps-count``, unset flags fall through to
the same defaults), the conversion and word checks of validation, and the
grand stage defaults of ``amalgam``.  Validation happens before any
computation; outputs are CSV/JSON files written with fixed 17-significant-digit
formatting, so identical configurations produce byte-identical artifacts.
Exit codes: 0 success, 1 any FAIL verdict, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .amalgam import (
    AmalgamSpec,
    ClassicalSpace,
    GrandSpace,
    WindowSpec,
    _window_on,
    amalgam_norm,
    control_function,
    write_control_csv,
)
from .gridfn import BoxDomain, GridFunction, Weight, _SAMPLERS, build, read_grid_csv, weight_from
from .maximal import RadiusSet, _sample_profile, maximal_fast, write_maximal_csv
from .norms import EpsGrid, GrandParams, Variant, grand_norm, weighted_lp_norm, write_norm_csv
from .reporting import write_check_csv, write_check_json, write_csv, write_json
from . import verify as verify_mod

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "emit_config",
    "run",
    "main",
]

# The parameter table, part one.  Per subcommand: every accepted ``param.``
# key and its default string.
_PARAMS = {
    "norm": {"p": "2", "w": "const:1", "box": "0,1", "cells": "64"},
    "grand": {
        "p": "2",
        "theta": "1",
        "variant": "over_p",
        "a": "const:1",
        "eps_mode": "geometric",
        "eps_count": "33",
        "eps_min": "",
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
    "eps_min": float,
    "eps_count": int,
    "window_side": int,
    "window_stride": int,
    "variant": ("over_p", "full"),
    "eps_mode": ("geometric", "linear"),
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
        try:
            top["seed"] = int(top["seed"])
        except ValueError:
            raise ConfigError(f"seed: expected an integer, got {top['seed']!r}") from None
    # Top-level keys left out take RunConfig's defaults, as unset flags do.
    config = RunConfig(parameters=params, **top)
    return validate_config(config)


def emit_config(config: RunConfig) -> str:
    lines = [f"{key} = {getattr(config, key)}" for key in _TOP_KEYS]
    lines += [f"param.{key} = {config.parameters[key]}" for key in sorted(config.parameters)]
    return "\n".join(lines) + "\n"


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


def _parse_floats(text: str, label: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{label}: expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{label}: expected finite numbers, got {text!r}")
    return vals


def _probe_points(params: dict, domain: BoxDomain, what: str) -> list[float]:
    """The probe points, each checked against the 1-D ``domain``, a ``what``."""
    if domain.ndim != 1:
        raise ConfigError(f"param.probe: probe points need a 1-D {what}")
    points = _parse_floats(params["probe"], "param.probe")
    (lo,), (up,) = domain.lower, domain.upper
    for x in points:
        if not lo <= x <= up:
            raise ConfigError(f"param.probe: point {x} outside the {what} [{lo}, {up}]")
    return points


def _explicit_radii(params: dict) -> RadiusSet | None:
    """The comma list of ``param.radii`` as a radius set; None for 'full' or 'dyadic'."""
    if params["radii"] in ("full", "dyadic"):
        return None
    try:
        radii = tuple(int(tok) for tok in params["radii"].split(","))
    except ValueError:
        raise ConfigError("param.radii: 'full', 'dyadic', or positive integers") from None
    try:
        return RadiusSet(radii, params["include_center"] == "true")
    except ValueError as exc:  # a radius below one cell, or a repeated one
        raise ConfigError(f"param.radii: {exc}") from None


def _radius_set(params: dict, domain: BoxDomain) -> RadiusSet:
    """``param.radii`` on ``domain``, whose extent bounds explicit radii."""
    rs = _explicit_radii(params)
    if rs is None:
        named = RadiusSet.full if params["radii"] == "full" else RadiusSet.dyadic
        return named(domain, params["include_center"] == "true")
    try:
        rs.validate_for(domain)
    except ValueError as exc:
        raise ConfigError(f"param.radii: {exc}") from None
    return rs


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


def validate_config(config: RunConfig) -> RunConfig:
    """Fill defaults and check every invariant before any computation."""
    sub = config.subcommand
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: expected one of {', '.join(SUBCOMMANDS)}, got {sub!r}")
    for key in config.parameters:
        if key not in _PARAMS[sub]:
            raise ConfigError(f"param.{key}: unknown key for subcommand {sub}")
    params = {**_PARAMS[sub], **config.parameters}
    config = replace(config, parameters=params)

    box = None  # a CSV's grid is known on load; the checks on the grid run there
    if sub != "verify":
        if not config.input:
            raise ConfigError("input: required (a built-in sampler spec or a grid CSV path)")
        box = _domain_from(params)
        if not _is_csv(config.input):
            make_sampler(config.input, box.ndim)
        elif not Path(config.input).exists():
            raise ConfigError(f"input: file not found: {config.input}")
        else:
            box = None

    for key, kind in _KINDS.items():
        if key not in params or kind == "sampler":
            continue
        if isinstance(kind, tuple):
            if params[key] not in kind:
                words = " or ".join(repr(word) for word in kind)
                raise ConfigError(f"param.{key}: expected {words}")
        elif params[key] != "":
            _number(params, key)

    def above(key: str, bound: float) -> float:
        v = _number(params, key)
        if not v > bound:
            raise ConfigError(f"param.{key}: invariant {key} > {bound} violated by {v}")
        return v

    def grand_exponent(key: str) -> float:
        v = above(key, 1.0)
        if v - (v - 1.0) != 1.0:  # as GrandParams: the grid's last eps, p - 1, must be exact
            raise ConfigError(f"param.{key}: {v} - 1 is not exact in float64; need at most 2**53")
        return v

    def classical_exponent(key: str) -> None:
        if above(key, 0.0) < 1.0:
            raise ConfigError(f"param.{key}: invariant {key} >= 1 violated")

    if sub == "norm":
        classical_exponent("p")
    elif sub == "grand":
        top = grand_exponent("p") - 1.0
        above("theta", 0.0)
        if _number(params, "eps_count") < 2:
            raise ConfigError("param.eps_count: need at least 2")
        eps_min = _number(params, "eps_min") if params["eps_min"] else None
        if eps_min is not None and not 0.0 < eps_min < top:
            raise ConfigError(f"param.eps_min: need 0 < eps_min < p - 1 = {top}, got {eps_min}")
    elif sub == "amalgam":
        for key, stage in (("p", "local"), ("q", "global")):
            if params[stage] == "grand":
                grand_exponent(key)
            else:
                classical_exponent(key)
        above("theta", 0.0)
        if _number(params, "window_side") < 1 or _number(params, "window_stride") < 1:
            raise ConfigError("param.window_side/window_stride: need at least one cell")
    elif sub == "maximal":
        _explicit_radii(params)
    elif sub == "verify":
        if config.seed < 0:
            raise ConfigError(f"seed: expected a non-negative integer, got {config.seed}")
        if _parse_cells(params, 1)[0] < 16:
            raise ConfigError("param.cells: verify needs at least 16 cells")
        if params["checks"] != "all":
            unknown = [
                n.strip()
                for n in params["checks"].split(",")
                if n.strip() not in verify_mod.CHECK_NAMES
            ]
            if unknown:
                raise ConfigError(f"param.checks: unknown check(s) {', '.join(unknown)}")
    if box is not None:
        _on_grid(params, box, "box")
    return config


def _on_grid(params: dict, domain: BoxDomain, what: str) -> dict:
    """The values of ``params`` that depend on the grid, checked against ``domain``, a
    ``what``: the weight specs as samplers, the window, the radius set and the probe
    points, by key ("radii" and "probe" for the last two).  Errors name their key."""
    out = {
        key: make_sampler(params[key], domain.ndim, f"param.{key}")
        for key, kind in _KINDS.items()
        if kind == "sampler" and key in params
    }
    if "window_side" in params:
        out["window"] = _window(params, domain)
    if "radii" in params:
        out["radii"] = _radius_set(params, domain)
        if params["probe"]:
            out["probe"] = _probe_points(params, domain, what)
    return out


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


def _load_input(config: RunConfig) -> GridFunction:
    """The input as a grid function; a sampled one that is zero at every cell center,
    which no grid could tell from the zero function, is an error unless it is constant."""
    if _is_csv(config.input):
        return read_grid_csv(config.input)
    domain = _domain_from(config.parameters)
    f = build(domain, make_sampler(config.input, domain.ndim))
    if not f.values.any() and config.input.partition(":")[0] != "const":
        raise ConfigError(f"input: {config.input} is zero at every cell center of the box")
    return f


def _domain_from(params: dict) -> BoxDomain:
    vals = _parse_floats(params["box"], "param.box")
    if len(vals) not in (2, 4):
        raise ConfigError("param.box: expected 'lo,up' or 'lo0,up0,lo1,up1'")
    cells = _parse_cells(params, len(vals) // 2)
    try:
        return BoxDomain(vals[0::2], vals[1::2], cells)
    except ValueError as exc:  # lower >= upper on an axis
        raise ConfigError(f"param.box: {exc}") from None


def _window(params: dict, domain: BoxDomain) -> WindowSpec:
    window = WindowSpec(_number(params, "window_side"), _number(params, "window_stride"))
    try:
        return _window_on(domain, window)
    except ValueError as exc:  # a stride longer than the box
        raise ConfigError(f"param.window_stride: {exc}") from None


# ----------------------------------------------------------------------------
# Subcommand execution
# ----------------------------------------------------------------------------


def _run_norm(params: dict, f: GridFunction, grid: dict, outdir: Path) -> int:
    p = _number(params, "p")
    value = weighted_lp_norm(f, p, grid["w"])
    write_json(outdir / "norm_summary.json", {"value": value, "p": p})
    return 0


def _grand_params_from(params: dict, grandizer: Weight) -> GrandParams:
    p = _number(params, "p")
    grid_factory = EpsGrid.geometric if params["eps_mode"] == "geometric" else EpsGrid.linear
    min_eps = _number(params, "eps_min") if params.get("eps_min") else None
    grid = grid_factory(p, count=_number(params, "eps_count"), min_eps=min_eps)
    return GrandParams(
        p=p,
        grandizer=grandizer,
        theta=_number(params, "theta"),
        variant=Variant.EXPONENT_OVER_P if params["variant"] == "over_p" else Variant.EXPONENT_FULL,
        eps_grid=grid,
    )


def _run_grand(params: dict, f: GridFunction, grid: dict, outdir: Path) -> int:
    report = grand_norm(f, _grand_params_from(params, grid["a"]))
    write_norm_csv(report, outdir / "grand_curve.csv")
    write_json(outdir / "grand_summary.json", report.summary())
    return 0


def _run_amalgam(params: dict, f: GridFunction, grid: dict, outdir: Path) -> int:
    def space(kind: str, exponent_key: str, weight_key: str):
        if kind == "grand":
            # The epsilon grid and the variant are grand's defaults.
            gp = {**_PARAMS["grand"], **params, "p": params[exponent_key]}
            return GrandSpace(_grand_params_from(gp, grid[weight_key]))
        return ClassicalSpace(_number(params, exponent_key), grid[weight_key])

    spec = AmalgamSpec(
        local_space=space(params["local"], "p", "a"),
        global_space=space(params["global"], "q", "b"),
        window=grid["window"],
    )
    cf = control_function(f, spec.local_space, spec.window)
    write_control_csv(cf, outdir / "control.csv")
    report = amalgam_norm(f, spec, control=cf)
    write_norm_csv(report, outdir / "outer_curve.csv")
    summary = report.summary()
    # The outer report's own p is the global exponent q; p is the local exponent.
    summary.update({"local": params["local"], "global": params["global"],
                    "p": _number(params, "p"), "q": _number(params, "q")})
    write_json(outdir / "amalgam_summary.json", summary)
    return 0


def _run_maximal(params: dict, f: GridFunction, grid: dict, outdir: Path) -> int:
    rs = grid["radii"]
    result = maximal_fast(f, rs)
    write_maximal_csv(result, outdir / "maximal.csv")
    summary = {
        "radii": params["radii"],
        "include_center": rs.include_center,
        "max_value": float(np.max(result.mf.values)),
    }
    if params["probe"]:
        probes = _sample_profile(result, grid["probe"])
        write_csv(outdir / "probes.csv", ["x", "mf"], probes)
        summary["probes"] = [{"x": x, "mf": v} for x, v in probes]
    write_json(outdir / "maximal_summary.json", summary)
    return 0


def _run_verify(config: RunConfig, outdir: Path) -> int:
    params = config.parameters
    wanted = params["checks"]
    names = None if wanted == "all" else [n.strip() for n in wanted.split(",")]
    cells = _parse_cells(params, 1)[0]
    results = verify_mod.run_all_checks(seed=config.seed, cells=cells, names=names)
    failed = False
    summary_rows = []
    for result in results:
        write_check_json(result, outdir / f"{result.name}.json")
        write_check_csv(result, outdir / f"{result.name}.csv")
        if result.name == "maximal_unbounded":
            rows = [(row["T"], row["log_T"], row["norm"]) for row in result.details]
            write_csv(outdir / "growth_curve.csv", ["T", "log_T", "norm"], rows)
        summary_rows.append(
            {
                "name": result.name,
                "verdict": result.verdict.value,
                "estimated_constant": result.estimated_constant,
            }
        )
        failed = failed or result.failed
    write_json(
        outdir / "summary.json",
        {"seed": config.seed, "cells": cells, "checks": summary_rows},
    )
    return 1 if failed else 0


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    config = validate_config(config)
    outdir = Path(config.output_dir)
    if config.subcommand == "verify":
        outdir.mkdir(parents=True, exist_ok=True)
        return _run_verify(config, outdir)
    # Everything that can fail on the input's grid fails before the output directory is made.
    f = _load_input(config)
    grid = _on_grid(config.parameters, f.domain, "grid")
    for key in [k for k in grid if _KINDS.get(k) == "sampler"]:
        try:
            grid[key] = weight_from(f.domain, grid[key])
        except ValueError as exc:  # a value that is not positive, found only when sampled
            raise ConfigError(f"param.{key}: {exc}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {"norm": _run_norm, "grand": _run_grand, "amalgam": _run_amalgam, "maximal": _run_maximal}
    return runner[config.subcommand](config.parameters, f, grid, outdir)


# ----------------------------------------------------------------------------
# argparse front end
# ----------------------------------------------------------------------------


# Help of each subcommand, and of the flags whose name and default do not say enough.
_HELP = {
    "norm": "weighted L^p norm",
    "grand": "grand norm with the epsilon-sup curve",
    "amalgam": "two-stage amalgam norm",
    "maximal": "centered Hardy-Littlewood maximal function",
    "verify": "run proposition checks",
    "box": "lo,up (1-D) or lo0,up0,lo1,up1 (2-D)",
    "cells": "cells per axis",
    "a": "grandizer sampler",
    "radii": "'full', 'dyadic', or a comma list of cells",
    "probe": "comma list of probe points",
}

# Keys set by their own flags: --no-center, and verify's --all/--check.
_SPECIAL_KEYS = ("include_center", "checks")


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per row of the table, one ``--flag`` per key."""
    ap = argparse.ArgumentParser(
        prog="grandamalgam",
        description="Grand Wiener amalgam norms, maximal operators, and proposition checks",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name, defaults in _PARAMS.items():
        sp = parsers[name] = sub.add_parser(name, help=_HELP[name])
        if name != "verify":
            sp.add_argument("--f", required=True, help="sampler spec (e.g. const:1) or grid CSV path")
        for key, default in defaults.items():
            if key in _SPECIAL_KEYS:
                continue
            kind = _KINDS.get(key)
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=None,
                choices=kind if isinstance(kind, tuple) else None,
                help=f"{_HELP.get(key, '')} (default {default!r})".lstrip(),
            )
        sp.add_argument("--out", default=RunConfig.output_dir, help="output directory")
        sp.add_argument("--seed", type=int, default=RunConfig.seed)
    parsers["maximal"].add_argument(
        "--no-center", action="store_true", help="drop the radius-0 term |f(x)|"
    )
    parsers["verify"].add_argument("--all", action="store_true")
    parsers["verify"].add_argument(
        "--check", action="append", default=[], help="check name (repeatable)"
    )

    sp = sub.add_parser("run", help="execute a config file")
    sp.add_argument("--config", required=True, help="path to a key = value config file")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    if sub == "run":
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return parse_config(path.read_text())
    given = vars(args)
    # Flags left unset are absent here, so validation fills the table's defaults.
    params = {key: given[key] for key in _PARAMS[sub] if given.get(key) is not None}
    if sub == "maximal" and args.no_center:
        params["include_center"] = "false"
    if sub == "verify" and args.check and not args.all:
        params["checks"] = ",".join(args.check)
    return RunConfig(sub, given.get("f", ""), params, output_dir=args.out, seed=args.seed)


_COORD_FLAGS = ("--box", "--probe")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Let coordinate flags take values like '-8,8' without argparse tripping."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _COORD_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_negative_values(list(argv)))
    try:
        config = _config_from_args(args)
        return run(config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
