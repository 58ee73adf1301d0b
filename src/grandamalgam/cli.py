"""Command-line front end: validated run configurations and report emission.

Every run is described by a :class:`RunConfig` (subcommand, input function,
parameter map, output directory, seed), whether it was assembled from flags
or parsed from a line-oriented ``key = value`` config file.  Each parameter
is declared once, in one table: ``_PARAMS`` gives each subcommand's keys and
their default strings, ``_KINDS`` gives each key's kind (float, int, or a
tuple of allowed words).  Everything else is derived from it: the keys a
config file accepts and the defaults it gets, the ``--flag`` for each key
(``eps_count`` becomes ``--eps-count``, unset flags fall through to the same
defaults), the conversion and word checks of validation, and the grand
stage defaults of ``amalgam``.  Validation happens before any computation;
outputs are CSV/JSON files written with fixed 17-significant-digit
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
    amalgam_norm,
    control_function,
    write_control_csv,
)
from .gridfn import BoxDomain, GridFunction, build, read_grid_csv, weight_from
from .maximal import RadiusSet, _sample_profile, maximal_fast, maximal_naive, write_maximal_csv
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
        "impl": "fast",
        "box": "-8,8",
        "cells": "1024",
    },
    "verify": {"checks": "all", "cells": "256"},
}

# Part two.  Per key: float, int, or the tuple of allowed words.  Keys not
# listed (samplers, box, cells, radii, probe, checks) are parsed where they
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
    "impl": ("fast", "naive"),
    "include_center": ("true", "false"),
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


def _parse_floats(text: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"param.{key}: expected comma-separated numbers, got {text!r}")


def _probe_points(params: dict, lower, upper, what: str) -> list[float]:
    """The probe points, each checked against the 1-D ``what`` [lower, upper]."""
    if len(lower) != 1:
        raise ConfigError(f"param.probe: probe points need a 1-D {what}")
    points = _parse_floats(params["probe"], "probe")
    for x in points:
        if not lower[0] <= x <= upper[0]:
            raise ConfigError(f"param.probe: point {x} outside the {what} [{lower[0]}, {upper[0]}]")
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


def _parse_box(params: dict) -> tuple[tuple[float, ...], tuple[float, ...]]:
    vals = _parse_floats(params["box"], "box")
    if len(vals) == 2:
        lo, up = (vals[0],), (vals[1],)
    elif len(vals) == 4:
        lo, up = (vals[0], vals[2]), (vals[1], vals[3])
    else:
        raise ConfigError("param.box: expected 'lo,up' or 'lo0,up0,lo1,up1'")
    for a, b in zip(lo, up):
        if not b > a:
            raise ConfigError(f"param.box: need lower < upper, got [{a}, {b}]")
    return lo, up


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

    if sub != "verify":
        if not config.input:
            raise ConfigError("input: required (a built-in sampler spec or a grid CSV path)")
        lo, up = _parse_box(params)
        _parse_cells(params, len(lo))

    for key, kind in _KINDS.items():
        if key not in params:
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

    def classical_exponent(key: str) -> None:
        if above(key, 0.0) < 1.0:
            raise ConfigError(f"param.{key}: invariant {key} >= 1 violated")

    if sub == "norm":
        classical_exponent("p")
    elif sub == "grand":
        top = above("p", 1.0) - 1.0
        above("theta", 0.0)
        if _number(params, "eps_count") < 2:
            raise ConfigError("param.eps_count: need at least 2")
        eps_min = _number(params, "eps_min") if params["eps_min"] else None
        if eps_min is not None and not 0.0 < eps_min < top:
            raise ConfigError(f"param.eps_min: need 0 < eps_min < p - 1 = {top}, got {eps_min}")
    elif sub == "amalgam":
        for key, stage in (("p", "local"), ("q", "global")):
            if params[stage] == "grand":
                above(key, 1.0)
            else:
                classical_exponent(key)
        above("theta", 0.0)
        if _number(params, "window_side") < 1 or _number(params, "window_stride") < 1:
            raise ConfigError("param.window_side/window_stride: need at least one cell")
    elif sub == "maximal":
        if _is_csv(config.input):  # a CSV's grid is known on load, and checked there
            _explicit_radii(params)
        else:
            _radius_set(params, _domain_from(params))
            if params["probe"]:
                _probe_points(params, lo, up, "box")
    elif sub == "verify":
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
    return config


# ----------------------------------------------------------------------------
# Built-in samplers, addressable by name so runs are reproducible from config
# ----------------------------------------------------------------------------


def make_sampler(spec: str, ndim: int):
    """const:c | indicator:lo,hi[,lo1,hi1] | gaussian:c..,sigma | ramp:a,b | bump:c..,w"""
    if ":" in spec:
        name, argtext = spec.split(":", 1)
        args = _parse_floats(argtext, "sampler")
    else:
        name, args = spec, []
    if name == "const":
        c = args[0] if args else 1.0
        return lambda *xs: c + 0.0 * np.asarray(xs[0], dtype=float)
    if name == "indicator":
        if len(args) != 2 * ndim:
            raise ConfigError(f"indicator sampler needs {2 * ndim} bounds")
        lo, hi = args[0::2], args[1::2]

        def ind(*xs):
            m = np.ones_like(np.asarray(xs[0], dtype=float), dtype=bool)
            for d in range(ndim):
                x = np.asarray(xs[d], dtype=float)
                m &= (x >= lo[d]) & (x <= hi[d])
            return m.astype(float)

        return ind
    if name == "gaussian":
        if len(args) != ndim + 1:
            raise ConfigError(f"gaussian sampler needs {ndim} center(s) and a sigma")
        c, s = args[:ndim], args[-1]
        if s <= 0:
            raise ConfigError("gaussian sampler: sigma must be positive")
        return lambda *xs: np.exp(
            -sum((np.asarray(xs[d], dtype=float) - c[d]) ** 2 for d in range(ndim)) / (2 * s * s)
        )
    if name == "ramp":
        if ndim != 1 or len(args) != 2 or args[1] <= args[0]:
            raise ConfigError("ramp sampler: 1-D only, needs a < b")
        a, bnd = args

        def ramp(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= a) & (x <= bnd), (x - a) / (bnd - a), 0.0)

        return ramp
    if name == "bump":
        if len(args) != ndim + 1:
            raise ConfigError(f"bump sampler needs {ndim} center(s) and a width")
        c, w = args[:ndim], args[-1]
        if w <= 0:
            raise ConfigError("bump sampler: width must be positive")

        def bump(*xs):
            u2 = sum(((np.asarray(xs[d], dtype=float) - c[d]) / w) ** 2 for d in range(ndim))
            inside = u2 < 1.0
            denom = np.where(inside, 1.0 - u2, 1.0)
            return np.where(inside, np.exp(1.0 - 1.0 / denom), 0.0)

        return bump
    raise ConfigError(f"unknown sampler {spec!r}")


def _is_csv(text: str) -> bool:
    return Path(text).suffix == ".csv"


def _load_input(config: RunConfig, domain: BoxDomain) -> GridFunction:
    text = config.input
    if _is_csv(text):
        if not Path(text).exists():
            raise ConfigError(f"input: file not found: {text}")
        return read_grid_csv(text)
    return build(domain, make_sampler(text, domain.ndim))


def _domain_from(params: dict) -> BoxDomain:
    lo, up = _parse_box(params)
    cells = _parse_cells(params, len(lo))
    return BoxDomain(lo, up, cells)


def _weight_from_spec(spec: str, domain: BoxDomain):
    return weight_from(domain, make_sampler(spec, domain.ndim))


# ----------------------------------------------------------------------------
# Subcommand execution
# ----------------------------------------------------------------------------


def _run_norm(config: RunConfig, outdir: Path) -> int:
    params = config.parameters
    domain = _domain_from(params)
    f = _load_input(config, domain)
    w = _weight_from_spec(params["w"], f.domain)
    p = _number(params, "p")
    value = weighted_lp_norm(f, p, w)
    write_json(outdir / "norm_summary.json", {"value": value, "p": p})
    return 0


def _grand_params_from(params: dict, domain: BoxDomain) -> GrandParams:
    p = _number(params, "p")
    grid_factory = EpsGrid.geometric if params["eps_mode"] == "geometric" else EpsGrid.linear
    min_eps = _number(params, "eps_min") if params.get("eps_min") else None
    grid = grid_factory(p, count=_number(params, "eps_count"), min_eps=min_eps)
    return GrandParams(
        p=p,
        grandizer=_weight_from_spec(params["a"], domain),
        theta=_number(params, "theta"),
        variant=Variant.EXPONENT_OVER_P if params["variant"] == "over_p" else Variant.EXPONENT_FULL,
        eps_grid=grid,
    )


def _run_grand(config: RunConfig, outdir: Path) -> int:
    params = config.parameters
    domain = _domain_from(params)
    f = _load_input(config, domain)
    report = grand_norm(f, _grand_params_from(params, f.domain))
    write_norm_csv(report, outdir / "grand_curve.csv")
    write_json(outdir / "grand_summary.json", report.summary())
    return 0


def _run_amalgam(config: RunConfig, outdir: Path) -> int:
    params = config.parameters
    domain = _domain_from(params)
    f = _load_input(config, domain)
    window = WindowSpec(_number(params, "window_side"), _number(params, "window_stride"))

    def space(kind: str, exponent_key: str, weight_key: str):
        if kind == "grand":
            # The epsilon grid and the variant are grand's defaults.
            gp = {**_PARAMS["grand"], **params, "p": params[exponent_key], "a": params[weight_key]}
            return GrandSpace(_grand_params_from(gp, f.domain))
        return ClassicalSpace(
            _number(params, exponent_key), _weight_from_spec(params[weight_key], f.domain)
        )

    spec = AmalgamSpec(
        local_space=space(params["local"], "p", "a"),
        global_space=space(params["global"], "q", "b"),
        window=window,
    )
    cf = control_function(f, spec.local_space, spec.window)
    write_control_csv(cf, outdir / "control.csv")
    report = amalgam_norm(f, spec, control=cf)
    write_norm_csv(report, outdir / "outer_curve.csv")
    summary = report.summary()
    summary.update(
        {"local": params["local"], "global": params["global"], "q": _number(params, "q")}
    )
    write_json(outdir / "amalgam_summary.json", summary)
    return 0


def _run_maximal(config: RunConfig, outdir: Path) -> int:
    params = config.parameters
    domain = _domain_from(params)
    f = _load_input(config, domain)
    rs = _radius_set(params, f.domain)
    if params["probe"]:  # against the grid read from a CSV, before any computation
        probes = _probe_points(params, f.domain.lower, f.domain.upper, "grid")
    result = maximal_fast(f, rs) if params["impl"] == "fast" else maximal_naive(f, rs)
    write_maximal_csv(result, outdir / "maximal.csv")
    summary = {
        "radii": params["radii"],
        "include_center": rs.include_center,
        "impl": params["impl"],
        "max_value": float(np.max(np.real(result.mf.values))),
    }
    if params["probe"]:
        probes = _sample_profile(result, probes)
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
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {
        "norm": _run_norm,
        "grand": _run_grand,
        "amalgam": _run_amalgam,
        "maximal": _run_maximal,
        "verify": _run_verify,
    }[config.subcommand]
    return runner(config, outdir)


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
