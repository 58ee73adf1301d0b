"""Benchmark of the grandamalgam command line, one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload battery --seed 1 --seconds 40 --trace 0

Every command goes through ``grandamalgam.cli.main`` in this process, on one
thread, with the argument lists a user would type.  A run:

1. runs timed passes over the workload's commands until ``--seconds`` have
   passed (at least three); ``wall_s`` is the sum over commands of each
   command's fastest time, a pass with every command at its best.  Before
   each pass it sets up a few times (import the package afresh, write the
   seeded inputs); the fastest set-up is ``setup_s``.  Noise on a shared
   host only ever adds time, and its slow spells last seconds, so minima
   over samples spread through the run repeat better than medians;
2. with ``--trace 0``, runs one more pass in a child interpreter and reports
   as ``peak_mem_mb`` how far the pass raised its peak resident set above
   the peak after the imports, with the end-to-end metrics;
   with ``--trace 1``, runs one traced pass and reports the per-layer metrics
   of ``tracing.layer_metrics``, writing the spans to
   ``.bench_work/<workload>/spans.json``;
3. checks that every pass wrote byte-identical files and that the first
   pass's outputs agree with the oracles in ``oracles.py``.

An op is one command; in ``battery`` each command runs one check of the
verification battery.  An op fails in a pass on a nonzero exit, an
exception, an oracle mismatch, or a file that differs from the first pass.
The last line of standard output is the JSON result; diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUPS_PER_PASS = 4
MIN_PASSES = 3
LAYERS = ("cli", "verify", "amalgam", "norms", "maximal", "gridfn", "reporting")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def fresh_import():
    """Import the package as a first import would, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "grandamalgam" or m.startswith("grandamalgam.")]:
        del sys.modules[name]
    importlib.import_module("grandamalgam.cli")
    return {layer: sys.modules[f"grandamalgam.{layer}"] for layer in LAYERS}


def digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def setup(workload: str, seed: int, inputs: Path, times: list[float], files=None):
    """Set up SETUPS_PER_PASS times, appending each set-up's time to ``times``.

    Every set-up's input files must match ``files``, the digest of an earlier
    set-up when there was one.  Returns the commands, the package modules of
    the last set-up and the digest of its inputs.
    """
    for _ in range(SETUPS_PER_PASS):
        shutil.rmtree(inputs, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        modules = fresh_import()
        commands = make_inputs(workload, seed, inputs)
        times.append(time.perf_counter() - t0)
        got = digest(inputs)
        if files is not None and got != files:
            raise RuntimeError("the same seed wrote different input files")
        files = got
    return commands, modules, files


def run_pass(modules, commands, out_root: Path) -> tuple[list[float], list]:
    """Run every command once; return each command's wall time and exit code."""
    gc.collect()
    times, rcs = [], []
    for c in commands:
        t0 = time.perf_counter()
        try:
            rcs.append(modules["cli"].main([*c.argv, "--out", str(out_root / c.label)]))
        except Exception:
            log(f"{c.label}: {traceback.format_exc()}")
            rcs.append("exception")
        times.append(time.perf_counter() - t0)
    return times, rcs


class Ops:
    """Ops of one workload, one per command, and which of them failed in which pass."""

    def __init__(self, commands):
        self.commands = commands
        self.names = [c.label for c in commands]
        self.oracle_errors: dict[str, list[str]] = {}
        self.passes: list[set[str]] = []

    def add_pass(self, rcs, differing: set[str]) -> None:
        failed = {path.partition("/")[0] for path in differing}
        for c, rc in zip(self.commands, rcs):
            if rc != 0:
                log(f"{c.label}: exit {rc}")
                failed.add(c.label)
        self.passes.append(failed)

    def run_oracles(self, out_root: Path, seed: int) -> None:
        for c in self.commands:
            out = out_root / c.label
            try:
                if c.argv[0] == "maximal":
                    self.oracle_errors[c.label] = oracles.check_maximal(c.argv, out, seed)
                else:
                    check = {"verify": oracles.check_battery, "grand": oracles.check_grand,
                             "amalgam": oracles.check_amalgam}[c.argv[0]]
                    self.oracle_errors[c.label] = check(c.argv, out)
            except Exception:
                self.oracle_errors[c.label] = [f"oracle could not read the output: {traceback.format_exc()}"]
        for op, errs in self.oracle_errors.items():
            for e in errs:
                log(f"oracle mismatch [{op}] {e}")

    def counts(self) -> tuple[int, int]:
        bad = {op for op, errs in self.oracle_errors.items() if errs}
        attempted = len(self.names) * len(self.passes)
        failed = sum(len(f | bad) for f in self.passes)
        return attempted, failed


def differing_files(a: Path, b: Path) -> set[str]:
    da, db = digest(a), digest(b)
    return {k for k in da.keys() | db.keys() if da.get(k) != db.get(k)}


def memory_pass(commands, work: Path) -> tuple[float, list]:
    """Growth of peak resident set (MiB) in a child interpreter running one pass."""
    spec = work / "commands.json"
    spec.write_text(json.dumps([[c.label, *c.argv] for c in commands]))
    result = work / "mem_result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "mem_pass.py"), str(spec), str(work / "pass_mem"), str(result)],
        check=True, timeout=170,
    )
    found = json.loads(result.read_text())
    return found["peak_mb"], found["rcs"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path("src") / "grandamalgam" / "cli.py").is_file():
        log("no src/grandamalgam here: run from the root of a grandamalgam checkout")
        return 2
    sys.path.insert(0, "src")

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    first = work / "pass0"
    setup_times, input_files, passes, rcs_by_pass = [], None, [], []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        commands, modules, input_files = setup(args.workload, args.seed, work / "inputs", setup_times, input_files)
        out = work / f"pass{len(passes)}"
        times, rcs = run_pass(modules, commands, out)
        passes.append(times)
        rcs_by_pass.append((out, rcs))
    setup_s = min(setup_times)
    fastest = [min(t) for t in zip(*passes)]
    wall_s = sum(fastest)
    ops = Ops(commands)
    if args.trace == 0:
        peak_mb, mem_rcs = memory_pass(commands, work)
        rcs_by_pass.append((work / "pass_mem", mem_rcs))
    else:
        tracer = tracing.Tracer()
        tracer.install_package(modules)
        try:
            times, rcs = run_pass(modules, commands, work / "pass_traced")
        finally:
            tracer.restore()
        rcs_by_pass.append((work / "pass_traced", rcs))
        (work / "spans.json").write_text(json.dumps(tracer.dump()))
        traced_wall = sum(times)
        layer = tracing.layer_metrics(tracer.spans, wall_s, traced_wall)
        top = sum(s.duration for s in tracer.spans if s.parent is None)
        log(f"traced pass {traced_wall:.3f} s, its top-level spans {top:.3f} s")

    ops.run_oracles(first, args.seed)
    for out, rcs in rcs_by_pass:
        ops.add_pass(rcs, set() if out == first else differing_files(first, out))
        if out != first:
            shutil.rmtree(out)
    attempted, failed = ops.counts()
    log(f"{args.workload} seed {args.seed}: setup {setup_s:.4f} s (fastest of {len(setup_times)}), "
        f"setups {[round(t, 4) for t in setup_times]}, "
        f"passes {[round(sum(t), 3) for t in passes]}, fastest per command {[round(t, 3) for t in fastest]}, "
        f"failed {failed}/{attempted}")

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_mem_mb": (peak_mb, "MB"),
        }
    else:
        metrics = layer
    shutil.rmtree(first)
    shutil.rmtree(work / "inputs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
