"""One untraced pass in a fresh interpreter, for the growth of its peak RSS.

Usage: python3 bench/mem_pass.py COMMANDS_JSON OUT_ROOT RESULT_JSON

COMMANDS_JSON holds [[label, argv...], ...]; the pass is ``run.run_pass``,
with each command's output in OUT_ROOT/label.  RESULT_JSON receives the exit
codes ("rcs") and ``peak_mb``: the peak resident set after the pass minus
the peak after importing the package, in MiB, so the interpreter and numpy
do not count.  Run from the root of a checkout, on Linux.

The peak is VmHWM of /proc/self/status, not getrusage's ru_maxrss: Linux
carries the parent's peak into ru_maxrss across fork and exec, so in this
child it would read the benchmark's own peak from its timed passes.
"""

import json
import sys
from pathlib import Path

import run
from workloads import Command


def peak_mib() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    commands = [Command(label, tuple(argv)) for label, *argv in json.loads(Path(sys.argv[1]).read_text())]
    sys.path.insert(0, "src")
    modules = run.fresh_import()
    base = peak_mib()
    _, rcs = run.run_pass(modules, commands, Path(sys.argv[2]))
    Path(sys.argv[3]).write_text(json.dumps({"rcs": rcs, "peak_mb": peak_mib() - base}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
