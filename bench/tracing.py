"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

The tracer wraps each function at the module attribute its caller looks up
(``cli.control_function``, ``amalgam.control_function``,
``verify.control_function`` ...), so every call passes through exactly one
wrapper and the package itself is unchanged.  :meth:`Tracer.restore` puts
the originals back.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

WRITERS = {  # file writers bound in cli -> index of their path argument
    "write_json": 0,
    "write_csv": 0,
    "write_check_json": 1,
    "write_check_csv": 1,
    "write_norm_csv": 1,
    "write_control_csv": 1,
    "write_maximal_csv": 1,
}

CHECK_FUNCTIONS = {
    "norm_axioms": "check_norm_axioms",
    "solidity_monotone": "check_solidity_and_monotone",
    "invariance": "check_invariance",
    "inclusion_equivalence": "check_inclusion_norm_equivalence",
    "embedding_classical_grand": "check_embedding_classical_into_grand",
    "embedding_grand_mixed": "check_embedding_grand_into_mixed",
    "nesting_in_p": "check_nesting_in_p",
    "pointwise_product": "check_pointwise_product",
    "vanishing_limit": "check_vanishing_limit",
    "maximal_bounded": "check_maximal_bounded",
    "maximal_unbounded": "check_maximal_unbounded",
}

GRIDFN_OPS = ("translate", "modulate", "scale", "pointwise_product", "indicator")


@dataclass
class Span:
    name: str
    command: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _window_counts(f, window) -> tuple[int, int]:
    """Anchors evaluated and window cells computed by one control_function call."""
    shape = f.domain.shape
    window = window.for_ndim(len(shape))
    anchors, cells = 1, 1
    for n, side, stride in zip(shape, window.side_cells, window.stride_cells):
        starts = range(0, n, stride)
        anchors *= len(starts)
        cells *= sum(min(side, n - s) for s in starts)
    return anchors, cells


class Tracer:
    """Records a span per wrapped call; spans of one CLI command share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.command = -1

    def _wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == "cli.main":
                self.command += 1
            span = Span(name, self.command, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, attrs))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install_package(self, modules: dict) -> None:
        """Wrap the public functions of every layer at each binding site."""
        cli, verify, amalgam, norms, maximal, gridfn = (
            modules[m] for m in ("cli", "verify", "amalgam", "norms", "maximal", "gridfn")
        )
        self.install(cli, "main", "cli.main")
        self.install(verify, "build_corpus", "verify.build_corpus")
        for check, fname in CHECK_FUNCTIONS.items():
            self.install(verify, fname, f"verify.check.{check}")

        def control_attrs(args, kwargs, result):
            f, local, window = args[:3]
            anchors, cells = _window_counts(f, window)
            kind = "classical" if isinstance(local, amalgam.ClassicalSpace) else "grand"
            return {"kind": kind, "windows": anchors, "window_cells": cells}

        for owner in (amalgam, cli, verify):
            self.install(owner, "control_function", "amalgam.control_function", control_attrs)
            self.install(owner, "amalgam_norm", "amalgam.amalgam_norm")
        for owner in (amalgam, verify):
            self.install(owner, "lattice_weight", "amalgam.lattice_weight")
        self.install(verify, "mixed_norm_family", "amalgam.mixed_norm_family")

        def grand_attrs(args, kwargs, result):
            return {"curve_rows": len(result.curve)}

        for owner in (norms, cli):
            self.install(owner, "grand_norm", "norms.grand_norm", grand_attrs)
        self.install(cli, "weighted_lp_norm", "norms.weighted_lp_norm")

        def maximal_attrs(args, kwargs, result):
            f, rs = args[:2]
            return {"ndim": f.domain.ndim, "ball_evals": f.domain.size * len(rs.radii_cells)}

        for owner in (maximal, cli, verify):
            self.install(owner, "maximal_fast", "maximal.maximal_fast", maximal_attrs)

        for owner in (gridfn, cli, verify):
            self.install(owner, "build", "gridfn.build")
        self.install(cli, "read_grid_csv", "gridfn.read_grid_csv",
                     lambda a, k, r: {"rows": r.domain.size})
        self.install(gridfn, "scale", "gridfn.ops")
        for op in GRIDFN_OPS:
            self.install(verify, op, "gridfn.ops")
        self.install(gridfn.BoxDomain, "refine", "gridfn.ops")

        for writer, pos in WRITERS.items():
            self.install(cli, writer, "reporting.write",
                         lambda a, k, r, pos=pos: {"bytes": os.path.getsize(a[pos])})

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "command": s.command, "parent": s.parent,
             "start": s.start, "end": s.end, **s.attrs}
            for i, s in enumerate(self.spans)
        ]


def layer_metrics(spans: list[Span], untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""

    def pick(name, **where):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in where.items())]

    def total(name, **where):
        return math.fsum(s.duration for s in pick(name, **where))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in pick(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    m["cli.main.calls"] = (len(pick("cli.main")), "count")
    m["cli.main.self_s"] = (math.fsum(s.self_s for s in pick("cli.main")), "s")
    for check in CHECK_FUNCTIONS:
        m[f"verify.check.{check}.s"] = (total(f"verify.check.{check}"), "s")
    m["verify.build_corpus.s"] = (total("verify.build_corpus"), "s")

    grand_s = total("amalgam.control_function", kind="grand")
    classical_s = total("amalgam.control_function", kind="classical")
    windows = attr_sum("amalgam.control_function", "windows")
    m["amalgam.stage.grand.s"] = (grand_s, "s")
    m["amalgam.stage.classical.s"] = (classical_s, "s")
    m["amalgam.control_function.calls"] = (len(pick("amalgam.control_function")), "count")
    m["amalgam.windows"] = (windows, "count")
    m["amalgam.window_cells"] = (attr_sum("amalgam.control_function", "window_cells"), "count")
    m["amalgam.amalgam_norm.calls"] = (len(pick("amalgam.amalgam_norm")), "count")
    m["amalgam.mixed_norm_family.calls"] = (len(pick("amalgam.mixed_norm_family")), "count")
    m["amalgam.windows_per_s"] = (rate(windows, grand_s + classical_s), "1/s")
    m["amalgam.outer.self_s"] = (math.fsum(s.self_s for s in pick("amalgam.amalgam_norm")), "s")

    m["norms.grand_norm.calls"] = (len(pick("norms.grand_norm")), "count")
    m["norms.grand_norm.s"] = (total("norms.grand_norm"), "s")
    m["norms.curve_rows"] = (attr_sum("norms.grand_norm", "curve_rows"), "count")
    m["norms.weighted_lp_norm.calls"] = (len(pick("norms.weighted_lp_norm")), "count")

    fast_s = total("maximal.maximal_fast", ndim=1), total("maximal.maximal_fast", ndim=2)
    ball_evals = attr_sum("maximal.maximal_fast", "ball_evals")
    m["maximal.maximal_fast.calls"] = (len(pick("maximal.maximal_fast")), "count")
    m["maximal.fast_1d.s"] = (fast_s[0], "s")
    m["maximal.fast_2d.s"] = (fast_s[1], "s")
    m["maximal.ball_evals"] = (ball_evals, "count")
    m["maximal.ball_evals_per_s"] = (rate(ball_evals, sum(fast_s)), "1/s")

    m["gridfn.build.calls"] = (len(pick("gridfn.build")), "count")
    m["gridfn.build.s"] = (total("gridfn.build"), "s")
    m["gridfn.read_grid_csv.s"] = (total("gridfn.read_grid_csv"), "s")
    m["gridfn.read_grid_csv.rows"] = (attr_sum("gridfn.read_grid_csv", "rows"), "count")
    m["gridfn.ops.s"] = (total("gridfn.ops"), "s")

    m["reporting.write.s"] = (total("reporting.write"), "s")
    m["reporting.files_written"] = (len(pick("reporting.write")), "count")
    m["reporting.bytes_written"] = (attr_sum("reporting.write", "bytes"), "bytes")

    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m
