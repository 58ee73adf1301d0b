"""Output oracles: independent numpy recomputations of every command's output.

Each oracle reads the files one command wrote and returns a list of
mismatch messages (empty when the output is right).

* grand and amalgam: a dense epsilon scan.  Each inner sum is evaluated as
  sum exp(p ln|f| + eps (ln a / p - ln|f|)), the window stage over all
  windows at once through ``sliding_window_view``.  The scan takes the
  union of a 65-point geometric and a 65-point linear grid on
  [eps_min, p - 1], then zooms 8 times by a factor of 4 around the two best
  local maxima of each window, so it resolves the sup to about 1e-12
  relative without assuming the curve is unimodal.
* maximal: direct clipped-ball averages at a seeded sample of cells, summed
  outward from each sampled cell rather than through prefix sums.
* battery: the verdict of each check in ``summary.json`` against the
  verdict its proposition should give, and against the margins in the
  check's own table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GRAND_RTOL = 1e-9  # a sup over epsilon: the program refines its argmax to 1e-12 in eps
EXACT_RTOL = 1e-10  # closed-form sums that differ only in summation order
COORD_ATOL = 1e-9
EPS_MIN_FRACTION = 1e-4  # the program's default eps_min / (p - 1)
THETA = 1.0  # the program's default theta (variant over_p)
MAXIMAL_SAMPLES = 48

EXPECTED_VERDICTS = {
    "norm_axioms": "PASS",
    "solidity_monotone": "PASS",
    "invariance": "PASS",
    "inclusion_equivalence": "REPORT_ONLY",
    "embedding_classical_grand": "PASS",
    "embedding_grand_mixed": "PASS",
    "nesting_in_p": "REPORT_ONLY",
    "pointwise_product": "REPORT_ONLY",
    "vanishing_limit": "PASS",
    "maximal_bounded": "REPORT_ONLY",
    "maximal_unbounded": "PASS",
}


def _flags(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


class Grid:
    """Cell centers and the sampled input of one command, built independently."""

    def __init__(self, flags: dict):
        box = [float(t) for t in flags["box"].split(",")]
        self.ndim = len(box) // 2
        self.lower = box[0::2]
        cells = int(flags["cells"])
        self.shape = (cells,) * self.ndim
        self.h = [(box[2 * d + 1] - box[2 * d]) / cells for d in range(self.ndim)]
        self.vol = math.prod(self.h)
        axes = [self.lower[d] + (np.arange(cells) + 0.5) * self.h[d] for d in range(self.ndim)]
        self.mesh = np.meshgrid(*axes, indexing="ij")
        source = flags["f"]
        if source.endswith(".csv"):
            _, rows = _read_csv(Path(source))
            self.mesh = [rows[:, 1]]
            self.absf = np.abs(rows[:, 2] + 1j * rows[:, 3])
        else:
            self.absf = np.abs(self.sample(source))

    def sample(self, spec: str) -> np.ndarray:
        name, args = spec.split(":")
        vals = [float(t) for t in args.split(",")]
        if name != "gaussian":
            raise ValueError(f"oracle has no sampler {name!r}")
        r2 = sum((self.mesh[d] - vals[d]) ** 2 for d in range(self.ndim))
        return np.exp(-r2 / (2.0 * vals[-1] ** 2))


# ----------------------------------------------------------------------------
# Dense epsilon scan
# ----------------------------------------------------------------------------


class EpsScan:
    """eps^theta * (sum |f|^(p-eps) a^(eps/p) vol)^(1/(p-eps)) over rows of windows."""

    def __init__(self, absf: np.ndarray, a: np.ndarray, p: float, vol: float):
        absf = np.atleast_2d(absf)
        a = np.atleast_2d(a)
        live = absf > 0
        lf = np.log(np.where(live, absf, 1.0))
        self.A = np.where(live, p * lf, -np.inf)
        self.B = np.where(live, np.log(a) / p - lf, 0.0)
        self.p, self.vol = p, vol

    def inner(self, eps: np.ndarray) -> np.ndarray:
        """Inner norms for one epsilon per row (eps has shape (rows,))."""
        s = np.exp(self.A + eps[:, None] * self.B).sum(axis=1) * self.vol
        with np.errstate(divide="ignore"):
            return np.where(s > 0, s ** (1.0 / (self.p - eps)), 0.0)

    def terms(self, eps: np.ndarray) -> np.ndarray:
        """Terms at an (rows, k) array of epsilons."""
        return np.stack([eps[:, k] ** THETA * self.inner(eps[:, k]) for k in range(eps.shape[1])], 1)

    def sup(self) -> np.ndarray:
        rows = self.A.shape[0]
        top = self.p - 1.0
        lo = top * EPS_MIN_FRACTION
        grid = np.unique(np.concatenate([np.geomspace(lo, top, 65), np.linspace(lo, top, 65)]))
        grid[0], grid[-1] = lo, top
        t = self.terms(np.broadcast_to(grid, (rows, grid.size)))
        best = t.max(axis=1)
        padded = np.pad(t, ((0, 0), (1, 1)), constant_values=-np.inf)
        peak = (t >= padded[:, :-2]) & (t >= padded[:, 2:])
        ranked = np.argsort(np.where(peak, -t, np.inf), axis=1, kind="stable")
        for c in range(2):
            k = ranked[:, c]
            left = grid[np.maximum(k - 1, 0)]
            right = grid[np.minimum(k + 1, grid.size - 1)]
            for _ in range(8):
                eps = np.linspace(left, right, 9, axis=1)
                tz = self.terms(eps)
                best = np.maximum(best, tz.max(axis=1))
                j = tz.argmax(axis=1)
                r = np.arange(rows)
                left, right = eps[r, np.maximum(j - 1, 0)], eps[r, np.minimum(j + 1, 8)]
        return best


def _windows(values: np.ndarray, side: int, stride: int, fill: float) -> np.ndarray:
    """(anchors, cells) array of zero-filled windows on the stride lattice."""
    ndim = values.ndim
    padded = np.pad(values, [(0, side)] * ndim, constant_values=fill)
    view = sliding_window_view(padded, (side,) * ndim)
    for d in range(ndim):
        view = np.take(view, np.arange(0, values.shape[d], stride), axis=d)
    return view.reshape(-1, side**ndim)


def _lattice(values: np.ndarray, stride: int) -> np.ndarray:
    idx = np.minimum(np.floor((np.arange(-(-values.shape[0] // stride)) + 0.5) * stride).astype(int),
                     values.shape[0] - 1)
    return values[np.ix_(*[idx] * values.ndim)].reshape(-1)


def _check_curve(path: Path, scan: EpsScan, what: str) -> list[str]:
    _, rows = _read_csv(path)
    errs = []
    if rows.shape[0] == 0:
        return [f"{what}: empty curve"]
    for eps, got_inner, got_term in rows.tolist():
        want = scan.inner(np.array([eps]))[0]
        if not (_close(got_inner, want, GRAND_RTOL) and _close(got_term, eps**THETA * want, GRAND_RTOL)):
            errs.append(f"{what}: row eps={eps} has inner {got_inner!r}, oracle {float(want)!r}")
    return errs


def _check_sup(summary: dict, scan: EpsScan, what: str) -> list[str]:
    want = float(scan.sup()[0])
    got = summary["value"]
    errs = []
    if not _close(got, want, GRAND_RTOL):
        errs.append(f"{what}: value {got!r}, dense-scan sup {want!r} (rel {got / want - 1:+.3e})")
    at = scan.terms(np.array([[summary["argmax_eps"]]]))[0, 0]
    if not _close(got, at, GRAND_RTOL):
        errs.append(f"{what}: value {got!r} is not the term {float(at)!r} at argmax_eps")
    return errs


def check_grand(argv, out: Path) -> list[str]:
    flags = _flags(argv)
    grid = Grid(flags)
    p = float(flags["p"])
    scan = EpsScan(grid.absf.reshape(-1), grid.sample(flags["a"]).reshape(-1), p, grid.vol)
    summary = json.loads((out / "grand_summary.json").read_text())
    return _check_sup(summary, scan, "grand") + _check_curve(out / "grand_curve.csv", scan, "grand_curve")


def check_amalgam(argv, out: Path) -> list[str]:
    flags = _flags(argv)
    grid = Grid(flags)
    side, stride = int(flags["window-side"]), int(flags["window-stride"])
    p, q = float(flags["p"]), float(flags["q"])
    absf = grid.absf.reshape(grid.shape)
    a = grid.sample(flags["a"]).reshape(grid.shape)
    b = grid.sample(flags["b"]).reshape(grid.shape)
    fw, aw = _windows(absf, side, stride, 0.0), _windows(a, side, stride, 1.0)
    if flags["local"] == "grand":
        want_cv, rtol = EpsScan(fw, aw, p, grid.vol).sup(), GRAND_RTOL
    else:
        want_cv, rtol = ((fw**p * aw).sum(axis=1) * grid.vol) ** (1.0 / p), EXACT_RTOL

    errs = []
    _, rows = _read_csv(out / "control.csv")
    anchors = np.arange(0, grid.shape[0], stride)
    corners = np.meshgrid(*[grid.lower[d] + anchors * grid.h[d] for d in range(grid.ndim)], indexing="ij")
    if rows.shape[0] != want_cv.size:
        return [f"control.csv: {rows.shape[0]} rows, expected {want_cv.size} anchors"]
    for d in range(grid.ndim):
        if not np.allclose(rows[:, d], corners[d].reshape(-1), rtol=0, atol=COORD_ATOL):
            errs.append(f"control.csv: anchor coordinates on axis {d} differ")
    got_cv = rows[:, grid.ndim]
    bad = np.flatnonzero(np.abs(got_cv - want_cv) > rtol * np.maximum(np.abs(want_cv), 1e-300))
    for i in bad[:5]:
        errs.append(f"control.csv: anchor {i} has {float(got_cv[i])!r}, oracle {float(want_cv[i])!r} "
                    f"(rel {got_cv[i] / want_cv[i] - 1:+.3e})")
    if bad.size > 5:
        errs.append(f"control.csv: {bad.size} anchors differ in all")

    # The outer stage is checked on the program's own control values, so a
    # local-stage miss is reported once, above.
    blat = _lattice(b, stride)
    lat_vol = grid.vol * stride**grid.ndim
    summary = json.loads((out / "amalgam_summary.json").read_text())
    if flags["global"] == "grand":
        scan = EpsScan(got_cv, blat, q, lat_vol)
        errs += _check_sup(summary, scan, "amalgam outer")
        errs += _check_curve(out / "outer_curve.csv", scan, "outer_curve")
    else:
        want = float(((got_cv**q * blat).sum() * lat_vol) ** (1.0 / q))
        if not _close(summary["value"], want, EXACT_RTOL):
            errs.append(f"amalgam: value {summary['value']!r}, oracle {want!r}")
        if (out / "outer_curve.csv").read_text().count("\n") != 1:
            errs.append("outer_curve.csv: a classical outer stage should write a header only")
    return errs


# ----------------------------------------------------------------------------
# Maximal function
# ----------------------------------------------------------------------------


def _ball_averages(absf: np.ndarray, cell: tuple[int, ...], radii: int) -> np.ndarray:
    """Averages over the clipped balls of radius 1..radii around ``cell``, summed
    ring by ring outward from the cell."""
    if absf.ndim == 1:
        (i,) = cell
        n = absf.size
        r = np.arange(1, radii + 1)
        left = np.where(i - r >= 0, absf[np.clip(i - r, 0, n - 1)], 0.0)
        right = np.where(i + r < n, absf[np.clip(i + r, 0, n - 1)], 0.0)
        sums = absf[i] + np.cumsum(left + right)
        counts = np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1
        return sums / counts
    out = np.empty(radii)
    for r in range(1, radii + 1):
        block = absf[tuple(slice(max(0, c - r), c + r + 1) for c in cell)]
        out[r - 1] = block.sum() / block.size
    return out


def check_maximal(argv, out: Path, seed: int) -> list[str]:
    flags = _flags(argv)
    grid = Grid(flags)
    absf = grid.absf.reshape(grid.shape)
    radii = max(1, min(grid.shape) // 2)  # --radii full
    _, rows = _read_csv(out / "maximal.csv")
    errs = []
    if rows.shape[0] != absf.size:
        return [f"maximal.csv: {rows.shape[0]} rows, expected {absf.size}"]
    mf = rows[:, 1 + grid.ndim].reshape(grid.shape)
    arg = rows[:, -1].astype(int).reshape(grid.shape)
    if np.any(rows[:, 2 + grid.ndim] != 0.0):
        errs.append("maximal.csv: nonzero imaginary part")
    rng = np.random.default_rng([seed % 2**63, 99])
    flat = rng.choice(absf.size, MAXIMAL_SAMPLES, replace=False)
    probes = [float(t) for t in flags.get("probe", "").split(",") if t]
    # A probe on a cell boundary may fall in either cell, depending on the last
    # bit of the grid spacing the program infers from the CSV.
    probe_cells = [
        sorted({int(np.clip(np.floor((x - grid.lower[0]) / grid.h[0] + e), 0, absf.size - 1))
                for e in (-1e-9, 1e-9)})
        for x in probes
    ]
    sampled = [np.unravel_index(k, grid.shape) for k in flat]
    for cell in sampled + [(c,) for cells in probe_cells for c in cells]:
        cell = tuple(int(c) for c in cell)
        avgs = _ball_averages(absf, cell, radii)
        want = float(max(absf[cell], avgs.max()))
        if not _close(mf[cell], want, EXACT_RTOL):
            errs.append(f"maximal.csv: cell {cell} has {float(mf[cell])!r}, direct max {want!r}")
        r = arg[cell]
        at = float(absf[cell] if r == 0 else avgs[r - 1])
        if not _close(mf[cell], at, EXACT_RTOL):
            errs.append(f"maximal.csv: cell {cell} argmax radius {r} gives {at!r}, not {float(mf[cell])!r}")
    summary = json.loads((out / "maximal_summary.json").read_text())
    if summary["max_value"] != float(mf.max()):
        errs.append(f"maximal_summary.json: max_value {summary['max_value']!r} is not max of maximal.csv")
    if probes:
        _, prow = _read_csv(out / "probes.csv")
        if prow.shape[0] != len(probes) or not all(
            got[0] == x and any(_close(got[1], mf[c], EXACT_RTOL) for c in cells)
            for got, x, cells in zip(prow, probes, probe_cells)
        ):
            errs.append(f"probes.csv: {prow.tolist()} differs from Mf at the probe cells {probe_cells}")
    return errs


# ----------------------------------------------------------------------------
# Verification battery
# ----------------------------------------------------------------------------


def check_battery(argv, out: Path) -> list[str]:
    """Mismatches of one ``verify --check NAME`` command."""
    flags = _flags(argv)
    name = flags["check"]
    summary = json.loads((out / "summary.json").read_text())
    errs = []
    seen = [row["name"] for row in summary["checks"]]
    if seen != [name]:
        return [f"summary.json lists checks {seen}, expected [{name!r}]"]
    if summary["seed"] != int(flags["seed"]) or summary["cells"] != int(flags["cells"]):
        errs.append("summary.json: seed or cells do not echo the command")
    (row,) = summary["checks"]
    want = EXPECTED_VERDICTS[name]
    if row["verdict"] != want:
        errs.append(f"verdict {row['verdict']}, expected {want}")
    payload = json.loads((out / f"{name}.json").read_text())
    if payload["verdict"] != row["verdict"]:
        errs.append(f"{name}.json verdict {payload['verdict']} differs from summary.json")
    lines = (out / f"{name}.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if len(rows) != payload["n_cases"] or any(len(r) != len(header) for r in rows):
        errs.append(f"{name}.csv has {len(rows)} rows, n_cases is {payload['n_cases']}")
    elif "margin" in header and payload["tolerance"] is not None and rows:
        k = header.index("margin")
        holds = min(float(r[k]) for r in rows) >= -payload["tolerance"]
        if holds != (row["verdict"] != "FAIL"):
            errs.append(f"verdict {row['verdict']} contradicts the margins in {name}.csv")
    return errs
