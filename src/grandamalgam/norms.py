"""Weighted Lebesgue norms and grand norms with the epsilon-sup optimizer.

A grand norm is a supremum over epsilon in (0, p-1] of epsilon-weighted
L^(p-eps) norms.  It is evaluated on a finite epsilon grid (geometric by
default, so the eps -> 0 behavior is resolved) and optionally sharpened by
one golden-section pass bracketing the discrete argmax.  Both steps run on a
(windows, cells) block: the grid is one array pass per epsilon over every
row, and the golden-section refinement runs on all rows' brackets together.
The grand norm of a whole function is the one-row case (a view of the
samples, not a copy); the amalgam control function passes one row per
window.  Two inner weightings are supported:

* ``EXPONENT_OVER_P``: weight a**(eps/p), outer factor eps**theta;
* ``EXPONENT_FULL``:   weight a**eps, outer factor eps**(theta/(p-eps)).

The two define equivalent norms; the equivalence constants are only
observed empirically (see :func:`compare_variants`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .gridfn import GridFunction, Weight, _check_same_domain
from .reporting import CheckResult, Verdict, write_csv

__all__ = [
    "Variant",
    "EpsGrid",
    "GrandParams",
    "NormReport",
    "weighted_lp_norm",
    "grand_norm",
    "grand_norm_curve",
    "holder_grandizer_bound",
    "compare_variants",
    "golden_section_max",
    "sup_eps_factor",
    "write_norm_csv",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_EPS_COUNT = 33
DEFAULT_EPS_MIN_FRACTION = 1e-4


class Variant(Enum):
    """Inner weighting convention of the grand norm."""

    EXPONENT_OVER_P = "over_p"
    EXPONENT_FULL = "full"


@dataclass(frozen=True)
class EpsGrid:
    """Strictly increasing epsilon values in (0, p-1], ending exactly at p-1."""

    mode: str
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("empty epsilon grid")
        if any(v <= 0.0 for v in vals):
            raise ValueError("epsilon values must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("epsilon values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def min_eps(self) -> float:
        return self.values[0]

    @staticmethod
    def geometric(p: float, count: int = DEFAULT_EPS_COUNT, min_eps: float | None = None) -> "EpsGrid":
        top = p - 1.0
        if top <= 0.0:
            raise ValueError("need p > 1")
        if count < 2:
            raise ValueError("need at least two grid points")
        if min_eps is None:
            min_eps = top * DEFAULT_EPS_MIN_FRACTION
        if not 0.0 < min_eps < top:
            raise ValueError("need 0 < min_eps < p - 1")
        ratio = (min_eps / top) ** (1.0 / (count - 1))
        vals = [top * ratio ** (count - 1 - k) for k in range(count - 1)] + [top]
        return EpsGrid("geometric", tuple(vals))

    @staticmethod
    def linear(p: float, count: int = DEFAULT_EPS_COUNT, min_eps: float | None = None) -> "EpsGrid":
        top = p - 1.0
        if top <= 0.0:
            raise ValueError("need p > 1")
        if min_eps is None:
            min_eps = top * DEFAULT_EPS_MIN_FRACTION
        vals = np.linspace(min_eps, top, count)
        vals[-1] = top
        return EpsGrid("linear", tuple(float(v) for v in vals))

    @staticmethod
    def explicit(values) -> "EpsGrid":
        return EpsGrid("explicit", tuple(float(v) for v in values))

    def validate_for(self, p: float) -> None:
        top = p - 1.0
        slack = 1e-12 * max(1.0, top)
        if self.values[-1] > top + slack:
            raise ValueError(f"epsilon grid exceeds p - 1 = {top}")
        if abs(self.values[-1] - top) > slack:
            raise ValueError(f"epsilon grid must end exactly at p - 1 = {top}")

    def with_extra(self, eps: float) -> "EpsGrid":
        """Union with one more epsilon value (used to make sup bounds exact)."""
        if any(abs(eps - v) <= 1e-15 for v in self.values):
            return self
        return EpsGrid("explicit", tuple(sorted(self.values + (float(eps),))))


@dataclass(frozen=True)
class GrandParams:
    """Parameters (p, theta, variant, grandizer, epsilon grid) of a grand norm."""

    p: float
    grandizer: Weight
    theta: float = 1.0
    variant: Variant = Variant.EXPONENT_OVER_P
    eps_grid: EpsGrid | None = None

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got p = {self.p}")
        if not self.theta > 0.0:
            raise ValueError(f"need theta > 0, got theta = {self.theta}")
        grid = self.eps_grid if self.eps_grid is not None else EpsGrid.geometric(self.p)
        grid.validate_for(self.p)
        object.__setattr__(self, "eps_grid", grid)

    def weight_power(self, eps: float) -> np.ndarray:
        a = self.grandizer.values
        return a ** (eps / self.p) if self.variant is Variant.EXPONENT_OVER_P else a**eps

    def prefactor(self, eps: float) -> float:
        if self.variant is Variant.EXPONENT_OVER_P:
            return eps**self.theta
        return eps ** (self.theta / (self.p - eps))

    def with_grandizer(self, w: Weight) -> "GrandParams":
        return replace(self, grandizer=w)

    def with_extra_eps(self, eps: float) -> "GrandParams":
        if not 0.0 < eps <= self.p - 1.0 + 1e-12:
            raise ValueError(f"epsilon {eps} outside (0, p - 1]")
        return replace(self, eps_grid=self.eps_grid.with_extra(min(eps, self.p - 1.0)))


@dataclass(frozen=True)
class NormReport:
    """Value and diagnostics of a sup-over-epsilon norm evaluation.

    ``curve`` rows are (eps, inner_lp_norm, weighted_term); the value equals
    the maximum weighted term over the curve and is attained at
    ``argmax_eps``.  Classical (single-exponent) norms report an empty curve.
    """

    value: float
    argmax_eps: float | None
    curve: tuple[tuple[float, float, float], ...]
    refined: bool
    p: float | None = None
    theta: float | None = None
    variant: str | None = None

    def summary(self) -> dict:
        return {
            "value": self.value,
            "argmax_eps": self.argmax_eps,
            "refined": self.refined,
            "p": self.p,
            "theta": self.theta,
            "variant": self.variant,
        }


def _golden_rows(fn, lo, hi, f_lo, f_hi, rel_tol: float = 1e-12, max_iter: int = 96):
    """Golden-section maximization of one function per row, each on its own [lo, hi].

    ``fn(rows, x)`` evaluates the functions of the rows selected by the
    sorted index array ``rows`` (``None``: every row) at the points ``x``, one
    per selected row; ``f_lo`` and ``f_hi`` are the values at the bracket
    ends.  A row drops out once its bracket has shrunk to ``rel_tol`` times
    max(|lo|, |hi|, 1) or after ``max_iter`` steps.  Returns the best
    (x, fn(x)) per row over every point evaluated, endpoints included, so the
    result never undercuts a bracketing grid value.
    """
    best_x, best_v = lo, f_lo
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(None, c), fn(None, d)
    for x, y in ((hi, f_hi), (c, yc), (d, yd)):
        up = y > best_v
        best_x, best_v = np.where(up, x, best_x), np.where(up, y, best_v)
    tol = rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    for _ in range(max_iter):
        running = h > tol
        count = np.count_nonzero(running)
        if count == 0:
            break
        # shrink toward the larger interior value; the kept interior point
        # becomes the other interior point of the new bracket
        left = yc > yd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        x = a + np.where(left, _INV_PHI2, _INV_PHI) * h
        c, d = np.where(left, x, d), np.where(left, c, x)
        if count == len(h):
            y = fn(None, x)
        else:  # converged rows are not evaluated again and keep their best
            rows = np.flatnonzero(running)
            y = np.full(len(h), -np.inf)
            y[rows] = fn(rows, x[rows])
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
        up = y > best_v
        best_x, best_v = np.where(up, x, best_x), np.where(up, y, best_v)
    return best_x, best_v


def golden_section_max(fn, lo: float, hi: float, rel_tol: float = 1e-12, max_iter: int = 96):
    """Golden-section maximization of a scalar function on [lo, hi].

    Returns the best (x, fn(x)) over every point evaluated, endpoints
    included, so the result never undercuts a bracketing grid value.
    """
    if hi <= lo:
        return lo, fn(lo)
    x, v = _golden_rows(
        lambda rows, xs: np.array([fn(float(xs[0]))]),
        np.array([float(lo)]),
        np.array([float(hi)]),
        np.array([fn(lo)], dtype=float),
        np.array([fn(hi)], dtype=float),
        rel_tol,
        max_iter,
    )
    return float(x[0]), float(v[0])


def _lp_rows(absw: np.ndarray, wrows: np.ndarray | None, p, cell_volume: float) -> np.ndarray:
    """Weighted L^p norms of the rows of a (windows, cells) block of |f| values.

    ``wrows`` holds the weight of every cell (``None`` means unweighted) and
    ``p`` is one exponent for all rows or one per row.  Each row is summed
    along its own cells, so no window's value depends on another's.
    """
    p = np.asarray(p, dtype=np.float64)
    t = absw ** (p if p.ndim == 0 else p[:, None])
    if wrows is not None:
        t *= wrows
    return (t.sum(axis=-1) * cell_volume) ** (1.0 / p)


def _one_window(values: np.ndarray) -> np.ndarray:
    """The whole grid as a (1, cells) block; a view, never a copy."""
    return values.reshape(1, -1)


def weighted_lp_norm(f: GridFunction, p: float, w: Weight | None = None) -> float:
    """(integral of |f|^p w)^(1/p); ``w=None`` means the unweighted norm."""
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got p = {p}")
    if w is not None:
        _check_same_domain(f, w, "weighted_lp_norm")
    wrows = None if w is None else _one_window(w.values)
    return float(_lp_rows(_one_window(np.abs(f.values)), wrows, p, f.domain.cell_volume)[0])


def _grand_inner(
    absw: np.ndarray, aw: np.ndarray, gp: GrandParams, eps, cell_volume: float
) -> np.ndarray:
    """Inner L^(p-eps) norms of the rows, weighted by a**(eps/p) or a**eps.

    ``eps`` is one value for all rows or one per row.
    """
    eps = np.asarray(eps, dtype=np.float64)
    col = eps if eps.ndim == 0 else eps[:, None]
    wexp = col / gp.p if gp.variant is Variant.EXPONENT_OVER_P else col
    return _lp_rows(absw, aw**wexp, gp.p - eps, cell_volume)


def _grand_scan(
    absw: np.ndarray, aw: np.ndarray, gp: GrandParams, cell_volume: float, refine: bool
):
    """Epsilon scan of every row of a (windows, cells) block at once.

    The grid stage makes one array pass per epsilon over all rows.  With
    ``refine``, each row's grid argmax is bracketed by its grid neighbours
    (at either end of the grid, the adjacent grid interval: geometric grids
    are coarse near p-1, where window-measure < 1 curves peak) and golden
    section runs on all brackets together.  Returns (value, argmax, inner,
    terms, probe): per-row values and maximizers, the (rows, grid) inner
    norms and weighted terms, and the golden-section best (x, term) per row,
    or ``None`` when no refinement ran.
    """
    eps_values = gp.eps_grid.values
    inner = np.stack([_grand_inner(absw, aw, gp, eps, cell_volume) for eps in eps_values], axis=1)
    terms = inner * np.array([gp.prefactor(eps) for eps in eps_values])
    grid = np.array(eps_values)
    k = np.argmax(terms, axis=1)  # first maximum: ties break toward the lowest eps
    rows = np.arange(len(terms))
    value, argmax = terms[rows, k], grid[k]
    if not refine or grid.size < 2:
        return value, argmax, inner, terms, None

    def term(sel: np.ndarray | None, eps: np.ndarray) -> np.ndarray:
        # while every row is still running, use the block itself: no copy
        blocks = (absw, aw) if sel is None else (absw[sel], aw[sel])
        return gp.prefactor(eps) * _grand_inner(*blocks, gp, eps, cell_volume)

    lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, grid.size - 1)
    probe = _golden_rows(term, grid[lo], grid[hi], terms[rows, lo], terms[rows, hi])
    better = probe[1] > value
    value, argmax = np.where(better, probe[1], value), np.where(better, probe[0], argmax)
    return value, argmax, inner, terms, probe


def _grand_report(
    absf: np.ndarray, avals: np.ndarray, gp: GrandParams, cell_volume: float, refine: bool
) -> NormReport:
    """One-window grand norm of ``absf`` with its curve, through the batched scan."""
    absw, aw = _one_window(absf), _one_window(avals)
    value, argmax, inner, terms, probe = _grand_scan(absw, aw, gp, cell_volume, refine)
    rows = list(zip(gp.eps_grid.values, inner[0].tolist(), terms[0].tolist()))
    if probe is not None:
        x, v = float(probe[0][0]), float(probe[1][0])
        if all(abs(x - r[0]) > 1e-15 for r in rows):
            rows.append((x, float(_grand_inner(absw, aw, gp, x, cell_volume)[0]), v))
            rows.sort(key=lambda r: r[0])
    return NormReport(
        value=float(value[0]),
        argmax_eps=float(argmax[0]),
        curve=tuple(rows),
        refined=probe is not None,
        p=gp.p,
        theta=gp.theta,
        variant=gp.variant.value,
    )


def grand_norm(f: GridFunction, gp: GrandParams, refine: bool = True) -> NormReport:
    """Grand norm of ``f``: sup over the epsilon grid, optionally refined.

    Refinement never decreases the value: the golden-section pass only
    replaces the grid maximum when it finds a larger term.
    """
    _check_same_domain(f, gp.grandizer, "grand_norm")
    return _grand_report(np.abs(f.values), gp.grandizer.values, gp, f.domain.cell_volume, refine)


def grand_norm_curve(f: GridFunction, gp: GrandParams) -> list[tuple[float, float]]:
    """The full (eps, weighted term) curve, without the max reduction."""
    report = _grand_report(
        np.abs(f.values), gp.grandizer.values, gp, f.domain.cell_volume, refine=False
    )
    return [(eps, term) for eps, _, term in report.curve]


def holder_grandizer_bound(f: GridFunction, gp: GrandParams, tol: float = 1e-10) -> CheckResult:
    """Check the Hölder control of every inner norm through the grandizer mass.

    For the ``EXPONENT_OVER_P`` weighting, every inner L^(p-eps) norm is
    bounded by  ||f||_p * mass(a)^(eps / (p (p - eps)))  where mass(a) is
    the Riemann sum of the grandizer.  Margins are relative to the bound.
    """
    if gp.variant is not Variant.EXPONENT_OVER_P:
        raise ValueError("the grandizer bound applies to the EXPONENT_OVER_P weighting")
    _check_same_domain(f, gp.grandizer, "holder_grandizer_bound")
    p = gp.p
    vol = f.domain.cell_volume
    absw, aw = _one_window(np.abs(f.values)), _one_window(gp.grandizer.values)
    mass = float(np.sum(gp.grandizer.values) * vol)
    f_lp = float(_lp_rows(absw, None, p, vol)[0])
    rows = []
    worst = None
    ratio_max = 0.0
    for eps in gp.eps_grid.values:
        lhs = float(_grand_inner(absw, aw, gp, eps, vol)[0])
        rhs = f_lp * mass ** (eps / (p * (p - eps)))
        margin = (rhs - lhs) / max(rhs, 1e-300)
        rows.append({"case": f"eps={eps:.6g}", "inner_norm": lhs, "bound": rhs, "margin": margin})
        if rhs > 0:
            ratio_max = max(ratio_max, lhs / rhs)
        if worst is None or margin < worst[1]:
            worst = (f"eps={eps:.6g}", margin)
    verdict = Verdict.PASS if worst is None or worst[1] >= -tol else Verdict.FAIL
    return CheckResult(
        name="holder_grandizer_bound",
        verdict=verdict,
        worst_case=worst,
        estimated_constant=ratio_max,
        details=tuple(rows),
        tolerance=tol,
        notes={"l1_mass": mass, "p": p, "theta": gp.theta},
    )


def sup_eps_factor(mass: float, p: float, theta: float = 1.0) -> float:
    """sup over eps in (0, p-1] of eps**theta * mass**(eps / (p (p - eps))).

    This is the exact constant produced by the Hölder step above, maximized
    in closed form: the stationary points of the log solve the quadratic
    theta*eps^2 + (ln mass - 2 p theta) eps + theta p^2 = 0.
    """
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    top = p - 1.0
    if top <= 0.0:
        raise ValueError("need p > 1")

    def g(eps: float) -> float:
        return eps**theta * mass ** (eps / (p * (p - eps)))

    best = g(top)
    ln_mass = math.log(mass)
    if ln_mass < 0.0:
        disc = (ln_mass - 2.0 * p * theta) ** 2 - 4.0 * theta**2 * p**2
        if disc >= 0.0:
            root = math.sqrt(disc)
            for eps in ((2.0 * p * theta - ln_mass - root) / (2.0 * theta),
                        (2.0 * p * theta - ln_mass + root) / (2.0 * theta)):
                if 0.0 < eps < top:
                    best = max(best, g(eps))
    return best


def compare_variants(f: GridFunction, gp: GrandParams) -> dict:
    """Evaluate both inner weightings on ``f`` and report their ratio.

    The two norms are equivalent with constants the underlying theory does
    not specify; this only reports the observed ratio and the band
    K = max(ratio, 1/ratio).
    """
    over = grand_norm(f, replace(gp, variant=Variant.EXPONENT_OVER_P))
    full = grand_norm(f, replace(gp, variant=Variant.EXPONENT_FULL))
    ratio = over.value / full.value if full.value > 0 else float("inf")
    band = max(ratio, 1.0 / ratio) if 0 < ratio < float("inf") else float("inf")
    return {
        "value_over_p": over.value,
        "value_full": full.value,
        "ratio": ratio,
        "band": band,
    }


def write_norm_csv(report: NormReport, path: str | Path) -> None:
    write_csv(path, ["eps", "inner_norm", "weighted_term"], report.curve)
