"""Weighted Lebesgue norms and grand norms with the epsilon-sup optimizer.

A grand norm is a supremum over epsilon in (0, p-1] of epsilon-weighted
L^(p-eps) norms.  With m = max|f| and g = |f| / m, each inner sum is
m^(p-eps) sum exp(A + eps B), where A = p ln g and B = ln a / p - ln g
(ln a - ln g for ``EXPONENT_FULL``) are set up once per scan: one exp per
cell, and no size of |f| overflows or underflows the sums.  The sup is
taken on an epsilon grid (geometric by default, so eps -> 0 is resolved),
several epsilons per array pass, then optionally refined by safeguarded
Newton steps on ln(term).  Both run on a (windows, cells) block, all rows
at once; a whole function is the one-row case (a view, not a copy).
Two inner weightings are supported:

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
    "sup_eps_factor",
    "write_norm_csv",
]

_GRID_BLOCK_CELLS = 1 << 16  # cells of one (rows, eps, cells) block of the grid stage
_REL_TOL = 1e-12  # refinement stops at this fraction of max(bracket end, 1)
_MAX_ITER = 96  # refinement passes per row at most

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


def _lp_rows(absw: np.ndarray, wrows: np.ndarray | None, p, cell_volume: float) -> np.ndarray:
    """Weighted L^p norms of the rows of a (windows, cells) block of |f| values.

    ``wrows`` holds the weight of every cell (``None`` means unweighted).
    Rows are scaled by their max, so no power leaves float range, and each is
    summed along its own cells, so no window's value depends on another's.
    """
    m = absw.max(axis=-1, keepdims=True)
    t = np.divide(absw, m, out=np.zeros(absw.shape), where=m > 0)
    t **= p
    if wrows is not None:
        t *= wrows
    return m[:, 0] * (t.sum(axis=-1) * cell_volume) ** (1.0 / p)


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


def _log_form(absw: np.ndarray, aw: np.ndarray, gp: GrandParams):
    """(m, A, B) of a (rows, cells) block; m is the row max of |f| over live cells.

    ln g is ln|f| - ln m, which no span of |f| can underflow.  Dead cells
    (f = 0 or a = 0, as in a window's zero padding) get A = -inf and B = 0.
    """
    live = (absw > 0) & (aw > 0)
    m = np.max(absw, axis=1, initial=0.0, where=live)
    lnm = np.log(m, out=np.zeros(m.shape), where=m > 0)
    lng = np.log(absw, out=np.zeros(absw.shape), where=live)
    np.subtract(lng, lnm[:, None], out=lng, where=live)
    b = np.log(aw, out=np.zeros(absw.shape), where=live)
    if gp.variant is Variant.EXPONENT_OVER_P:
        b /= gp.p
    b -= lng
    a = np.multiply(lng, gp.p, out=lng)
    np.copyto(a, -np.inf, where=~live)
    return m, a, b


def _grid_sums(a: np.ndarray, b: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """sum exp(A + eps B) of every row at every epsilon, as a (rows, eps) array."""
    t = b[:, None, :] * eps[:, None]
    t += a[:, None, :]
    return np.exp(t, out=t).sum(axis=-1)


def _moments(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """sum E, sum B E and sum B^2 E of every row, E = exp(A + x B), one x per row."""
    e = b * x[:, None]
    e += a
    s0 = np.exp(e, out=e).sum(axis=-1)
    e *= b
    s1 = e.sum(axis=-1)
    e *= b
    return s0, s1, e.sum(axis=-1)


def _newton_rows(a, b, m, gp: GrandParams, cell_volume: float, grid, k, value, inner):
    """Refine each row's grid argmax by safeguarded Newton steps on phi = ln(term).

    phi' and phi'' come from S_j = sum B^j exp(A + eps B), j = 0, 1, 2, of
    one pass.  The first pass, at the argmax, keeps the half of its grid
    neighbourhood that phi' points into.  Where phi' points out of the grid
    at an end, the row instead restarts from the far end of the grid
    interval at that end and goes on only if its Newton step stays inside
    (an interior maximum beside an end one).  Steps outside the bracket or with
    phi'' >= 0 bisect.  A row stops when its step or bracket is within
    _REL_TOL * max(bracket end, 1), or after _MAX_ITER passes.  Returns the
    best (eps, term, inner norm) per row, replaced only on strict increase.
    """
    p, h, last = gp.p, cell_volume, grid.size - 1
    t_out, t_in = (gp.theta, 0.0) if gp.variant is Variant.EXPONENT_OVER_P else (0.0, gp.theta)
    x = grid[k]
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, last)]
    tol = _REL_TOL * np.maximum(hi, 1.0)
    best_x, best_v, best_in = x.copy(), value.copy(), inner.copy()
    restarted = np.zeros(x.size, dtype=bool)
    running = value > 0  # a zero row has no logarithm; its value stays 0
    for it in range(_MAX_ITER):
        sel = np.flatnonzero(running)
        if sel.size == 0:
            break
        xs = x[sel]
        # while every row is still running, use the block itself: no copy
        s0, s1, s2 = _moments(a, b, xs) if sel.size == x.size else _moments(a[sel], b[sel], xs)
        r = 1.0 / (p - xs)
        inner_s = m[sel] * (s0 * h) ** r
        if it:  # the first pass is at the grid argmax, already counted
            v = gp.prefactor(xs) * inner_s
            up = v > best_v[sel]
            won = sel[up]
            best_x[won], best_v[won], best_in[won] = xs[up], v[up], inner_s[up]
        live = s0 > 0  # an underflowed sum has no logarithm: its row stops
        if not live.all():
            running[sel[~live]] = False
            sel, xs, r, s0, s1, s2 = (arr[live] for arr in (sel, xs, r, s0, s1, s2))
        mu = s1 / s0
        ix = 1.0 / xs
        u = t_in * ix + mu + r * (t_in * np.log(xs) + np.log(s0 * h))
        d1 = t_out * ix + r * u
        d2 = r * (s2 / s0 - mu * mu - t_in * ix * ix + 2.0 * r * u) - t_out * ix * ix
        lo_s = np.where(d1 >= 0.0, xs, lo[sel])
        hi_s = np.where(d1 <= 0.0, xs, hi[sel])
        newton = d2 < 0.0
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=newton)
        nxt = xs - step
        inside = newton & (nxt > lo_s) & (nxt < hi_s)
        nxt = np.where(inside, nxt, 0.5 * (lo_s + hi_s))
        t = tol[sel]
        done = newton & (np.abs(step) <= t)  # even a step that rounds onto x itself
        if it == 0:
            ks = k[sel]
            end = ((ks == last) & (d1 >= 0.0)) | ((ks == 0) & (d1 <= 0.0))
            restarted[sel] = end
            done &= ~end
            lo_s, hi_s = np.where(end, lo[sel], lo_s), np.where(end, hi[sel], hi_s)
            nxt = np.where(end, np.where(ks == last, lo_s, hi_s), nxt)
        lo[sel], hi[sel], x[sel] = lo_s, hi_s, nxt
        go = ~done & (hi_s - lo_s > t) & (np.abs(nxt - xs) > t)
        if it == 1:
            go &= inside | ~restarted[sel]
        running[sel] = go
    return best_x, best_v, best_in


def _grand_scan(
    absw: np.ndarray, aw: np.ndarray, gp: GrandParams, cell_volume: float, refine: bool
):
    """Epsilon scan of every row of a (windows, cells) block at once.

    The grid stage takes as many epsilons per array pass as fit in
    ``_GRID_BLOCK_CELLS`` cells (at least one); ``refine`` adds
    :func:`_newton_rows` within the argmax's grid neighbours.  Returns
    (value, argmax, inner, terms, peak): per-row values and maximizers, the
    (rows, grid) inner norms and terms, and the inner norm at each maximizer.
    """
    m, a, b = _log_form(absw, aw, gp)
    grid = np.array(gp.eps_grid.values)
    n = max(1, _GRID_BLOCK_CELLS // a.size)  # epsilons per pass
    sums = np.hstack([_grid_sums(a, b, grid[i : i + n]) for i in range(0, grid.size, n)])
    inner = m[:, None] * (sums * cell_volume) ** (1.0 / (gp.p - grid))
    terms = inner * gp.prefactor(grid)
    k = np.argmax(terms, axis=1)  # first maximum: ties break toward the lowest eps
    rows = np.arange(len(terms))
    value, argmax, peak = terms[rows, k], grid[k], inner[rows, k]
    if refine and grid.size > 1:
        argmax, value, peak = _newton_rows(a, b, m, gp, cell_volume, grid, k, value, peak)
    return value, argmax, inner, terms, peak


def _grand_report(
    absf: np.ndarray, avals: np.ndarray, gp: GrandParams, cell_volume: float, refine: bool
) -> NormReport:
    """One-window grand norm of ``absf`` with its curve, through the batched scan."""
    value, argmax, inner, terms, peak = _grand_scan(
        _one_window(absf), _one_window(avals), gp, cell_volume, refine
    )
    rows = list(zip(gp.eps_grid.values, inner[0].tolist(), terms[0].tolist()))
    x = float(argmax[0])
    if all(abs(x - r[0]) > 1e-15 for r in rows):
        rows = sorted(rows + [(x, float(peak[0]), float(value[0]))])
    return NormReport(
        value=float(value[0]),
        argmax_eps=x,
        curve=tuple(rows),
        refined=refine and gp.eps_grid.count > 1,
        p=gp.p,
        theta=gp.theta,
        variant=gp.variant.value,
    )


def grand_norm(f: GridFunction, gp: GrandParams, refine: bool = True) -> NormReport:
    """Grand norm of ``f``: sup over the epsilon grid, optionally refined.

    Refinement never decreases the value: the Newton steps from the grid
    argmax only replace the grid maximum when they find a larger term.
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
    inner = _grand_scan(absw, aw, gp, vol, refine=False)[2][0].tolist()
    rows = []
    worst = None
    ratio_max = 0.0
    for eps, lhs in zip(gp.eps_grid.values, inner):
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
