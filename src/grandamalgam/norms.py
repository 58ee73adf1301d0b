"""Weighted Lebesgue norms and grand norms with the epsilon-sup optimizer.

A grand norm is a supremum over epsilon in (0, p-1] of epsilon-weighted
L^(p-eps) norms.  With m = max|f| and g = |f| / m, every inner sum is
m^(p-eps) sum exp(A + eps B), A = p ln g, B = ln a / p - ln g (ln a - ln g
for ``EXPONENT_FULL``), summed as a log-sum-exp shifted by its row max: no
|f| or grandizer overflows or underflows it.  The log form takes the samples
themselves, real or complex, keeps ln m per row, and builds A and B per cell
chunk when a pass asks for them.  A row of at most ``gridfn._GRID_BLOCK_CELLS``
cells is one chunk, built once, so a norm holds its A and B above its inputs;
a longer row is built and summed chunk by chunk in cache-sized buffers and the
chunks are merged, so a norm holds no array the size of the row.  An inner
norm past float range is an error, not inf.  A classical L^q(w) norm is
the ``EXPONENT_FULL`` inner norm at p = q + 1, eps = 1.  The sup is taken
on an epsilon grid (geometric by default, so eps -> 0 is resolved), then
refined by safeguarded Newton steps on ln(term), for all rows of a
(windows, cells) block at once; a function is the one-row case.
Two inner weightings are supported:

* ``EXPONENT_OVER_P``: weight a**(eps/p), outer factor eps**theta;
* ``EXPONENT_FULL``:   weight a**eps, outer factor eps**(theta/(p-eps)).

The two define equivalent norms, with constants the underlying theory does
not specify.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import gridfn
from .gridfn import GridFunction, Weight, _check_same_domain
from .reporting import write_csv

__all__ = [
    "Variant",
    "EpsGrid",
    "GrandParams",
    "ClassicalSpace",
    "NormReport",
    "weighted_lp_norm",
    "grand_norm",
    "sup_eps_factor",
    "write_norm_csv",
]

_REL_TOL = 1e-12  # refinement stops at this fraction of max(bracket end, 1)
_MAX_ITER = 96  # refinement passes per row at most
_LN_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # the largest x whose exp is a finite float64

DEFAULT_EPS_COUNT = 33
DEFAULT_EPS_MIN_FRACTION = 1e-4


class Variant(Enum):
    """Inner weighting convention of the grand norm."""

    EXPONENT_OVER_P = "over_p"
    EXPONENT_FULL = "full"


# One check per parameter rule.  A message names no argument, so that a caller can.


def _grand_exponent(p: float) -> float:
    """``p``, checked as a grand exponent: p > 1, with p - 1 exact."""
    if not p > 1.0:
        raise ValueError(f"need an exponent > 1, got {p}")
    if p - (p - 1.0) != 1.0:  # above 2**53 the grid's last eps leaves p - eps off 1
        raise ValueError(f"{p} - 1 is not exact in float64; need at most 2**53")
    return p


def _check_theta(theta: float) -> None:
    if not theta > 0.0:
        raise ValueError(f"need a power of epsilon > 0, got {theta}")


def _check_eps(eps: float, p: float) -> None:
    if not 0.0 < eps <= p - 1.0 + 1e-12:
        raise ValueError(f"need an epsilon in (0, {p - 1.0}], got {eps}")


@dataclass(frozen=True)
class EpsGrid:
    """Strictly increasing epsilon values in (0, p-1], ending exactly at p-1."""

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

    @staticmethod
    def _span(p: float, count: int, min_eps: float | None) -> tuple[float, float]:
        """Checked (min_eps, p - 1) of a generated grid of ``count`` points: one check,
        so every generator gives the same errors."""
        top = _grand_exponent(p) - 1.0
        if count < 2:
            raise ValueError("need at least two grid points")
        if min_eps is None:
            min_eps = top * DEFAULT_EPS_MIN_FRACTION
        if not 0.0 < min_eps < top:
            raise ValueError(f"need a smallest epsilon in (0, {top}), got {min_eps}")
        return min_eps, top

    @staticmethod
    def geometric(p: float, count: int = DEFAULT_EPS_COUNT, min_eps: float | None = None) -> "EpsGrid":
        min_eps, top = EpsGrid._span(p, count, min_eps)
        ratio = (min_eps / top) ** (1.0 / (count - 1))
        vals = [top * ratio ** (count - 1 - k) for k in range(count - 1)] + [top]
        return EpsGrid(tuple(vals))

    @staticmethod
    def linear(p: float, count: int = DEFAULT_EPS_COUNT, min_eps: float | None = None) -> "EpsGrid":
        min_eps, top = EpsGrid._span(p, count, min_eps)
        vals = np.linspace(min_eps, top, count)
        vals[-1] = top
        return EpsGrid(tuple(vals))


@dataclass(frozen=True)
class ClassicalSpace:
    """Weighted L^p local/global stage; ``weight=None`` means unweighted."""

    p: float
    weight: Weight | None = None

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"need an exponent >= 1, got {self.p}")


@dataclass(frozen=True)
class GrandParams:
    """Parameters (p, theta, variant, grandizer, epsilon grid) of a grand norm."""

    p: float
    grandizer: Weight
    theta: float = 1.0
    variant: Variant = Variant.EXPONENT_OVER_P
    eps_grid: EpsGrid | None = None

    def __post_init__(self):
        top = _grand_exponent(self.p) - 1.0
        _check_theta(self.theta)
        grid = self.eps_grid if self.eps_grid is not None else EpsGrid.geometric(self.p)
        if abs(grid.values[-1] - top) > 1e-12 * max(1.0, top):
            raise ValueError(f"need an epsilon grid that ends at {top}, got {grid.values[-1]}")
        object.__setattr__(self, "eps_grid", grid)

    def weight_power(self, eps: float) -> np.ndarray:
        a = self.grandizer.values
        return a ** (eps / self.p) if self.variant is Variant.EXPONENT_OVER_P else a**eps

    def prefactor(self, eps: float) -> float:
        if self.variant is Variant.EXPONENT_OVER_P:
            return eps**self.theta
        return eps ** (self.theta / (self.p - eps))

    def ln_prefactor(self, eps: np.ndarray) -> np.ndarray:
        t = self.theta if self.variant is Variant.EXPONENT_OVER_P else self.theta / (self.p - eps)
        return t * np.log(eps)

    def with_extra_eps(self, eps: float) -> "GrandParams":
        """The same norm with ``eps`` on its grid (used to make sup bounds exact); a value
        within 1e-15 of a grid point is already on it."""
        _check_eps(eps, self.p)
        eps, vals = min(eps, self.p - 1.0), self.eps_grid.values
        if any(abs(eps - v) <= 1e-15 for v in vals):
            return self
        return replace(self, eps_grid=EpsGrid(tuple(sorted(vals + (float(eps),)))))


@dataclass(frozen=True)
class NormReport:
    """Value and diagnostics of a sup-over-epsilon norm evaluation.

    ``curve`` rows are (eps, inner_lp_norm, weighted_term); the value equals
    the maximum weighted term over the curve and is attained at
    ``argmax_eps``.  Classical (single-exponent) norms report an empty curve.
    A grand curve is a sequence that makes its rows when read.
    """

    value: float
    argmax_eps: float | None
    curve: Sequence[tuple[float, float, float]]
    p: float | None = None
    theta: float | None = None
    variant: str | None = None

    def summary(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "curve"}


def _one_window(values: np.ndarray) -> np.ndarray:
    """The whole grid as a (1, cells) block; a view, never a copy."""
    return values.reshape(1, -1)


class _LogForm:
    """The log form (ln m, A, B) of a (rows, cells) block of samples f, real or complex, built
    chunk by chunk: A = p ln g, B = ln(a) / root - ln g.

    a is the grandizer or weight (``None``: 1), m the row max of |f|, and ln g = ln|f| - ln m.
    The form keeps ln m, found by one abs-max walk over the cell chunks (:func:`_cell_chunks`),
    and builds a chunk's A and B from the samples and the weight when it is asked for them,
    so no array the size of the block is held.  A block of one chunk is built once, when the
    form is made.  ``samples`` is never written.  A weight is strictly positive and
    zero-padded where f is, so the live cells are those with |f| > 0.  Dead cells get
    A = -inf, B = 0; a row with no live cell gets ln m = -inf, A = B = 0.
    """

    def __init__(self, samples: np.ndarray, p: float, aw=None, root: float = 1.0):
        self._samples, self._aw, self._p, self._root = samples, aw, p, root
        self._rows = slice(None)  # the rows of the block that the form is of
        self.chunks = _cell_chunks(samples.shape[1])
        one = len(self.chunks) == 1
        absf = np.abs(samples) if one else None
        m = absf.max(axis=1, initial=0.0) if one else functools.reduce(
            np.maximum, [np.abs(samples[:, cut]).max(axis=1, initial=0.0) for cut in self.chunks])
        self.lnm = np.log(m, out=np.full(m.shape, -np.inf), where=m > 0)
        self._whole = self._build(absf, aw) if one else None  # (A, B) of a block of one chunk

    def select(self, rows: np.ndarray) -> "_LogForm":
        """The form of the rows ``rows`` of the block alone."""
        sub = object.__new__(_LogForm)
        vars(sub).update(vars(self))
        sub.lnm = self.lnm[rows]
        if self._whole is None:
            sub._rows = rows
        else:
            sub._whole = tuple(t[rows] for t in self._whole)
        return sub

    def chunk(self, cut: slice) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the cells ``cut`` of every row of the form."""
        if self._whole is not None:
            return self._whole
        at = (self._rows, cut)
        return self._build(np.abs(self._samples[at]), None if self._aw is None else self._aw[at])

    def _build(self, lng: np.ndarray, aw) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of a chunk from its |f|, whose array becomes ln g and then A."""
        live = lng > 0
        np.log(lng, out=lng, where=live)
        np.subtract(lng, self.lnm[:, None], out=lng, where=live)
        b = np.zeros(lng.shape) if aw is None else np.log(aw, out=np.zeros(lng.shape), where=live)
        b /= self._root
        b -= lng
        a = np.multiply(lng, self._p, out=lng)
        dead = np.logical_not(live, out=live)
        dead &= (self.lnm > -np.inf)[:, None]
        np.copyto(a, -np.inf, where=dead)
        return a, b


def _grand_form(samples: np.ndarray, aw: np.ndarray, gp: GrandParams) -> _LogForm:
    """Log form of a grand stage: weight a**(eps/p), or a**eps for ``EXPONENT_FULL``."""
    return _LogForm(samples, gp.p, aw, gp.p if gp.variant is Variant.EXPONENT_OVER_P else 1.0)


def _shifted_sums(t: np.ndarray, axis: int):
    """(c, sum exp(t - c)) along ``axis``, c the max there: ln sum exp(t) = c + ln of a sum
    of at least 1, for any ``t`` with a finite entry on each line.  A line of -inf (a chunk of
    dead cells) gets the most negative float as c and a sum of 0.  ``t`` becomes exp(t - c)."""
    c = t.max(axis=axis, keepdims=True, initial=np.finfo(np.float64).min)
    t -= c
    return c.squeeze(axis), np.exp(t, out=t).sum(axis=axis)


def _cell_chunks(cells: int) -> list[slice]:
    """The cells of a row in chunks of at most ``_GRID_BLOCK_CELLS``: one chunk if it fits."""
    width = min(cells, gridfn._GRID_BLOCK_CELLS)
    return [slice(j, min(j + width, cells)) for j in range(0, cells, width)]


def _inner_norms(form: _LogForm, p: float, eps: np.ndarray, cell_volume: float) -> np.ndarray:
    """(rows, eps) inner norms exp(ln m + (ln S + ln h) / (p - eps)).

    A row walks its cells in chunks (:func:`_cell_chunks`), each built by the form once, one
    preallocated buffer for every chunk and eps.  A pass takes as many epsilons as fit
    ``_GRID_BLOCK_CELLS`` cells, cells first, so a chunk's max c_k and sum s_k reduce over the
    leading axis in cell order (pairwise for a lone row and eps).  The chunks merge as an
    online log-sum-exp (Milakov and Gimelshein 2018): C = max c_k, S = sum s_k exp(c_k - C),
    in chunk order.  A row that fits is one chunk, whose merge is exact (C = c_0, weight 1),
    so S is its one sum.  So a row summed alone at one eps (as a classical row always is) may
    differ by a few ulp from that row summed in a block of several, and a long row from the
    same row in one chunk; otherwise no row depends on the block.
    """
    rows, chunks = form.lnm.size, form.chunks
    width = chunks[0].stop
    n = min(eps.size, max(1, gridfn._GRID_BLOCK_CELLS // (rows * width)))
    buf = np.empty(width * n * rows)
    c = np.empty((len(chunks), eps.size, rows))
    s = np.empty_like(c)
    for k, cut in enumerate(chunks):
        a, b = form.chunk(cut)
        at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        for i in range(0, eps.size, n):
            e = eps[i : i + n]
            t = buf[: (cut.stop - cut.start) * e.size * rows].reshape(-1, e.size, rows)
            np.multiply(bt[:, None, :], e[:, None], out=t)
            t += at[:, None, :]
            c[k, i : i + n], s[k, i : i + n] = _shifted_sums(t, 0)
    # The merge and the root work in place: a block of many short rows keeps
    # no (eps, rows) temporary beyond C and the chunk arrays.
    top = c.max(axis=0)
    np.exp(np.subtract(c, top, out=c), out=c)
    lns = np.multiply(s, c, out=s).sum(axis=0, out=c[0])
    np.log(lns, out=lns)
    lns += top
    lns += math.log(cell_volume)
    lns /= (p - eps)[:, None]
    lns += form.lnm
    return _exp_norms(lns).T


def _exp_norms(ln_norms: np.ndarray) -> np.ndarray:
    """exp of the logs of norms, in place; a norm beyond float range is an error, not inf."""
    top = ln_norms.max(initial=-np.inf)
    if top > _LN_FLOAT_MAX:
        raise ValueError(
            f"the norm exceeds float range: its logarithm is {top:.6g} > {_LN_FLOAT_MAX:.6g}"
        )
    return np.exp(ln_norms, out=ln_norms)


def _classical_rows(samples: np.ndarray, wrows, q: float, cell_volume: float) -> np.ndarray:
    """Weighted L^q norms of the rows (``wrows=None``: unweighted): L^q(w) is the
    full-weighting member L^(p-eps)(w^eps) at p = q + 1, eps = 1."""
    return _inner_norms(_LogForm(samples, q + 1.0, wrows), q + 1.0, np.ones(1), cell_volume)[:, 0]


def weighted_lp_norm(f: GridFunction, p: float, w: Weight | None = None) -> float:
    """(integral of |f|^p w)^(1/p); ``w=None`` means the unweighted norm."""
    ClassicalSpace(p, w)
    if w is not None:
        _check_same_domain(f, w, "weighted_lp_norm")
    wrows = None if w is None else _one_window(w.values)
    return float(_classical_rows(_one_window(f.values), wrows, p, f.domain.cell_volume)[0])


def _moments(form: _LogForm, x: np.ndarray):
    """ln S_0, S_1 / S_0, S_2 / S_0 per row, S_j = sum B^j exp(A + x B), one x per row.

    Rows stay rows: each sums its own cells, whatever else is in the block.  A row takes two
    walks over its chunks (:func:`_cell_chunks`) in one buffer, and the form builds each chunk
    again for each walk (a block of one chunk is built already): the first finds the row max
    C, the second sums each chunk's B^j exp(A + x B - C) pairwise, and the chunk sums are
    summed pairwise.  A row that fits is one chunk, so its sums are plain pairwise sums.
    (Merging each chunk's own shift instead would round B^2 exp(t - C) differently from the
    one-chunk sum, so one-cell chunks would not reproduce it.)
    """
    rows, chunks = x.size, form.chunks
    buf = np.empty(rows * chunks[0].stop)
    x = x[:, None]

    def exponents(cut: slice) -> tuple[np.ndarray, np.ndarray]:
        a, b = form.chunk(cut)
        e = buf[: rows * (cut.stop - cut.start)].reshape(rows, -1)
        np.multiply(b, x, out=e)
        e += a
        return e, b

    c = functools.reduce(np.maximum, [exponents(cut)[0].max(axis=-1, keepdims=True) for cut in chunks])
    sums = np.empty((3, rows, len(chunks)))
    for k, cut in enumerate(chunks):
        e, b = exponents(cut)
        e -= c
        np.exp(e, out=e)
        for j in range(3):
            if j:
                e *= b
            e.sum(axis=-1, out=sums[j, :, k])
    s0, s1, s2 = sums.sum(axis=-1)
    return c[:, 0] + np.log(s0), s1 / s0, s2 / s0


def _newton_rows(form: _LogForm, gp: GrandParams, cell_volume: float, grid, k, value, inner):
    """Refine each row's grid argmax by safeguarded Newton steps on phi = ln(term).

    phi' and phi'' come from one :func:`_moments` pass.  The first pass, at
    the argmax, keeps the half of its grid neighbourhood that phi' points into.  Where phi' points out of the grid
    at an end, the row instead restarts from the far end of the grid
    interval at that end and goes on only if its Newton step stays inside
    (an interior maximum beside an end one).  Steps outside the bracket or with
    phi'' >= 0 bisect.  A row stops when its step or bracket is within
    _REL_TOL * max(bracket end, 1), or after _MAX_ITER passes.  Returns the
    best (eps, term, inner norm) per row, replaced only on strict increase.
    """
    p, lnh, last = gp.p, math.log(cell_volume), grid.size - 1
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
        rows = form if sel.size == x.size else form.select(sel)
        lns, mu, m2 = _moments(rows, xs)
        lns += lnh
        r = 1.0 / (p - xs)
        if it:  # the first pass is at the grid argmax, already counted
            ln_inner = rows.lnm + r * lns
            _exp_norms(ln_inner + gp.ln_prefactor(xs))  # as in _grand_scan
            inner_s = _exp_norms(ln_inner)
            v = _terms(gp, xs, inner_s)
            up = v > best_v[sel]
            won = sel[up]
            best_x[won], best_v[won], best_in[won] = xs[up], v[up], inner_s[up]
        ix = 1.0 / xs
        u = t_in * ix + mu + r * (t_in * np.log(xs) + lns)
        d1 = t_out * ix + r * u
        d2 = r * (m2 - mu * mu - t_in * ix * ix + 2.0 * r * u) - t_out * ix * ix
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


def _terms(gp: GrandParams, eps: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The weighted terms prefactor(eps) * inner, ``inner`` broadcast against ``eps``.

    A prefactor past float range (eps**theta with eps > 1 and a large theta) would make an
    inf of a finite term: where its logarithm passes ``_LN_FLOAT_MAX``, the term is
    exp(ln prefactor + ln inner) instead, which the callers have checked is in range.  In
    either variant the largest prefactor on (0, p - 1] is (p - 1)**theta, at eps = p - 1.
    """
    if gp.theta * math.log(gp.p - 1.0) <= _LN_FLOAT_MAX:
        return inner * gp.prefactor(eps)
    ln_pre = gp.ln_prefactor(eps)
    big = ln_pre > _LN_FLOAT_MAX
    terms = inner * gp.prefactor(np.where(big, 1.0, eps))
    ln_inner = np.log(inner, out=np.full(inner.shape, -np.inf), where=inner > 0)
    return np.exp(ln_inner + ln_pre, out=terms, where=big)


def _grand_scan(samples: np.ndarray, aw: np.ndarray, gp: GrandParams, cell_volume: float):
    """Epsilon scan of every row of a (windows, cells) block at once.

    The grid stage is :func:`_inner_norms` over the epsilon grid; a grid of
    more than one point is refined by :func:`_newton_rows` within the
    argmax's grid neighbours.  Returns (value, argmax, inner, terms, peak):
    per-row values and maximizers, the (rows, grid) inner norms and terms,
    and the inner norm at each maximizer.
    """
    form = _grand_form(samples, aw, gp)
    grid = np.array(gp.eps_grid.values)
    inner = _inner_norms(form, gp.p, grid, cell_volume)
    # each eps's largest term, checked on its log before the product
    _exp_norms(np.log(inner.max(axis=0, initial=np.finfo(float).tiny)) + gp.ln_prefactor(grid))
    terms = _terms(gp, grid, inner)
    k = np.argmax(terms, axis=1)  # first maximum: ties break toward the lowest eps
    rows = np.arange(len(terms))
    value, argmax, peak = terms[rows, k], grid[k], inner[rows, k]
    if grid.size > 1:
        argmax, value, peak = _newton_rows(form, gp, cell_volume, grid, k, value, peak)
    return value, argmax, inner, terms, peak


def _grand_report(
    samples: np.ndarray, aw: np.ndarray, gp: GrandParams, cell_volume: float
) -> list[NormReport]:
    """Grand norm of every row of a (rows, cells) block with its curve, from one batched scan."""
    value, argmax, inner, terms, peak = _grand_scan(samples, aw, gp, cell_volume)
    return [
        NormReport(v, x, _Curve(gp.eps_grid.values, row_inner, row_terms, (x, pk, v)),
                   gp.p, gp.theta, gp.variant.value)
        for v, x, pk, row_inner, row_terms in zip(
            value.tolist(), argmax.tolist(), peak.tolist(), inner, terms
        )
    ]


class _Curve(Sequence):
    """The (eps, inner norm, weighted term) rows of one grand report, made when read.

    The reports of a stack keep views of their scan's arrays: rows of Python
    floats would cost about 4 KB per report, for reports whose callers mostly
    read only the value.  The maximizer has a row of its own when it is not a
    grid point.
    """

    def __init__(self, eps: tuple, inner: np.ndarray, terms: np.ndarray, top: tuple):
        self._parts = (eps, inner, terms, top)

    def _rows(self) -> tuple:
        eps, inner, terms, top = self._parts
        rows = list(zip(eps, inner.tolist(), terms.tolist()))
        if all(abs(top[0] - r[0]) > 1e-15 for r in rows):
            rows = sorted(rows + [top])
        return tuple(rows)

    def __getitem__(self, i):
        return self._rows()[i]

    def __len__(self) -> int:
        return len(self._rows())

    def __iter__(self):
        return iter(self._rows())

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self._rows() == tuple(other)

    def __hash__(self) -> int:
        return hash(self._rows())


def grand_norm(f: GridFunction, gp: GrandParams) -> NormReport:
    """Grand norm of ``f``: sup over the epsilon grid, refined between grid points.

    The samples of ``f`` go to the log form as they are, real or complex.  On a grid of at
    most ``gridfn._GRID_BLOCK_CELLS`` cells the norm holds A and B, two rows, above ``f`` and
    the grandizer; on a larger grid it holds a few chunks of them and its buffers, which
    every pass rebuilds.  An inner norm past float range raises ``ValueError``.  Refinement never decreases the value: the Newton steps from the grid
    argmax only replace the grid maximum when they find a larger term.  The
    curve has a row at every grid point, and one more at the maximizer when
    that is not a grid point.
    """
    _check_same_domain(f, gp.grandizer, "grand_norm")
    samples, avals = _one_window(f.values), _one_window(gp.grandizer.values)
    return _grand_report(samples, avals, gp, f.domain.cell_volume)[0]


def sup_eps_factor(mass: float, p: float, theta: float = 1.0) -> float:
    """sup over eps in (0, p-1] of eps**theta * mass**(eps / (p (p - eps))).

    It is maximized in closed form: the stationary points of the log solve the
    quadratic theta*eps^2 + (ln mass - 2 p theta) eps + theta p^2 = 0.
    """
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    top = _grand_exponent(p) - 1.0
    _check_theta(theta)

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


def write_norm_csv(report: NormReport, path: str | Path) -> None:
    write_csv(path, ["eps", "inner_norm", "weighted_term"], report.curve)
