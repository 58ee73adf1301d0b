"""Weighted Lebesgue norms and grand norms, with a certified sup over epsilon.

A grand norm is a supremum over epsilon in (0, p-1] of epsilon-weighted
L^(p-eps) norms.  With m = max|f| and g = |f| / m, every inner sum is
m^(p-eps) S, S = sum exp(A + eps B), A = p ln g, B = ln a / p - ln g (ln a - ln g
for ``EXPONENT_FULL``), summed as a log-sum-exp shifted by its row max: no
|f| or grandizer overflows or underflows it.  The log form of the samples, real
or complex, keeps ln m per row and builds A and B per cell chunk when asked; a
row longer than ``gridfn._GRID_BLOCK_CELLS`` cells is summed chunk by chunk, so a
norm holds no array the size of the row.  An inner norm past float range is an
error, not inf.  A classical L^q(w) norm is the ``EXPONENT_FULL`` inner norm at
p = q + 1, eps = 1.  The sup is certified by splitting intervals of a geometric
epsilon grid for all rows of a (windows, cells) block at once; a function is one
row.  The grid only seeds the sup: a smaller one shortens the curve, not the
certificate.  Two inner weightings:

* ``EXPONENT_OVER_P``: weight a**(eps/p), outer factor eps**theta;
* ``EXPONENT_FULL``:   weight a**eps, outer factor eps**(theta/(p-eps)).

The two define equivalent norms, with constants the underlying theory does
not specify.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import gridfn
from .gridfn import GridFunction, Weight, _check_same_domain
from .reporting import write_csv

__all__ = [
    "Variant",
    "GrandParams",
    "ClassicalSpace",
    "NormReport",
    "weighted_lp_norm",
    "grand_norm",
    "sup_eps_factor",
    "write_norm_csv",
]

_GAP = 1e-12  # the certified relative gap of a grand norm's value
_LN_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # the largest x whose exp is a finite float64

DEFAULT_EPS_COUNT = 9
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


def _eps_grid(p: float, count: int) -> tuple[float, ...]:
    """The epsilon grid of ``count`` points: geometric from (p - 1) * ``DEFAULT_EPS_MIN_FRACTION``,
    ending exactly at p - 1."""
    top = _grand_exponent(p) - 1.0
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"need an integer count of grid points, got {count!r}")
    if count < 2:
        raise ValueError("need at least two grid points")
    min_eps = top * DEFAULT_EPS_MIN_FRACTION
    ratio = (min_eps / top) ** (1.0 / (count - 1))
    return tuple(top * ratio ** (count - 1 - k) for k in range(count - 1)) + (top,)


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
    """Parameters (p, theta, variant, grandizer, epsilon grid size) of a grand norm;
    ``eps_grid`` is the grid of ``eps_count`` points that seeds its sup."""

    p: float
    grandizer: Weight
    theta: float = 1.0
    variant: Variant = Variant.EXPONENT_OVER_P
    eps_count: int = DEFAULT_EPS_COUNT
    eps_grid: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", _eps_grid(self.p, self.eps_count))
        _check_theta(self.theta)

    def weight_power(self, eps: float) -> np.ndarray:
        a = self.grandizer.values
        return a ** (eps / self.p) if self.variant is Variant.EXPONENT_OVER_P else a**eps

    def ln_prefactor(self, eps: np.ndarray) -> np.ndarray:
        t = self.theta if self.variant is Variant.EXPONENT_OVER_P else self.theta / (self.p - eps)
        return t * np.log(eps)


@dataclass(frozen=True)
class NormReport:
    """Value and diagnostics of a sup-over-epsilon norm evaluation.

    ``curve`` rows are (eps, inner_lp_norm, weighted_term); the value equals
    the maximum weighted term over the curve and is attained at
    ``argmax_eps``.  ``upper_bound`` bounds the sup over all of (0, p-1]; a
    classical norm's is its value, and its curve is empty.
    A grand curve is a sequence that makes its rows when read.
    """

    value: float
    upper_bound: float
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
    The form keeps ln m and builds a chunk's A and B when asked (:func:`_cell_chunks`), so no
    array the size of the block is held; a block of one chunk is built once.  ``samples`` is
    never written.  A weight is positive and zero-padded where f is, so the live cells have
    |f| > 0.  Dead cells get A = -inf, B = 0; a row with no live cell ln m = -inf, A = B = 0.
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
    """(c, sum exp(t - c)) along ``axis``, c the max there, so the sum is at least 1; a line of
    -inf (dead cells) gets the most negative float and 0.  ``t`` becomes exp(t - c)."""
    c = t.max(axis=axis, keepdims=True, initial=np.finfo(np.float64).min)
    t -= c
    return c.squeeze(axis), np.exp(t, out=t).sum(axis=axis)


def _cell_chunks(cells: int) -> list[slice]:
    """The cells of a row in chunks of at most ``_GRID_BLOCK_CELLS``: one chunk if it fits."""
    width = min(cells, gridfn._GRID_BLOCK_CELLS)
    return [slice(j, min(j + width, cells)) for j in range(0, cells, width)]


def _ln_sums(form: _LogForm, eps: np.ndarray, cell_volume: float) -> np.ndarray:
    """(eps, rows) lam = ln S + ln h, S = sum exp(A + eps B), for every row at every eps.

    A row walks its chunks (:func:`_cell_chunks`), each built once, in one buffer.  A pass
    takes as many epsilons as fit ``_GRID_BLOCK_CELLS`` cells, cells first, reduced over the
    leading axis in cell order (pairwise for a lone row and eps): a row alone at one eps (a
    classical row) may differ by a few ulp from that row in a block, and a long row from one
    chunk; no other row does.
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
    lam = _merged(c, s)
    lam += math.log(cell_volume)
    return lam


def _ln_sums_at(form: _LogForm, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln S of row ``rows[i]`` at eps ``x[i]``, in groups of at most ``_GRID_BLOCK_CELLS`` cells a
    chunk; each row's chunk sums merge pairwise, so one-cell chunks give its one-chunk sum."""
    width, chunks = form.chunks[0].stop, form.chunks
    per = max(1, gridfn._GRID_BLOCK_CELLS // width)
    buf = np.empty(min(rows.size, per) * width)
    c = np.empty((rows.size, len(chunks)))
    s = np.empty_like(c)
    for i in range(0, rows.size, per):
        sub, xs = form.select(rows[i : i + per]), x[i : i + per, None]
        for k, cut in enumerate(chunks):
            a, b = sub.chunk(cut)
            t = buf[: xs.size * (cut.stop - cut.start)].reshape(xs.size, -1)
            np.multiply(b, xs, out=t)
            t += a
            c[i : i + per, k], s[i : i + per, k] = _shifted_sums(t, 1)
    return _merged(c.T, s.T)


def _merged(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ln sum_k s_k exp(c_k) over the leading (chunk) axis of the chunks' maxima ``c`` and
    shifted sums ``s``, an online log-sum-exp (Milakov and Gimelshein 2018) exact for one
    chunk, in place: a block of many short rows keeps no temporary beyond ``c`` and ``s``."""
    top = c.max(axis=0)
    np.exp(np.subtract(c, top, out=c), out=c)
    lns = np.multiply(s, c, out=s).sum(axis=0, out=c[0])
    np.log(lns, out=lns)
    lns += top
    return lns


def _inner_norms(form: _LogForm, p: float, eps: np.ndarray, cell_volume: float) -> np.ndarray:
    """(rows, eps) inner norms exp(ln m + lam / (p - eps)) of :func:`_ln_sums`' lam."""
    ln_inner = _ln_sums(form, eps, cell_volume)
    ln_inner /= (p - eps)[:, None]
    ln_inner += form.lnm
    return _exp_norms(ln_inner).T


def _exp_norms(ln_norms: np.ndarray) -> np.ndarray:
    """exp of the logs of norms, in place; a norm beyond float range is an error, not inf."""
    top = ln_norms.max(initial=-np.inf)
    if top > _LN_FLOAT_MAX:
        raise ValueError(f"the norm exceeds float range: its logarithm is {top:.6g} > {_LN_FLOAT_MAX:.6g}")
    return np.exp(ln_norms, out=ln_norms)


def _classical_rows(samples: np.ndarray, wrows, q: float, cell_volume: float) -> np.ndarray:
    """Weighted L^q norms of the rows (``wrows=None``: unweighted), as the full-weighting
    member L^(p-eps)(w^eps) at p = q + 1, eps = 1."""
    return _inner_norms(_LogForm(samples, q + 1.0, wrows), q + 1.0, np.ones(1), cell_volume)[:, 0]


def weighted_lp_norm(f: GridFunction, p: float, w: Weight | None = None) -> float:
    """(integral of |f|^p w)^(1/p); ``w=None`` means the unweighted norm."""
    ClassicalSpace(p, w)
    if w is not None:
        _check_same_domain(f, w, "weighted_lp_norm")
    wrows = None if w is None else _one_window(w.values)
    return float(_classical_rows(_one_window(f.values), wrows, p, f.domain.cell_volume)[0])


def _peak(theta: float, p: float, k):
    """Where theta ln eps + k / (p - eps) is greatest on (0, p]: p where k >= 0, as it rises;
    else it is concave, with its peak at the lesser root of theta eps^2 - (2 theta p - k) eps
    + theta p^2, cancelling nothing."""
    k = np.minimum(k, 0.0)
    return 2.0 * theta * p * p / (2.0 * theta * p - k + np.sqrt(k * k - 4.0 * theta * p * k))


def _chord_bounds(gp: GrandParams, lo, hi, flo, fhi) -> tuple[np.ndarray, np.ndarray]:
    """(bound, at): an upper bound on psi = ln(term) - ln m over each [lo, hi], from lam =
    ln S + ln h at its ends, ``flo`` and ``fhi``, and where it is reached.

    ln S is convex in eps (a log-sum-exp of affine functions; Boyd and Vandenberghe 2004,
    §3.1.5), so lam is below its chord, of value K at p.  ``EXPONENT_OVER_P``: psi <= theta ln
    eps + K / (p - eps) less a constant, greatest at :func:`_peak`.  ``EXPONENT_FULL``: ln'' <=
    -1 / hi^2 bounds ln eps by a concave quadratic about the midpoint x0, and psi by N / (p -
    eps), which rises where N(p) >= 0 and else peaks where theta (p - eps)^2 = -2 hi^2 N(p).
    """
    p, theta = gp.p, gp.theta
    slope = (fhi - flo) / (hi - lo)  # its rounding moves the chord by an ulp of lam at most
    if gp.variant is Variant.EXPONENT_OVER_P:
        x = np.clip(_peak(theta, p, flo + slope * (p - lo)), lo, hi)
        return theta * np.log(x) + (flo + slope * (x - lo)) / (p - x), x
    x0, ln_x0 = 0.5 * (lo + hi), np.log(0.5 * (lo + hi))
    # the peak p - (p - x0) sqrt(-N(p) / (q (p - x0)^2)), q = theta / (2 hi^2), free of overflow
    m = 1.0 - 2.0 * (hi / (p - x0)) ** 2 * (ln_x0 + (p - x0) / x0 + (flo + slope * (p - lo)) / theta)
    x = np.clip(p - (p - x0) * np.sqrt(np.maximum(m, 0.0)), lo, hi)
    n = theta * (ln_x0 + (x - x0) / x0 - 0.5 * ((x - x0) / hi) ** 2) + flo + slope * (x - lo)
    return n / (p - x), x


def _split_rows(form: _LogForm, gp: GrandParams, cell_volume: float, ends, lam, psi, k, value, argmax, peak):
    """Certify each row's sup over (0, p - 1] by bounding and splitting intervals (Piyavskii
    1972; Shubert 1972); return ln(upper bound) - ln m per row.

    ``ends`` (0 and the grid) cut (0, p - 1]; lam = ln S + ln h is given there and psi at the
    grid.  As lam is below its chord and theta ln eps <= theta ln hi, psi on [lo, hi] is at
    most max(psi(lo) + theta ln(hi / lo), psi(hi)) (over p - lo for ``EXPONENT_FULL``); the
    rest go to :func:`_chord_bounds`.  An interval is done within _GAP / 2 of its row's best
    psi (half is left for rounding), or when float64 cannot split it, or when its row has
    over 32 (rounding noise); a pass splits the rest at their bounds' maximisers (for an end,
    the midpoint), 1/32 in at least, updating ``value``, ``argmax`` and ``peak`` in place.
    """
    p, lnh, half = gp.p, math.log(cell_volume), 0.5 * _GAP
    best = psi[k, np.arange(value.size)]
    d = gp.theta * np.log(ends[2:] / ends[1:-1])
    if gp.variant is Variant.EXPONENT_FULL:
        d /= p - ends[1:-1]
    cheap = psi[:-1] + d[:, None]  # then in place, for blocks of many rows
    np.maximum(cheap, psi[1:], out=cheap)
    cheap -= best
    live = form.lnm > -np.inf  # a zero row is 0
    near = (cheap > half) & live
    cheap[near] = -np.inf
    upper = cheap.max(axis=0, initial=-np.inf) + best  # the largest done bound
    cut, row = np.nonzero(near)
    first = np.flatnonzero(live)
    row, cut = np.concatenate((first, row)), np.concatenate((0 * first, cut + 1))
    ivl = np.stack((ends[cut], ends[cut + 1], lam[cut, row], lam[cut + 1, row]))  # lo, hi, lam there
    b, x = _chord_bounds(gp, *ivl)
    while True:
        lo, hi = ivl[0], ivl[1]
        w = hi - lo
        x = np.clip(np.where((lo < x) & (x < hi), x, lo + 0.5 * w), lo + w / 32, hi - w / 32)
        done = (b - best[row] <= half) | (x <= lo) | (x >= hi) | (np.bincount(row)[row] > 32)
        np.maximum.at(upper, row[done], b[done])
        row, ivl, x = row[~done], ivl[:, ~done], x[~done]
        if not row.size:
            return upper
        fx = _ln_sums_at(form, row, x)
        fx += lnh
        lnm, root = form.lnm[row], fx / (p - x)
        px = gp.ln_prefactor(x) + root
        v, inner = _exp_norms(lnm + px), _exp_norms(lnm + root)
        order = np.lexsort((px, row))  # each row's largest psi of the pass, last in its run
        top = order[np.append(row[order][1:] != row[order][:-1], True)]
        won = top[(px[top] > best[row[top]]) & (v[top] >= value[row[top]])]
        r = row[won]
        value[r], argmax[r], peak[r], best[r] = v[won], x[won], inner[won], px[won]
        n = row.size  # [lo, hi] becomes [lo, x] and [x, hi]
        row, ivl = np.concatenate((row, row)), np.concatenate((ivl, ivl), axis=1)
        ivl[1, :n], ivl[3, :n], ivl[0, n:], ivl[2, n:] = x, fx, x, fx
        b, x = _chord_bounds(gp, *ivl)


def _grand_scan(samples: np.ndarray, aw: np.ndarray, gp: GrandParams, cell_volume: float):
    """Epsilon scan of every row of a (windows, cells) block at once: (value, argmax, inner,
    terms, peak, upper), per row but the (rows, grid) inner norms and terms (exps of logs:
    a prefactor past float range makes no inf); peak is the inner norm at argmax."""
    form = _grand_form(samples, aw, gp)
    grid = np.array(gp.eps_grid)
    ends = np.concatenate(([0.0], grid))
    lam = _ln_sums(form, ends, cell_volume)  # lam at eps = 0 bounds (0, eps_1]
    psi = lam[1:] / (gp.p - grid)[:, None]
    inner = _exp_norms(psi + form.lnm).T
    psi += gp.ln_prefactor(grid)[:, None]  # ln(term) - ln m
    terms = _exp_norms(psi + form.lnm).T
    k = np.argmax(terms, axis=1)  # first maximum: ties break toward the lowest eps
    rows = np.arange(len(terms))
    value, argmax, peak = terms[rows, k], grid[k], inner[rows, k]
    upper = _split_rows(form, gp, cell_volume, ends, lam, psi, k, value, argmax, peak)
    upper = np.maximum(_exp_norms(upper + form.lnm), value)  # despite rounding
    return value, argmax, inner, terms, peak, upper


def _grand_report(samples: np.ndarray, aw, gp: GrandParams, cell_volume: float, gaps=0.0) -> list[NormReport]:
    """Grand norm of every row of a (rows, cells) block with its curve, from one scan, each
    upper bound times 1 + its row's ``gaps``."""
    value, argmax, inner, terms, peak, upper = _grand_scan(samples, aw, gp, cell_volume)
    upper *= 1.0 + np.asarray(gaps)
    return [
        NormReport(v, ub, x, _Curve(gp.eps_grid, row_inner, row_terms, (x, pk, v)),
                   gp.p, gp.theta, gp.variant.value)
        for v, ub, x, pk, row_inner, row_terms in zip(
            value.tolist(), upper.tolist(), argmax.tolist(), peak.tolist(), inner, terms
        )
    ]


class _Curve(Sequence):
    """The (eps, inner norm, weighted term) rows of one grand report, made when read: the
    reports of a stack keep views of their scan's arrays, as rows of Python floats would cost
    about 4 KB a report.  The maximizer has a row of its own when it is not a grid point."""

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
    """Grand norm of ``f``: sup over the epsilon grid, certified between grid points.

    The samples of ``f`` go to the log form as they are, real or complex.  On a grid of at
    most ``gridfn._GRID_BLOCK_CELLS`` cells the norm holds A and B, two rows, above ``f`` and
    the grandizer; on a larger grid it holds a few chunks of them and its buffers, which
    every pass rebuilds.  An inner norm past float range raises ``ValueError``.  The curve has
    a row at every grid point, and one at an off-grid maximizer.
    """
    _check_same_domain(f, gp.grandizer, "grand_norm")
    samples, avals = _one_window(f.values), _one_window(gp.grandizer.values)
    return _grand_report(samples, avals, gp, f.domain.cell_volume)[0]


def sup_eps_factor(mass: float, p: float, theta: float = 1.0) -> float:
    """sup over eps in (0, p-1] of eps**theta * mass**(eps / (p (p - eps))), whose log is
    theta ln eps + ln(mass) / (p - eps) less a constant: maximized at :func:`_peak`."""
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    top = _grand_exponent(p) - 1.0
    _check_theta(theta)
    eps = min(float(_peak(theta, p, math.log(mass))), top)
    return eps**theta * mass ** (eps / (p * (p - eps)))


def write_norm_csv(report: NormReport, path: str | Path) -> None:
    write_csv(path, ["eps", "inner_norm", "weighted_term"], report.curve)
