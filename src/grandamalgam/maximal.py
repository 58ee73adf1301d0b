"""Centered Hardy-Littlewood maximal operator on grid functions.

Balls are cell-index balls: the interval of half-width r cells in 1-D and
the Chebyshev square in 2-D (separable, so prefix sums apply).  Balls are
clipped to the domain and averaged over the in-domain cells only, which
keeps every output a true average (so max f bounds Mf).  Two
implementations share one output contract: a direct-definition oracle and a
prefix-sum path.  The prefix-sum path reads every ball from one edge-padded
prefix table, and a ball's cell count is the product of its clipped extents.
It skips, by an exact branch and bound over blocks of radii, the balls whose
average provably cannot beat a cell's best, so its output is bit-identical to
evaluating every ball.  Any finite radius set makes Mf a lower bound for the
all-radii supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gridfn import BoxDomain, GridFunction, _write_cell_csv

__all__ = [
    "RadiusSet",
    "MaximalResult",
    "maximal_naive",
    "maximal_fast",
    "maximal_tail_profile",
    "write_maximal_csv",
]


@dataclass(frozen=True)
class RadiusSet:
    """Ball half-widths in cells; optionally include the radius-0 term |f(x)|."""

    radii_cells: tuple[int, ...]
    include_center: bool = True

    def __post_init__(self):
        radii = tuple(int(r) for r in self.radii_cells)
        if not radii:
            raise ValueError("need at least one radius")
        if any(r < 1 for r in radii):
            raise ValueError("radii must be at least one cell")
        if len(set(radii)) != len(radii):
            raise ValueError("radii must be distinct")
        object.__setattr__(self, "radii_cells", tuple(sorted(radii)))

    @staticmethod
    def full(domain: BoxDomain, include_center: bool = True) -> "RadiusSet":
        """Every radius up to half the smallest axis extent."""
        top = max(1, min(domain.points_per_axis) // 2)
        return RadiusSet(tuple(range(1, top + 1)), include_center)

    @staticmethod
    def dyadic(domain: BoxDomain, include_center: bool = True) -> "RadiusSet":
        """Radii 1, 2, 4, ...; changes Mf by a bounded factor, flag in reports."""
        top = max(1, min(domain.points_per_axis) // 2)
        radii = []
        r = 1
        while r <= top:
            radii.append(r)
            r *= 2
        return RadiusSet(tuple(radii), include_center)

    def validate_for(self, domain: BoxDomain) -> None:
        if self.radii_cells[-1] > max(domain.points_per_axis):
            raise ValueError(
                f"max radius {self.radii_cells[-1]} exceeds the grid extent "
                f"{max(domain.points_per_axis)}"
            )


@dataclass(frozen=True, eq=False)
class MaximalResult:
    """Mf and, per cell, the radius attaining it (0 means the center term)."""

    mf: GridFunction
    argmax_radius: np.ndarray


def _init_best(absf: np.ndarray, rs: RadiusSet):
    if rs.include_center:
        best = absf.copy()
        arg = np.zeros(absf.shape, dtype=np.int64)
    else:
        best = np.full(absf.shape, -np.inf)
        arg = np.full(absf.shape, -1, dtype=np.int64)
    return best, arg


def maximal_naive(f: GridFunction, rs: RadiusSet) -> MaximalResult:
    """Direct evaluation of the definition; the oracle for the fast path.

    Ties between radii break toward the smaller radius (strict improvement
    required), and toward the center term when it is included.
    """
    rs.validate_for(f.domain)
    absf = np.abs(f.values)
    shape = f.domain.shape
    best, arg = _init_best(absf, rs)
    for idx in np.ndindex(shape):
        for r in rs.radii_cells:
            block = absf[
                tuple(slice(max(0, i - r), min(n - 1, i + r) + 1) for i, n in zip(idx, shape))
            ]
            avg = float(block.sum()) / block.size
            if avg > best[idx]:
                best[idx] = avg
                arg[idx] = r
    return MaximalResult(GridFunction(f.domain, best), arg)


# Every BLOCK-th radius of a radius set, and its last, is an anchor that every
# cell evaluates; the radii strictly between two anchors form a block.
BLOCK = 32
# A block whose active cells are at most this share of the grid is evaluated by
# gathers at those cells; a denser block by slices over every cell.
GATHER_SHARE = 0.25
# Balls per gathered chunk: 64 KiB per float array, which stays in cache.
GATHER_BALLS = 8192


class _BallTable:
    """Clipped-ball sums and cell counts, read from one edge-padded prefix table.

    The prefix table is edge-padded by the largest radius R on each axis, so
    an index clipped to [0, n] is a plain offset and every radius reads
    shifted views of one table.  The in-ball cell count is the product of
    the per-axis clipped extents, read the same way from 0, 1, ..., n.
    """

    def __init__(self, absf: np.ndarray, R: int):
        pref = absf
        for axis in range(absf.ndim):
            pref = pref.cumsum(axis=axis)
        self.pref = np.pad(np.pad(pref, [(1, 0)] * absf.ndim), R, mode="edge")
        self.edges = [np.pad(np.arange(n + 1, dtype=np.float64), R, mode="edge") for n in absf.shape]
        self.shape = absf.shape
        self.R = R

    def _corners(self, r: int):
        hi = [slice(self.R + r + 1, self.R + r + 1 + n) for n in self.shape]
        lo = [slice(self.R - r, self.R - r + n) for n in self.shape]
        return hi, lo

    def _sum(self, hi, lo, out=None) -> np.ndarray:
        """Ball sums from the per-axis prefix corners ``hi`` and ``lo``.

        The corners are slices (one radius, every cell) or index arrays
        (gathered balls); either way the arithmetic and its order are the same.
        """
        pref = self.pref
        if len(hi) == 1:
            return np.subtract(pref[hi[0]], pref[lo[0]], out=out)
        # P[h,h] - P[l,h] - P[h,l] + P[l,l]; another order changes the last bits of Mf
        out = np.subtract(pref[hi[0], hi[1]], pref[lo[0], hi[1]], out=out)
        np.subtract(out, pref[hi[0], lo[1]], out=out)
        return np.add(out, pref[lo[0], lo[1]], out=out)

    def _count(self, hi, lo) -> np.ndarray:
        """In-domain cell counts of the balls with corners ``hi`` and ``lo``."""
        extents = [e[h] - e[l] for e, h, l in zip(self.edges, hi, lo)]
        if len(extents) == 1:
            return extents[0]
        # slices give one extent per row or column, index arrays one per ball
        return np.multiply.outer(*extents) if isinstance(hi[0], slice) else np.multiply(*extents)

    def sum_at(self, r: int, out: np.ndarray) -> np.ndarray:
        """The radius-``r`` ball sum around every cell, written into ``out``."""
        return self._sum(*self._corners(r), out=out)

    def count_at(self, r: int) -> np.ndarray:
        """The in-domain cell count of the radius-``r`` ball around every cell."""
        return self._count(*self._corners(r))

    def fold(self, radii, best: np.ndarray, arg: np.ndarray) -> None:
        """Fold the averages at ``radii``, ascending, into ``best`` and ``arg`` in place.

        A radius wins at a cell only with a strictly larger average, so ties
        keep the smaller radius.
        """
        avg = np.empty(self.shape)
        upd = np.empty(self.shape, dtype=bool)
        for r in radii:
            hi, lo = self._corners(r)
            np.divide(self._sum(hi, lo, out=avg), self._count(hi, lo), out=avg)
            np.greater(avg, best, out=upd)
            np.copyto(best, avg, where=upd)
            np.copyto(arg, r, where=upd)

    def gather(self, cells: tuple, radii: np.ndarray) -> np.ndarray:
        """Averages of the balls of ``radii`` (columns) around ``cells`` (rows).

        ``cells`` holds one index array per axis.  The arithmetic is that of
        a slice pass, in the same order, so every average is bit-identical.
        """
        hi = [c[:, None] + (self.R + 1 + radii) for c in cells]
        lo = [c[:, None] + (self.R - radii) for c in cells]
        avg = self._sum(hi, lo)
        avg /= self._count(hi, lo)
        return avg


def _ball_averages(absf: np.ndarray, rs: RadiusSet):
    """Best clipped-ball average per cell over ``rs``, and the radius attaining it.

    Exact branch and bound over blocks of radii; the result is bit-identical
    to folding every radius in ascending order, ties included.

    1. The anchors are folded over every cell.
    2. A block between anchors a < b is bounded per cell by S(b) / count(c),
       with c its first radius: every average in the block is at most this
       (see ``margin``), and a cell is active when it is not below the best.
    3. Active cells of a sparse block are evaluated by gathers, and a dense
       block by slices over every cell.
    4. A cell's recorded radius is an anchor or lies in another block, so it
       is either <= a or >= b.  Where it is >= b, an equal average in the
       block must win, so the block is compared against nextafter(best, -inf).
    """
    radii = np.asarray(rs.radii_cells)
    table = _BallTable(absf, int(radii[-1]))
    best, arg = _init_best(absf, rs)
    anchors = sorted({*range(0, radii.size, BLOCK), radii.size - 1})
    table.fold(radii[anchors], best, arg)
    if absf.ndim == 1:
        # P is a cumsum of non-negative floats, so it is non-decreasing, and
        # fl(x - y) is monotone: the computed S(r) <= S(b) for r <= b.  Counts
        # grow with r and rounded division is monotone, so the bound holds.
        margin = 0.0
    else:
        # Inclusion-exclusion is not monotone under rounding.  Each of the two
        # sequential cumsums errs by at most n_k * u * T (T the total, u = eps/2),
        # so every computed corner is within (n0 + n1) * u * T of the exact one;
        # four corners and three roundings of terms below 2T give
        # |S_computed - S_exact| <= (2(n0 + n1) + 3) * eps * T =: delta.  The exact
        # sums are monotone in r, so S_computed(r) <= S_computed(b) + 2 delta, and
        # 8 (n0 + n1) eps T >= 2 delta for n0 + n1 >= 2.
        margin = 8 * sum(absf.shape) * np.finfo(np.float64).eps * float(table.pref[-1, -1])
    most_gathered = int(GATHER_SHARE * absf.size)
    bound = np.empty(absf.shape)
    inactive = np.empty(absf.shape, dtype=bool)
    flat_best, flat_arg = best.reshape(-1), arg.reshape(-1)
    for i, j in zip(anchors, anchors[1:]):
        block, rb = radii[i + 1 : j], radii[j]
        if not block.size:
            continue
        table.sum_at(rb, bound)
        if margin:
            np.add(bound, margin, out=bound)
        np.divide(bound, table.count_at(block[0]), out=bound)
        np.less(bound, best, out=inactive)  # a NaN bound proves nothing
        active = absf.size - np.count_nonzero(inactive)
        if active > most_gathered:
            thr = np.where(arg >= rb, np.nextafter(best, -np.inf), best)
            table.fold(block, thr, arg)
            np.copyto(best, thr, where=arg < rb)
        elif active:
            active_cells = np.flatnonzero(~inactive)
            rows = max(1, GATHER_BALLS // block.size)
            for start in range(0, active_cells.size, rows):
                cells = active_cells[start : start + rows]
                thr = flat_best[cells]
                thr = np.where(flat_arg[cells] >= rb, np.nextafter(thr, -np.inf), thr)
                avg = table.gather(np.unravel_index(cells, absf.shape), block)
                avg[np.isnan(avg)] = -np.inf  # inf - inf never wins a fold, nor here
                col = avg.argmax(axis=1)  # the first maximum: the smallest radius
                top = avg[np.arange(cells.size), col]
                win = top > thr
                flat_best[cells[win]] = top[win]
                flat_arg[cells[win]] = block[col[win]]
    return best, arg


def maximal_fast(f: GridFunction, rs: RadiusSet) -> MaximalResult:
    """Prefix-sum evaluation; same output contract as :func:`maximal_naive`.

    Ball sums are corner differences of one edge-padded prefix table; the
    in-domain cell count of a ball is the product of its clipped extents
    along the axes.  Blocks of radii that cannot beat a cell's best are
    skipped exactly (see ``_ball_averages``).
    """
    rs.validate_for(f.domain)
    best, arg = _ball_averages(np.abs(f.values), rs)
    return MaximalResult(GridFunction(f.domain, best), arg)


def maximal_tail_profile(f: GridFunction, rs: RadiusSet, sample_points) -> list[tuple[float, float]]:
    """Mf at the cells nearest the sample points; points must be in-domain."""
    return _sample_profile(maximal_fast(f, rs), sample_points)


def _sample_profile(result: MaximalResult, sample_points) -> list[tuple[float, float]]:
    """(point, Mf) at the cells of ``result`` nearest the in-domain sample points."""
    dom = result.mf.domain
    out = []
    for x in sample_points:
        cell = dom.nearest_cell(x)
        out.append((float(x) if dom.ndim == 1 else tuple(x), float(result.mf.values[cell])))
    return out


def write_maximal_csv(result: MaximalResult, path: str | Path) -> None:
    """Grid CSV layout plus the argmax-radius column."""
    _write_cell_csv(path, result.mf, argmax_radius=result.argmax_radius)
