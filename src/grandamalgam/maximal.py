"""Centered Hardy-Littlewood maximal operator on grid functions.

Balls are cell-index balls: the interval of half-width r cells in 1-D and
the Chebyshev square in 2-D (separable, so prefix sums apply).  Balls are
clipped to the domain and averaged over the in-domain cells only, which
keeps every output a true average (so max f bounds Mf).  Two
implementations share one output contract: a direct-definition oracle and a
prefix-sum path, in which every radius reads slices of one edge-padded
prefix table and a ball's cell count is the product of its clipped extents;
any finite radius set makes Mf a lower bound for the all-radii supremum.
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
    return MaximalResult(GridFunction(f.domain, best.astype(np.complex128)), arg)


def _ball_averages(absf: np.ndarray, rs: RadiusSet):
    """Best clipped-ball average per cell over ``rs``, and the radius attaining it.

    The prefix table is edge-padded by the largest radius R on each axis, so
    an index clipped to [0, n] is a plain slice and every radius reads
    shifted views of one table.  The in-ball cell count is the product of
    the per-axis clipped extents, read the same way from 0, 1, ..., n.
    """
    shape = absf.shape
    R = rs.radii_cells[-1]
    pref = absf
    for axis in range(absf.ndim):
        pref = pref.cumsum(axis=axis)
    pref = np.pad(np.pad(pref, [(1, 0)] * absf.ndim), R, mode="edge")
    edges = [np.pad(np.arange(n + 1, dtype=np.float64), R, mode="edge") for n in shape]
    best, arg = _init_best(absf, rs)
    avg = np.empty(shape)
    upd = np.empty(shape, dtype=bool)
    for r in rs.radii_cells:
        hi = [slice(R + r + 1, R + r + 1 + n) for n in shape]
        lo = [slice(R - r, R - r + n) for n in shape]
        extents = [e[h] - e[l] for e, h, l in zip(edges, hi, lo)]
        if absf.ndim == 1:
            np.subtract(pref[hi[0]], pref[lo[0]], out=avg)
            count = extents[0]
        else:
            # P[h,h] - P[l,h] - P[h,l] + P[l,l]; another order changes the last bits of Mf
            np.subtract(pref[hi[0], hi[1]], pref[lo[0], hi[1]], out=avg)
            np.subtract(avg, pref[hi[0], lo[1]], out=avg)
            np.add(avg, pref[lo[0], lo[1]], out=avg)
            count = np.multiply.outer(*extents)
        np.divide(avg, count, out=avg)
        np.greater(avg, best, out=upd)
        np.copyto(best, avg, where=upd)
        np.copyto(arg, r, where=upd)
    return best, arg


def maximal_fast(f: GridFunction, rs: RadiusSet) -> MaximalResult:
    """Prefix-sum evaluation; same output contract as :func:`maximal_naive`.

    Ball sums are corner differences of one edge-padded prefix table, read
    as slices; the in-domain cell count of a ball is the product of its
    clipped extents along the axes.
    """
    rs.validate_for(f.domain)
    best, arg = _ball_averages(np.abs(f.values), rs)
    return MaximalResult(GridFunction(f.domain, best.astype(np.complex128)), arg)


def maximal_tail_profile(f: GridFunction, rs: RadiusSet, sample_points) -> list[tuple[float, float]]:
    """Mf at the cells nearest the sample points; points must be in-domain."""
    return _sample_profile(maximal_fast(f, rs), sample_points)


def _sample_profile(result: MaximalResult, sample_points) -> list[tuple[float, float]]:
    """(point, Mf) at the cells of ``result`` nearest the in-domain sample points."""
    dom = result.mf.domain
    mf = np.real(result.mf.values)
    out = []
    for x in sample_points:
        cell = dom.nearest_cell(x)
        out.append((float(x) if dom.ndim == 1 else tuple(x), float(mf[cell])))
    return out


def write_maximal_csv(result: MaximalResult, path: str | Path) -> None:
    """Grid CSV layout plus the argmax-radius column."""
    _write_cell_csv(path, result.mf, argmax_radius=result.argmax_radius)
