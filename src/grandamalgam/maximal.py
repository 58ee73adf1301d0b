"""Centered Hardy-Littlewood maximal operator on grid functions.

Balls are cell-index balls: the interval of half-width r cells in 1-D and
the Chebyshev square in 2-D (separable, so prefix sums apply).  Balls are
clipped to the domain and averaged over the in-domain cells only, which
keeps every output a true average (so max f bounds Mf).  Two
implementations share one output contract: a direct-definition oracle and a
prefix-sum path; any finite radius set makes Mf a lower bound for the
all-radii supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gridfn import BoxDomain, GridFunction
from .reporting import write_csv

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


def _fast_1d(absf: np.ndarray, rs: RadiusSet):
    n = absf.shape[0]
    pref = np.concatenate(([0.0], np.cumsum(absf)))
    cnt = np.concatenate(([0.0], np.cumsum(np.ones_like(absf))))
    idx = np.arange(n)
    best, arg = _init_best(absf, rs)
    for r in rs.radii_cells:
        lo = np.clip(idx - r, 0, n)
        hi = np.clip(idx + r + 1, 0, n)
        avg = (pref[hi] - pref[lo]) / (cnt[hi] - cnt[lo])
        upd = avg > best
        best[upd] = avg[upd]
        arg[upd] = r
    return best, arg


def _fast_2d(absf: np.ndarray, rs: RadiusSet):
    n0, n1 = absf.shape
    pref = np.zeros((n0 + 1, n1 + 1))
    pref[1:, 1:] = absf.cumsum(axis=0).cumsum(axis=1)
    cnt = np.zeros((n0 + 1, n1 + 1))
    cnt[1:, 1:] = np.ones_like(absf).cumsum(axis=0).cumsum(axis=1)
    ii, jj = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    best, arg = _init_best(absf, rs)
    for r in rs.radii_cells:
        lo0 = np.clip(ii - r, 0, n0)
        hi0 = np.clip(ii + r + 1, 0, n0)
        lo1 = np.clip(jj - r, 0, n1)
        hi1 = np.clip(jj + r + 1, 0, n1)
        sums = pref[hi0, hi1] - pref[lo0, hi1] - pref[hi0, lo1] + pref[lo0, lo1]
        counts = cnt[hi0, hi1] - cnt[lo0, hi1] - cnt[hi0, lo1] + cnt[lo0, lo1]
        avg = sums / counts
        upd = avg > best
        best[upd] = avg[upd]
        arg[upd] = r
    return best, arg


def maximal_fast(f: GridFunction, rs: RadiusSet) -> MaximalResult:
    """Prefix-sum evaluation; same output contract as :func:`maximal_naive`.

    Window sums come from prefix sums along each axis; the in-domain cell
    counts come from the same prefix machinery applied to the all-ones
    function.
    """
    rs.validate_for(f.domain)
    absf = np.abs(f.values)
    if f.domain.ndim == 1:
        best, arg = _fast_1d(absf, rs)
    else:
        best, arg = _fast_2d(absf, rs)
    return MaximalResult(GridFunction(f.domain, best.astype(np.complex128)), arg)


def maximal_tail_profile(
    f: GridFunction, rs: RadiusSet, sample_points, use_fast: bool = True
) -> list[tuple[float, float]]:
    """Mf at the cells nearest the sample points; points must be in-domain."""
    return _sample_profile(maximal_fast(f, rs) if use_fast else maximal_naive(f, rs), sample_points)


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
    dom = result.mf.domain
    mesh = dom.center_mesh()
    coords = [mesh[d].reshape(-1) for d in range(dom.ndim)]
    flat = result.mf.values.reshape(-1)
    argf = result.argmax_radius.reshape(-1)
    header = ["index"] + [f"x{d}" for d in range(dom.ndim)] + ["re", "im", "argmax_radius"]
    rows = [
        [i]
        + [float(c[i]) for c in coords]
        + [float(flat[i].real), float(flat[i].imag), int(argf[i])]
        for i in range(flat.size)
    ]
    write_csv(path, header, rows)
