"""Wiener amalgam machinery: windows, control functions, two-stage norms.

A compact window slides over the box on a stride lattice of anchors.  The
control function records, at every anchor, the local norm of the function
restricted to the translated window (zero-filled at the boundary), all
windows evaluated together as the rows of one (windows, cells) block; the
amalgam norm is then a global norm of the control function over the anchor
lattice, whose cells carry measure stride * h per axis so that the
one-window configuration reproduces the plain norm exactly.  Local and
global stages can each be classical weighted L^p or grand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gridfn import BoxDomain, GridFunction, Weight, _int_vector
from .norms import (
    GrandParams,
    NormReport,
    _classical_rows,
    _grand_form,
    _grand_report,
    _grand_scan,
    _inner_norms,
    _one_window,
)
from .reporting import write_csv

__all__ = [
    "WindowSpec",
    "ClassicalSpace",
    "GrandSpace",
    "SpaceDescriptor",
    "AmalgamSpec",
    "ControlFunction",
    "control_function",
    "amalgam_norm",
    "mixed_norm_family",
    "lattice_weight",
    "write_control_csv",
]


@dataclass(frozen=True)
class WindowSpec:
    """Window extent and anchor stride, both in whole cells per axis."""

    side_cells: tuple[int, ...]
    stride_cells: tuple[int, ...]

    def __post_init__(self):
        side = _int_vector(self.side_cells, "side_cells")
        stride = _int_vector(self.stride_cells, "stride_cells", n=len(side))
        if any(s < 1 for s in side) or any(s < 1 for s in stride):
            raise ValueError("window side and stride must be at least one cell")
        object.__setattr__(self, "side_cells", side)
        object.__setattr__(self, "stride_cells", stride)

    def for_ndim(self, ndim: int) -> "WindowSpec":
        if len(self.side_cells) == ndim:
            return self
        if len(self.side_cells) == 1:
            return WindowSpec(self.side_cells * ndim, self.stride_cells * ndim)
        raise ValueError(f"window is {len(self.side_cells)}-dimensional, domain is {ndim}-dimensional")

    def scaled(self, factor: int) -> "WindowSpec":
        """Same physical window on a grid refined by ``factor``."""
        return WindowSpec(
            tuple(s * factor for s in self.side_cells),
            tuple(s * factor for s in self.stride_cells),
        )


@dataclass(frozen=True)
class ClassicalSpace:
    """Weighted L^p local/global stage; ``weight=None`` means unweighted."""

    p: float
    weight: Weight | None = None

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"need p >= 1, got p = {self.p}")


@dataclass(frozen=True)
class GrandSpace:
    """Grand local/global stage described by its :class:`GrandParams`."""

    params: GrandParams


SpaceDescriptor = Union[ClassicalSpace, GrandSpace]


@dataclass(frozen=True)
class AmalgamSpec:
    """Local stage, global stage, and the sliding window tying them together."""

    local_space: SpaceDescriptor
    global_space: SpaceDescriptor
    window: WindowSpec


@dataclass(frozen=True, eq=False)
class ControlFunction:
    """Local norms of the windowed restrictions, sampled on the anchor lattice."""

    gridfn: GridFunction
    anchor_starts: tuple[np.ndarray, ...]
    window: WindowSpec

    @property
    def values(self) -> np.ndarray:
        return np.real(self.gridfn.values)


def _anchor_starts(domain: BoxDomain, window: WindowSpec) -> tuple[np.ndarray, ...]:
    return tuple(
        np.arange(0, n, s) for n, s in zip(domain.points_per_axis, window.stride_cells)
    )


def _lattice_domain(domain: BoxDomain, window: WindowSpec, counts: tuple[int, ...]) -> BoxDomain:
    upper = tuple(
        lo + c * s * h
        for lo, c, s, h in zip(domain.lower, counts, window.stride_cells, domain.spacing)
    )
    return BoxDomain(domain.lower, upper, counts)


def _check_space_domain(space: SpaceDescriptor, domain: BoxDomain, what: str) -> None:
    w = space.weight if isinstance(space, ClassicalSpace) else space.params.grandizer
    if w is not None and w.domain != domain:
        raise ValueError(f"domain mismatch in {what}: descriptor weight lives on a different grid")


def _check_stride(domain: BoxDomain, window: WindowSpec) -> None:
    """Reject a stride longer than the box: its lattice cell would extend past the box."""
    for d, (st, n) in enumerate(zip(window.stride_cells, domain.points_per_axis)):
        if st > n:
            raise ValueError(f"axis {d}: window stride {st} cells exceeds the {n} cells of the box")


def _window_blocks(values: np.ndarray, window: WindowSpec) -> np.ndarray:
    """Every window translate of ``values`` as one row of a (windows, cells) block.

    Rows follow the anchor lattice in C order.  A window is at most as wide
    as the box; one hanging over the right edge reads zeros from a padded
    copy, which is what extending the function by zero outside the box
    gives.  In 1-D the block is a view of ``values`` (or of its padded copy).
    """
    shape = values.shape
    side = tuple(min(s, n) for s, n in zip(window.side_cells, shape))
    counts = tuple(-(-n // st) for n, st in zip(shape, window.stride_cells))
    pad = tuple(
        (0, max(0, (c - 1) * st + s - n))
        for c, st, s, n in zip(counts, window.stride_cells, side, shape)
    )
    if any(hi for _, hi in pad):
        values = np.pad(values, pad)
    anchors = tuple(slice(None, None, st) for st in window.stride_cells)
    return sliding_window_view(values, side)[anchors].reshape(
        int(np.prod(counts)), int(np.prod(side))
    )


def control_function(
    f: GridFunction, local: SpaceDescriptor, window: WindowSpec, refine: bool = True
) -> ControlFunction:
    """Evaluate the local norm of f restricted to every window translate.

    Windows hanging over the right boundary are clipped (zero fill), which
    is what extending f by zero outside the box would give.  Anchors are
    cell indices 0, stride, 2*stride, ...  All windows are evaluated at once
    as the rows of one block by the log-sum-exp kernel of :mod:`.norms`: at
    one exponent for a classical stage, over the epsilon grid plus Newton
    steps on every window's bracket together for a grand one.  Each row has
    its own shift and sums, so a window's value never depends on the others.
    """
    dom = f.domain
    window = window.for_ndim(dom.ndim)
    _check_stride(dom, window)
    _check_space_domain(local, dom, "control_function")
    starts = _anchor_starts(dom, window)
    counts = tuple(len(s) for s in starts)
    blocks = _window_blocks(np.abs(f.values), window)
    if isinstance(local, ClassicalSpace):
        wrows = None if local.weight is None else _window_blocks(local.weight.values, window)
        out = _classical_rows(blocks, wrows, local.p, dom.cell_volume)
    else:
        arows = _window_blocks(local.params.grandizer.values, window)
        out = _grand_scan(blocks, arows, local.params, dom.cell_volume, refine)[0]
    lattice = _lattice_domain(dom, window, counts)
    return ControlFunction(
        gridfn=GridFunction(lattice, out.reshape(counts).astype(np.complex128)),
        anchor_starts=starts,
        window=window,
    )


def lattice_weight(w: Weight, window: WindowSpec, domain: BoxDomain) -> Weight:
    """Reduce a fine-grid weight to the anchor lattice.

    Each lattice cell takes the fine-grid value at the cell containing its
    center (lower cell on boundary ties): deterministic, and the identity
    when stride is one cell.
    """
    window = window.for_ndim(domain.ndim)
    if w.domain != domain:
        raise ValueError("lattice_weight: weight lives on a different grid")
    starts = _anchor_starts(domain, window)
    counts = tuple(len(s) for s in starts)
    idxs = [
        np.clip(np.floor((np.arange(c) + 0.5) * st).astype(int), 0, n - 1)
        for c, st, n in zip(counts, window.stride_cells, domain.points_per_axis)
    ]
    return Weight(_lattice_domain(domain, window, counts), w.values[np.ix_(*idxs)])


def amalgam_norm(
    f: GridFunction,
    spec: AmalgamSpec,
    refine: bool = True,
    *,
    control: ControlFunction | None = None,
) -> NormReport:
    """Two-stage amalgam norm: global norm of the control function.

    The anchor lattice carries cell measure stride * h per axis.  When the
    global stage is grand, the report carries the outer epsilon curve;
    classical global stages report an empty curve.  ``control`` is the
    control function of ``f`` for ``spec``'s local stage and window when the
    caller already holds it; by default it is computed here.
    """
    window = spec.window.for_ndim(f.domain.ndim)
    _check_stride(f.domain, window)
    if control is None:
        control = control_function(f, spec.local_space, window, refine)
    elif control.window != window:
        raise ValueError("amalgam_norm: the control function was made with a different window")
    g = control.gridfn
    glob = spec.global_space
    _check_space_domain(glob, f.domain, "amalgam_norm")
    absg = np.abs(g.values)
    if isinstance(glob, ClassicalSpace):
        w = glob.weight and _one_window(lattice_weight(glob.weight, window, f.domain).values)
        value = _classical_rows(_one_window(absg), w, glob.p, g.domain.cell_volume)[0]
        return NormReport(float(value), None, (), False, p=glob.p, variant="classical")
    b = lattice_weight(glob.params.grandizer, window, f.domain)
    return _grand_report(absg, b.values, glob.params, g.domain.cell_volume, refine)


def mixed_norm_family(f: GridFunction, spec: AmalgamSpec, eps: float, eta: float) -> float:
    """Member W(L^(p-eps)(a^(eps/p)), L^(q-eta)(b^(eta/q))) of the grand family.

    Both stages must be grand, with grandizers a and b (a^eps, b^eta for
    ``EXPONENT_FULL``): the grand kernel's inner norms at eps over the
    windows, then at eta over the lattice, with b reduced to it.
    """
    if not isinstance(spec.local_space, GrandSpace) or not isinstance(spec.global_space, GrandSpace):
        raise ValueError("mixed_norm_family needs grand local and global stages")
    lp = spec.local_space.params
    gq = spec.global_space.params
    if not 0.0 < eps <= lp.p - 1.0 + 1e-12:
        raise ValueError(f"eps = {eps} outside (0, p - 1] with p = {lp.p}")
    if not 0.0 < eta <= gq.p - 1.0 + 1e-12:
        raise ValueError(f"eta = {eta} outside (0, q - 1] with q = {gq.p}")
    dom = f.domain
    window = spec.window.for_ndim(dom.ndim)
    _check_stride(dom, window)
    _check_space_domain(spec.local_space, dom, "mixed_norm_family")
    blocks = _window_blocks(np.abs(f.values), window)
    form = _grand_form(blocks, _window_blocks(lp.grandizer.values, window), lp)
    local = _inner_norms(form, lp.p, np.array([eps]), dom.cell_volume).reshape(1, -1)
    b = lattice_weight(gq.grandizer, window, dom)
    form = _grand_form(local, _one_window(b.values), gq)
    return float(_inner_norms(form, gq.p, np.array([eta]), b.domain.cell_volume)[0, 0])


def write_control_csv(cf: ControlFunction, path: str | Path) -> None:
    """One row per anchor: anchor coordinates and the control value."""
    dom = cf.gridfn.domain
    ndim = dom.ndim
    starts = cf.anchor_starts
    header = [f"x{d}" for d in range(ndim)] + ["control_value"]
    fine_h = tuple(dom.spacing[d] / cf.window.stride_cells[d] for d in range(ndim))
    vals = cf.values
    rows = []
    for idx in itertools.product(*(range(len(s)) for s in starts)):
        coords = [dom.lower[d] + float(starts[d][idx[d]]) * fine_h[d] for d in range(ndim)]
        rows.append(coords + [float(vals[idx])])
    write_csv(path, header, rows)
