"""Wiener amalgam machinery: windows, control functions, two-stage norms.

A compact window slides over the box on a stride lattice of anchors.  The
control function records, at every anchor, the local norm of the function
restricted to the translated window (zero-filled at the boundary), all
windows evaluated together as the rows of one (windows, cells) block; the
amalgam norm is then a global norm of the control function over the anchor
lattice, whose cells carry measure stride * h per axis so that the
one-window configuration reproduces the plain norm exactly.  Local and
global stages can each be classical weighted L^p or grand.  A stack of
functions on one grid goes through the same stages as one block.
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
    ClassicalSpace,
    GrandParams,
    NormReport,
    _check_eps,
    _classical_rows,
    _grand_form,
    _grand_report,
    _grand_scan,
    _inner_norms,
    _one_window,
)
from .reporting import write_csv

_STACK_CELLS = 1 << 12  # grid cells of the functions one stacked block holds at most

__all__ = [
    "WindowSpec",
    "ClassicalSpace",
    "SpaceDescriptor",
    "AmalgamSpec",
    "ControlFunction",
    "control_function",
    "amalgam_norm",
    "amalgam_norms",
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


# A stage is classical weighted L^p, or grand: a grand stage is its GrandParams.
SpaceDescriptor = Union[ClassicalSpace, GrandParams]


@dataclass(frozen=True)
class AmalgamSpec:
    """Local stage, global stage, and the sliding window tying them together."""

    local_space: SpaceDescriptor
    global_space: SpaceDescriptor
    window: WindowSpec


@dataclass(frozen=True, eq=False)
class ControlFunction:
    """Local norms of the windowed restrictions, sampled on the anchor lattice; none is below
    1 / (1 + ``gap``) of its true value."""

    gridfn: GridFunction
    window: WindowSpec
    gap: float = 0.0

    @property
    def values(self) -> np.ndarray:
        return self.gridfn.values


def _lattice(domain: BoxDomain, window: WindowSpec) -> BoxDomain:
    """The anchor lattice as a box of stride-sized cells, one per anchor: anchor k of an
    axis is cell k * stride of the grid."""
    counts = tuple(-(-n // s) for n, s in zip(domain.points_per_axis, window.stride_cells))
    upper = tuple(
        lo + c * s * h
        for lo, c, s, h in zip(domain.lower, counts, window.stride_cells, domain.spacing)
    )
    return BoxDomain(domain.lower, upper, counts)


def _weight_of(space: SpaceDescriptor) -> Weight | None:
    return space.weight if isinstance(space, ClassicalSpace) else space.grandizer


def _grand_stages(spec: AmalgamSpec, what: str) -> tuple[GrandParams, GrandParams]:
    """The local and global stages of ``spec``, which ``what`` needs both grand."""
    if not isinstance(spec.local_space, GrandParams) or not isinstance(spec.global_space, GrandParams):
        raise ValueError(f"{what} needs grand local and global stages")
    return spec.local_space, spec.global_space


def _check_space_domain(space: SpaceDescriptor, domain: BoxDomain, what: str) -> None:
    w = _weight_of(space)
    if w is not None and w.domain != domain:
        raise ValueError(f"domain mismatch in {what}: descriptor weight lives on a different grid")


def _window_on(domain: BoxDomain, window: WindowSpec) -> WindowSpec:
    """``window`` for the dimension of ``domain``; a stride longer than the box is rejected,
    since its lattice cell would extend past the box."""
    window = window.for_ndim(domain.ndim)
    for d, (st, n) in enumerate(zip(window.stride_cells, domain.points_per_axis)):
        if st > n:
            raise ValueError(f"axis {d}: window stride {st} cells exceeds the {n} cells of the box")
    return window


def _window_blocks(values: np.ndarray, window: WindowSpec) -> np.ndarray:
    """Every window translate of each grid of a (k, *shape) stack as one row of a
    (k * windows, cells) block, rows by function, then by anchor in C order.

    A window is at most as wide as the box; one hanging over the right edge
    reads zeros from a padded copy, which is what extending the function by
    zero outside the box gives.  In 1-D the block of a stack of one is a
    view of ``values`` (or of its padded copy).
    """
    k, shape = values.shape[0], values.shape[1:]
    side = tuple(min(s, n) for s, n in zip(window.side_cells, shape))
    counts = tuple(-(-n // st) for n, st in zip(shape, window.stride_cells))
    pad = tuple(
        (0, max(0, (c - 1) * st + s - n))
        for c, st, s, n in zip(counts, window.stride_cells, side, shape)
    )
    if any(hi for _, hi in pad):
        values = np.pad(values, ((0, 0),) + pad)
    anchors = (slice(None),) + tuple(slice(None, None, st) for st in window.stride_cells)
    return sliding_window_view(values, side, axis=tuple(range(1, values.ndim)))[anchors].reshape(
        k * int(np.prod(counts)), int(np.prod(side))
    )


def _local_stage(
    fs: np.ndarray, local: SpaceDescriptor, window: WindowSpec, cell_volume: float
) -> tuple[np.ndarray, np.ndarray]:
    """(k, anchors) control values of a (k, *shape) stack of samples (or of their moduli),
    every window of every function a row of one block, and each function's control gap."""
    k = len(fs)
    w = _weight_of(local)  # the weight's windows once per function, like the functions'
    wrows = w and _window_blocks(np.broadcast_to(w.values, fs.shape), window)
    blocks = _window_blocks(fs, window)
    if not isinstance(local, GrandParams):
        return _classical_rows(blocks, wrows, local.p, cell_volume).reshape(k, -1), np.zeros(k)
    value, *_, upper = _grand_scan(blocks, wrows, local, cell_volume)
    ratio = np.divide(upper, value, out=np.ones_like(value), where=value > 0)
    return value.reshape(k, -1), ratio.reshape(k, -1).max(axis=1) - 1.0


def _outer_stage(
    ctrl: np.ndarray, gaps: np.ndarray, glob: SpaceDescriptor, window: WindowSpec, domain: BoxDomain
) -> list[NormReport]:
    """Global norm of each row of a (k, anchors) block of control values, as one block; a
    solid, homogeneous norm, so its bound times 1 + the row's control gap bounds the amalgam."""
    w = _weight_of(glob)
    if w is not None:  # one lattice weight row, read by every control row
        w = np.broadcast_to(lattice_weight(w, window, domain).values.reshape(1, -1), ctrl.shape)
    vol = _lattice(domain, window).cell_volume
    if isinstance(glob, GrandParams):
        return _grand_report(ctrl, w, glob, vol, gaps)
    values = _classical_rows(ctrl, w, glob.p, vol)
    return [NormReport(v, ub, None, (), p=glob.p, variant="classical")
            for v, ub in zip(values.tolist(), (values * (1.0 + gaps)).tolist())]


def control_function(f: GridFunction, local: SpaceDescriptor, window: WindowSpec) -> ControlFunction:
    """Evaluate the local norm of f restricted to every window translate.

    Windows hanging over the right boundary are clipped (zero fill), which
    is what extending f by zero outside the box would give.  Anchors are
    cell indices 0, stride, 2*stride, ...  All windows are evaluated at once
    as the rows of one block (the local stage of a stack of one).
    """
    dom = f.domain
    window = _window_on(dom, window)
    _check_space_domain(local, dom, "control_function")
    lattice = _lattice(dom, window)
    out, (gap,) = _local_stage(f.values[None], local, window, dom.cell_volume)
    return ControlFunction(GridFunction(lattice, out.reshape(lattice.shape)), window, float(gap))


def lattice_weight(w: Weight, window: WindowSpec, domain: BoxDomain) -> Weight:
    """Reduce a fine-grid weight to the anchor lattice.

    Each lattice cell takes the fine-grid value at the cell containing its
    center (lower cell on boundary ties): deterministic, and the identity
    when stride is one cell.  A stride longer than the box is rejected.
    """
    window = _window_on(domain, window)
    if w.domain != domain:
        raise ValueError("lattice_weight: weight lives on a different grid")
    lattice = _lattice(domain, window)
    idxs = [
        np.clip(np.floor((np.arange(c) + 0.5) * st).astype(int), 0, n - 1)
        for c, st, n in zip(lattice.points_per_axis, window.stride_cells, domain.points_per_axis)
    ]
    return Weight(lattice, w.values[np.ix_(*idxs)])


def amalgam_norms(fs: list[GridFunction], spec: AmalgamSpec) -> list[NormReport]:
    """Two-stage amalgam norms of a stack of functions on one grid, one report each.

    Blocks of at most ``_STACK_CELLS`` grid cells (one function at least) go
    through one local and one outer stage each.  A grand global stage
    reports its outer epsilon curve, a classical one an empty curve.  A
    report equals the function's own bit for bit, except where its outer
    row, alone, would be summed at one eps in a pass (always so for a
    classical global stage): then it may differ by a few ulp (see ``_inner_norms``).
    """
    if not fs:
        return []
    dom = fs[0].domain
    if any(f.domain != dom for f in fs):
        raise ValueError("amalgam_norms: the functions live on different grids")
    window = _window_on(dom, spec.window)
    _check_space_domain(spec.local_space, dom, "amalgam_norms")
    _check_space_domain(spec.global_space, dom, "amalgam_norms")
    per = max(1, _STACK_CELLS // dom.size)
    reports = []
    for i in range(0, len(fs), per):
        # moduli, not samples: a complex stack and its window rows would take twice the room
        absf = np.stack([np.abs(f.values) for f in fs[i : i + per]])
        reports += _outer_stage(*_local_stage(absf, spec.local_space, window, dom.cell_volume),
                                spec.global_space, window, dom)
    return reports


def amalgam_norm(
    f: GridFunction, spec: AmalgamSpec, *, control: ControlFunction | None = None
) -> NormReport:
    """Two-stage amalgam norm of one function: the stages of :func:`amalgam_norms` on a
    stack of one.

    ``control`` is the control function of ``f`` for ``spec``'s local stage
    and window when the caller already holds it; by default it is computed here.
    """
    window = _window_on(f.domain, spec.window)
    if control is None:
        control = control_function(f, spec.local_space, window)
    elif control.window != window:
        raise ValueError("amalgam_norm: the control function was made with a different window")
    _check_space_domain(spec.global_space, f.domain, "amalgam_norm")
    ctrl = control.gridfn.values.reshape(1, -1)
    return _outer_stage(ctrl, np.array([control.gap]), spec.global_space, window, f.domain)[0]


def mixed_norm_family(f: GridFunction, spec: AmalgamSpec, eps: float, eta: float) -> float:
    """Member W(L^(p-eps)(a^(eps/p)), L^(q-eta)(b^(eta/q))) of the grand family.

    Both stages must be grand, with grandizers a and b (a^eps, b^eta for
    ``EXPONENT_FULL``): the grand kernel's inner norms at eps over the
    windows, then at eta over the lattice, with b reduced to it.
    """
    lp, gq = _grand_stages(spec, "mixed_norm_family")
    _check_eps(eps, lp.p)
    _check_eps(eta, gq.p)
    dom = f.domain
    window = _window_on(dom, spec.window)
    _check_space_domain(spec.local_space, dom, "mixed_norm_family")
    blocks = _window_blocks(f.values[None], window)
    form = _grand_form(blocks, _window_blocks(lp.grandizer.values[None], window), lp)
    local = _inner_norms(form, lp.p, np.array([eps]), dom.cell_volume).reshape(1, -1)
    b = lattice_weight(gq.grandizer, window, dom)
    form = _grand_form(local, _one_window(b.values), gq)
    return float(_inner_norms(form, gq.p, np.array([eta]), b.domain.cell_volume)[0, 0])


def write_control_csv(cf: ControlFunction, path: str | Path) -> None:
    """One row per anchor: anchor coordinates and the control value."""
    dom = cf.gridfn.domain
    ndim = dom.ndim
    stride = cf.window.stride_cells
    header = [f"x{d}" for d in range(ndim)] + ["control_value"]
    fine_h = tuple(dom.spacing[d] / stride[d] for d in range(ndim))
    vals = cf.values
    rows = []
    for idx in itertools.product(*(range(n) for n in dom.points_per_axis)):
        coords = [dom.lower[d] + float(idx[d] * stride[d]) * fine_h[d] for d in range(ndim)]
        rows.append(coords + [float(vals[idx])])
    write_csv(path, header, rows)
