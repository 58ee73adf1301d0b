"""Sampled real or complex functions on uniform boxes.

Cell-centered samples over a finite box in one or two dimensions and the
elementary operators on them (translate, modulate, scale, ...); every norm in
this package reduces to the midpoint rule over these cells.  All values are
immutable after construction and all operations are pure, so everything here
is safe to evaluate in parallel over disjoint inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_GRID_BLOCK_CELLS = 1 << 14  # cells of one block: a slab of `build`, a chunk of a row's log form, CSV rows (128 KiB)

__all__ = [
    "EmptyIndicatorWarning",
    "BoxDomain",
    "GridFunction",
    "Weight",
    "build",
    "indicator",
    "constant",
    "unit_weight",
    "weight_from",
    "translate",
    "modulate",
    "scale",
    "pointwise_abs",
    "pointwise_product",
    "write_grid_csv",
    "read_grid_csv",
]


class EmptyIndicatorWarning(UserWarning):
    """An indicator box that contains no cell center of the domain."""


def _vector(x, name: str, n: int | None = None) -> tuple[float, ...]:
    if np.isscalar(x):
        vals: tuple[float, ...] = (float(x),)
    else:
        vals = tuple(float(v) for v in x)
    if n is not None and len(vals) != n:
        raise ValueError(f"{name}: expected {n} components, got {len(vals)}")
    return vals


def _int_vector(x, name: str, n: int | None = None) -> tuple[int, ...]:
    if np.isscalar(x):
        vals: tuple[int, ...] = (int(x),)
    else:
        vals = tuple(int(v) for v in x)
    if n is not None and len(vals) == 1 and n > 1:
        vals = vals * n
    if n is not None and len(vals) != n:
        raise ValueError(f"{name}: expected {n} components, got {len(vals)}")
    return vals


@dataclass(frozen=True)
class BoxDomain:
    """Uniform cell-centered grid over a finite box in 1 or 2 dimensions.

    The box ``[lower, upper]`` is split into ``points_per_axis`` equal cells
    per axis; samples live at cell centers.  Single-cell axes are permitted
    so that derived lattices (e.g. window-anchor lattices) are first-class
    grids; user-facing surfaces enforce at least two cells per axis.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    points_per_axis: tuple[int, ...]

    def __post_init__(self):
        lo = _vector(self.lower, "lower")
        up = _vector(self.upper, "upper", n=len(lo))
        pts = _int_vector(self.points_per_axis, "points_per_axis", n=len(lo))
        if len(lo) not in (1, 2):
            raise ValueError(f"only 1- and 2-dimensional boxes are supported, got n={len(lo)}")
        for d, (a, b, m) in enumerate(zip(lo, up, pts)):
            if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
                raise ValueError(f"axis {d}: need finite lower < upper, got [{a}, {b}]")
            if not np.isfinite(b - a):
                raise ValueError(f"axis {d}: the extent upper - lower of [{a}, {b}] overflows")
            if m < 1:
                raise ValueError(f"axis {d}: need at least one cell, got {m}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "points_per_axis", pts)

    @property
    def ndim(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    @property
    def size(self) -> int:
        return int(np.prod(self.points_per_axis))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (u - l) / m for l, u, m in zip(self.lower, self.upper, self.points_per_axis)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod([u - l for l, u in zip(self.lower, self.upper)]))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.lower[axis] + (np.arange(self.points_per_axis[axis]) + 0.5) * h

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_centers(d) for d in range(self.ndim)]
        if self.ndim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def refine(self, factor: int = 2) -> "BoxDomain":
        return BoxDomain(
            self.lower, self.upper, tuple(m * factor for m in self.points_per_axis)
        )

    def contains(self, point) -> bool:
        """Whether ``point`` is in the box, to the slack 1e-9 * max(h, 1) of :func:`read_grid_csv`."""
        p = _vector(point, "point", n=self.ndim)
        return all(l - 1e-9 * max(h, 1.0) <= x <= u + 1e-9 * max(h, 1.0)
                   for l, x, u, h in zip(self.lower, p, self.upper, self.spacing))

    def nearest_cell(self, point) -> tuple[int, ...]:
        """Multi-index of the cell whose center is nearest to ``point``."""
        p = _vector(point, "point", n=self.ndim)
        if not self.contains(p):
            raise ValueError(f"point {p} outside domain [{self.lower}, {self.upper}]")
        idx = []
        for x, l, h, m in zip(p, self.lower, self.spacing, self.points_per_axis):
            k = int(np.floor((x - l) / h))
            idx.append(min(max(k, 0), m - 1))
        return tuple(idx)


def _check_same_domain(a, b, what: str) -> None:
    if a.domain != b.domain:
        raise ValueError(f"domain mismatch in {what}: {a.domain} vs {b.domain}")


def _frozen(values: np.ndarray, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array of ``shape``: kept (reshaped as a view where
    it can be) when no one can write it, else copied."""
    base = values.base
    kept = (
        values.dtype == dtype
        and not values.flags.writeable
        and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable)
    )
    vals = values.reshape(shape)
    if not kept:
        vals = np.array(vals, dtype=dtype)
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real or complex cell-centered samples of a function on a :class:`BoxDomain`.

    The samples are stored read-only, as float64 when they are real and as
    complex128 when they are complex.  An array that is read-only, already of that
    dtype, and whose base (if any) is read-only too is kept as it is; any other is
    copied, and the caller's array is left as it is.
    """

    domain: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        dtype = np.complex128 if np.iscomplexobj(vals) else np.float64
        vals = _frozen(vals, dtype, self.domain.shape)
        if not np.all(np.isfinite(vals)):
            cell = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            center = tuple(float(self.domain.axis_centers(d)[i]) for d, i in enumerate(cell))
            raise ValueError(f"non-finite sample at cell {cell} (center {center})")
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_domain(self, other, "addition")
        return GridFunction(self.domain, self.values + other.values)

    def __mul__(self, lam) -> "GridFunction":
        return scale(self, lam)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive real samples; plays the role of a weight function.

    Stored as read-only float64, by the rule of :class:`GridFunction`."""

    domain: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("weight values must be real, got complex samples")
        vals = _frozen(np.asarray(self.values), np.float64, self.domain.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("weight contains non-finite values")
        if not np.all(vals > 0.0):
            raise ValueError("weight values must be strictly positive")
        object.__setattr__(self, "values", vals)


def build(domain: BoxDomain, sampler: Callable) -> GridFunction:
    """Sample ``sampler`` at every cell center, slab by slab.

    A slab is a run of axis-0 rows of at most ``_GRID_BLOCK_CELLS`` cells (one row at
    least), so a grid that fits is one slab.  The sampler first gets one coordinate array
    per axis (the slab's cell-center mesh, the bits of ``center_mesh``).  If that raises or
    gives neither a scalar nor the slab's shape, it is called cell by cell with one scalar
    coordinate per axis.  Each slab is written into one read-only array, complex once a
    slab is; :class:`GridFunction` rejects a non-finite sample by its cell and center.
    """
    shape, h = domain.shape, domain.spacing[0]
    tail = [domain.axis_centers(d) for d in range(1, domain.ndim)]
    rows = max(1, _GRID_BLOCK_CELLS // int(np.prod(shape[1:])))
    out = np.empty(shape)
    for start in range(0, shape[0], rows):
        stop = min(start + rows, shape[0])
        head = domain.lower[0] + (np.arange(start, stop) + 0.5) * h
        mesh = tuple(np.meshgrid(head, *tail, indexing="ij")) if tail else (head,)
        slab = _sample_slab(sampler, mesh, (stop - start, *shape[1:]))
        if np.iscomplexobj(slab) and not np.iscomplexobj(out):
            out = out.astype(np.complex128)
        out[start:stop] = slab
    out.setflags(write=False)
    return GridFunction(domain, out)


def _sample_slab(sampler: Callable, mesh: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> np.ndarray:
    """``sampler`` on the cell centers ``mesh`` of one slab of ``shape``: on the mesh at
    once if that gives a scalar or ``shape``, else cell by cell."""
    try:
        cand = np.asarray(sampler(*mesh))
        if cand.shape == ():
            return np.full(shape, cand)
        if cand.shape == shape:
            return cand
    except Exception:
        pass
    cells = np.ndindex(shape)
    return np.array([sampler(*(float(m[idx]) for m in mesh)) for idx in cells]).reshape(shape)


# The sampler families of the CLI's specs, the verification corpus and `indicator`:
# a sampler takes a coordinate array per axis; a factory raises on bad arguments.


def _const(c: float) -> Callable:
    return lambda *xs: c + 0.0 * np.asarray(xs[0], dtype=float)


def _box(lo, hi) -> Callable:
    for d, (a, b) in enumerate(zip(lo, hi)):
        if a > b:
            raise ValueError(f"axis {d}: lower {a} > upper {b}")

    def box(*xs):
        m = np.ones_like(xs[0], dtype=bool)
        for x, a, b in zip(xs, lo, hi):
            m &= (x >= a) & (x <= b)
        return m.astype(float)

    return box


def _gaussian(c, s: float) -> Callable:
    if not s > 0:
        raise ValueError(f"sigma must be positive, got {s}")
    return lambda *xs: np.exp(-sum((x - cd) ** 2 for x, cd in zip(xs, c)) / (2 * s * s))


def _ramp(a: float, b: float) -> Callable:
    if not a < b:
        raise ValueError(f"need a < b, got a = {a}, b = {b}")
    return lambda x: np.where((x >= a) & (x <= b), (x - a) / (b - a), 0.0)


def _bump(c, w: float) -> Callable:
    if not w > 0:
        raise ValueError(f"width must be positive, got {w}")

    def bump(*xs):
        u2 = sum(((x - cd) / w) ** 2 for x, cd in zip(xs, c))
        inside = u2 < 1.0
        return np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - u2, 1.0)), 0.0)

    return bump


# Per family, by its name in a CLI spec: the factory, the count of the spec's numbers on
# an n-D box (None: on no such box), what they are, and their split into its arguments.
_SAMPLERS = {
    "const": (_const, lambda n: 1, "the value", lambda v, n: v),
    "indicator": (_box, lambda n: 2 * n, "a lower,upper pair per axis", lambda v, n: (v[0::2], v[1::2])),
    "gaussian": (_gaussian, lambda n: n + 1, "a center per axis and a sigma", lambda v, n: (v[:n], v[n])),
    "ramp": (_ramp, lambda n: 2 if n == 1 else None, "a and b (1-D only)", lambda v, n: v),
    "bump": (_bump, lambda n: n + 1, "a center per axis and a width", lambda v, n: (v[:n], v[n])),
}


def constant(domain: BoxDomain, value=1.0) -> GridFunction:
    return GridFunction(domain, np.full(domain.shape, value))


def indicator(domain: BoxDomain, set_lower, set_upper) -> GridFunction:
    """Characteristic function of the box ``[set_lower, set_upper]``.

    A cell counts as inside when its center lies in the closed box.  If no
    center does, the all-zero function is returned with an
    :class:`EmptyIndicatorWarning`; lower > upper on an axis is a ValueError.
    """
    lo = _vector(set_lower, "set_lower", n=domain.ndim)
    up = _vector(set_upper, "set_upper", n=domain.ndim)
    values = _box(lo, up)(*domain.center_mesh())
    if not values.any():
        warnings.warn(
            f"indicator box [{lo}, {up}] misses every cell center", EmptyIndicatorWarning
        )
    return GridFunction(domain, values)


def unit_weight(domain: BoxDomain) -> Weight:
    return Weight(domain, np.ones(domain.shape))


def weight_from(domain: BoxDomain, sampler: Callable) -> Weight:
    """Sample a strictly positive weight function at the cell centers."""
    return Weight(domain, build(domain, sampler).values)


def translate(f: GridFunction, shift) -> GridFunction:
    """Shift by whole cells; cells shifted in from outside the box are zero."""
    s = _int_vector(shift, "shift", n=f.domain.ndim)
    out = np.zeros_like(f.values)
    src, dst = [], []
    for k, n in zip(s, f.domain.shape):
        if abs(k) >= n:
            return GridFunction(f.domain, out)
        src.append(slice(max(0, -k), n - max(0, k)))
        dst.append(slice(max(0, k), n - max(0, -k)))
    out[tuple(dst)] = f.values[tuple(src)]
    return GridFunction(f.domain, out)


def modulate(f: GridFunction, xi) -> GridFunction:
    """Multiply pointwise by the unimodular character exp(i <xi, t>)."""
    x = _vector(xi, "xi", n=f.domain.ndim)
    mesh = f.domain.center_mesh()
    phase = sum(x[d] * mesh[d] for d in range(f.domain.ndim))
    return GridFunction(f.domain, f.values * np.exp(1j * phase))


def scale(f: GridFunction, lam) -> GridFunction:
    return GridFunction(f.domain, f.values * lam)


def pointwise_abs(f: GridFunction) -> GridFunction:
    return GridFunction(f.domain, np.abs(f.values))


def pointwise_product(f: GridFunction, g: GridFunction) -> GridFunction:
    _check_same_domain(f, g, "pointwise product")
    return GridFunction(f.domain, f.values * g.values)


def _write_cell_csv(path, f: GridFunction, **int_columns: np.ndarray) -> None:
    """The grid CSV layout of ``f`` with ``int_columns`` appended, one row per cell.

    Rows are written through one open file in blocks of ``_GRID_BLOCK_CELLS`` cells.  A
    block's columns are zipped from ``tolist()`` and each row is rendered by one
    %-template; '%d' and '%.17g' give the text of :func:`reporting.fmt`.  Each axis's
    centres are formatted once and indexed per block as ``center_mesh`` meshes them; the
    ``im`` column of real samples is the constant 0 in the template.
    """
    dom = f.domain
    flat = f.values.reshape(-1)
    extra = [c.reshape(-1) for c in int_columns.values()]
    header = ["index", *(f"x{d}" for d in range(dom.ndim)), "re", "im", *int_columns]
    centres = [
        np.array(["%.17g" % x for x in dom.axis_centers(d).tolist()], dtype=object)
        for d in range(dom.ndim)
    ]
    parts = [flat.real, flat.imag] if np.iscomplexobj(flat) else [flat.real]
    template = ",".join(["%d"] + ["%s"] * dom.ndim + ["%.17g", "%.17g" if len(parts) > 1 else "0"]
                        + ["%d"] * len(extra))
    with Path(path).open("w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, dom.size, _GRID_BLOCK_CELLS):
            cells = range(start, min(start + _GRID_BLOCK_CELLS, dom.size))
            index = np.unravel_index(np.arange(cells.start, cells.stop), dom.shape)
            columns = [
                cells,
                *(c[i].tolist() for c, i in zip(centres, index)),
                *(c[cells.start : cells.stop].tolist() for c in parts + extra),
            ]
            out.write("\n".join(template % row for row in zip(*columns)))
            out.write("\n")


def write_grid_csv(f: GridFunction, path) -> None:
    """One row per cell: flat index, center coordinates, re, im."""
    _write_cell_csv(path, f)


def read_grid_csv(path) -> GridFunction:
    """Rebuild a grid function from the CSV layout of :func:`write_grid_csv`.

    The uniform domain is inferred from the center coordinates; every axis
    needs at least two distinct centers.  The index column must hold each
    of 0..N-1 exactly once, and every row's coordinates must be the center
    of the cell its index names (C order in 2-D).
    """
    with Path(path).open() as lines:
        first = next((ln for ln in lines if ln.strip()), None)
        if first is None:
            raise ValueError(f"{path}: empty grid CSV")
        header = first.rstrip("\r\n").split(",")
        ndim = len(header) - 3
        if header[0] != "index" or ndim not in (1, 2):
            raise ValueError(f"{path}: unrecognized grid CSV header {header!r}")
        try:
            with warnings.catch_warnings():  # a header alone is no data, and fails below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        data = data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} fields, expected {len(header)}")
    index = data[:, 0]
    if not np.array_equal(index, np.floor(index)):
        bad = index[np.flatnonzero(index != np.floor(index))[0]]
        raise ValueError(f"{path}: index {bad!r} is not an integer")
    order = np.argsort(index, kind="stable")
    data = data[order]
    index = index[order]
    dup = np.flatnonzero(index[1:] == index[:-1])
    if dup.size:
        raise ValueError(f"{path}: index {int(index[dup[0]])} appears more than once")
    missing = np.flatnonzero(index != np.arange(index.size))
    if missing.size:
        raise ValueError(
            f"{path}: index {int(missing[0])} is missing; the index column must hold "
            f"each of 0..{index.size - 1} once"
        )
    coords = [data[:, 1 + d] for d in range(ndim)]
    vals = np.empty(index.size, dtype=np.complex128)
    vals.real, vals.imag = data[:, ndim + 1], data[:, ndim + 2]
    lower, upper, points = [], [], []
    for ax in coords:
        centers = np.unique(ax)
        if centers.size < 2:
            raise ValueError(f"{path}: need at least two cells per axis to infer the grid")
        steps = np.diff(centers)
        h = float(steps.min())
        if not np.allclose(steps, h, rtol=0, atol=1e-9 * max(h, 1.0)):
            raise ValueError(f"{path}: cell centers are not uniformly spaced")
        lower.append(float(centers[0] - h / 2))
        upper.append(float(centers[-1] + h / 2))
        points.append(centers.size)
    dom = BoxDomain(tuple(lower), tuple(upper), tuple(points))
    if vals.size != dom.size:
        raise ValueError(f"{path}: {vals.size} rows do not fill a {dom.shape} grid")
    off = np.zeros(vals.size, dtype=bool)
    for ax, mesh, h in zip(coords, dom.center_mesh(), dom.spacing):
        off |= np.abs(ax - mesh.reshape(-1)) > 1e-9 * max(h, 1.0)
    if off.any():
        k = int(np.flatnonzero(off)[0])
        raise ValueError(
            f"{path}: the row with index {k} has coordinates "
            f"{tuple(float(ax[k]) for ax in coords)}, not the center of cell {k}"
        )
    return GridFunction(dom, vals.reshape(dom.shape))
