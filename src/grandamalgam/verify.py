"""Executable proposition checks over a seeded corpus of grid functions.

Each check turns one claim about amalgam norms or the maximal operator into
a deterministic experiment: asserted inequalities carry explicit margins and
tolerances, existence-of-a-constant claims are REPORT_ONLY with an empirical
constant and a resolution-stability assertion, and unboundedness is
certified by logarithmic growth in the truncation parameter rather than by
a literal infinity.  Checks are independent and deterministic given
(seed, configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .amalgam import (
    AmalgamSpec,
    ClassicalSpace,
    GrandSpace,
    WindowSpec,
    amalgam_norm,
    control_function,
    lattice_weight,
    mixed_norm_family,
)
from .gridfn import (
    BoxDomain,
    GridFunction,
    Weight,
    build,
    constant,
    indicator,
    modulate,
    pointwise_abs,
    pointwise_product,
    scale,
    translate,
    unit_weight,
    weight_diagnostics,
    weight_from,
)
from .maximal import RadiusSet, maximal_fast
from .norms import EpsGrid, GrandParams, sup_eps_factor
from .reporting import CheckResult, Verdict

__all__ = [
    "CorpusEntry",
    "Corpus",
    "build_corpus",
    "check_norm_axioms",
    "check_solidity_and_monotone",
    "check_invariance",
    "check_inclusion_norm_equivalence",
    "check_embedding_classical_into_grand",
    "check_embedding_grand_into_mixed",
    "check_nesting_in_p",
    "check_pointwise_product",
    "check_vanishing_limit",
    "check_maximal_bounded",
    "check_maximal_unbounded",
    "run_all_checks",
]

_TINY = 1e-300

COMPACT_FAMILIES = ("indicator", "ramp", "modulated_bump")


# ----------------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    name: str
    family: str
    sampler: Callable
    gridfn: GridFunction


@dataclass(frozen=True, eq=False)
class Corpus:
    """Deterministic, seeded test functions; re-realizable on finer grids."""

    seed: int
    domain: BoxDomain
    entries: tuple[CorpusEntry, ...]

    def realized_on(self, domain: BoxDomain) -> "Corpus":
        return Corpus(
            self.seed,
            domain,
            tuple(
                CorpusEntry(e.name, e.family, e.sampler, build(domain, e.sampler))
                for e in self.entries
            ),
        )

    def compact(self) -> tuple[CorpusEntry, ...]:
        return tuple(e for e in self.entries if e.family in COMPACT_FAMILIES)


def _gaussian(c: float, s: float) -> Callable:
    return lambda x: np.exp(-((x - c) ** 2) / (2.0 * s * s))


def _box_indicator(a: float, b: float) -> Callable:
    return lambda x: ((np.asarray(x, dtype=float) >= a) & (np.asarray(x, dtype=float) <= b)).astype(
        float
    )


def _ramp(a: float, b: float) -> Callable:
    def s(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        return np.where(inside, (x - a) / (b - a), 0.0)

    return s


def _smooth_bump(c: float, w: float) -> Callable:
    def s(x):
        u = (np.asarray(x, dtype=float) - c) / w
        inside = np.abs(u) < 1.0
        denom = np.where(inside, 1.0 - u * u, 1.0)
        return np.where(inside, np.exp(1.0 - 1.0 / denom), 0.0)

    return s


def _modulated_bump(c: float, w: float, xi: float) -> Callable:
    bump = _smooth_bump(c, w)
    return lambda x: bump(x) * np.exp(1j * xi * np.asarray(x, dtype=float))


def _gaussian_mixture(centers, sigmas, amps) -> Callable:
    parts = [(_gaussian(c, s), a) for c, s, a in zip(centers, sigmas, amps)]

    def s(x):
        return sum(a * g(x) for g, a in parts)

    return s


def build_corpus(domain: BoxDomain, seed: int = 7) -> Corpus:
    """Gaussians, indicators, ramps, modulated bumps, and random smooth fields.

    All supports sit well inside the inner half of the box so translation
    experiments have room; gaussian tails are kept below double rounding at
    the boundary.
    """
    if domain.ndim != 1:
        raise ValueError("the verification corpus is one-dimensional")
    rng = np.random.default_rng(seed)
    lo, up = domain.lower[0], domain.upper[0]
    length = up - lo
    mid = 0.5 * (lo + up)

    def center() -> float:
        return float(mid + rng.uniform(-0.1, 0.1) * length)

    entries: list[tuple[str, str, Callable]] = []
    for k in range(2):
        sigma = float(length * rng.uniform(1.0 / 80.0, 1.0 / 55.0))
        entries.append((f"gaussian-{k}", "gaussian", _gaussian(center(), sigma)))
    for k in range(2):
        a = center() - rng.uniform(0.02, 0.08) * length
        b = a + rng.uniform(0.05, 0.15) * length
        entries.append((f"indicator-{k}", "indicator", _box_indicator(float(a), float(b))))
    a = center() - 0.06 * length
    entries.append(("ramp-0", "ramp", _ramp(float(a), float(a + 0.12 * length))))
    for k in range(2):
        w = float(length * rng.uniform(0.05, 0.12))
        xi = float(rng.uniform(1.0, 6.0))
        entries.append((f"modulated_bump-{k}", "modulated_bump", _modulated_bump(center(), w, xi)))
    for k in range(2):
        m = 4
        centers = [center() for _ in range(m)]
        sigmas = [float(length * rng.uniform(1.0 / 80.0, 1.0 / 55.0)) for _ in range(m)]
        amps = [float(rng.uniform(-1.0, 1.0)) for _ in range(m)]
        entries.append(
            (f"random_smooth-{k}", "random_smooth", _gaussian_mixture(centers, sigmas, amps))
        )

    realized = tuple(
        CorpusEntry(name, family, sampler, build(domain, sampler))
        for name, family, sampler in entries
    )
    return Corpus(seed, domain, realized)


# ----------------------------------------------------------------------------
# Small helpers shared by the checks
# ----------------------------------------------------------------------------


def _value(f: GridFunction, spec: AmalgamSpec) -> float:
    return amalgam_norm(f, spec).value


def _margin_state():
    return {"worst": None, "rows": []}


def _push(state, case: str, margin: float, **extra) -> None:
    row = {"case": case, "margin": margin}
    row.update(extra)
    state["rows"].append(row)
    if state["worst"] is None or margin < state["worst"][1]:
        state["worst"] = (case, margin)


def _finish(name: str, state, tol: float, notes=None, constant=None, report_only=False) -> CheckResult:
    ok = state["worst"] is None or state["worst"][1] >= -tol
    if report_only:
        verdict = Verdict.REPORT_ONLY if ok else Verdict.FAIL
    else:
        verdict = Verdict.PASS if ok else Verdict.FAIL
    return CheckResult(
        name=name,
        verdict=verdict,
        worst_case=state["worst"],
        estimated_constant=constant,
        details=tuple(state["rows"]),
        tolerance=tol,
        notes=notes or {},
    )


def _resolutions(corpus: Corpus, window: WindowSpec | None, *samplers: Callable, factors=(1, 2)):
    """(factor, corpus, window, weights) on the corpus grid refined by each factor.

    The corpus is realised again on the refined grid, the window is scaled to
    the same physical size, and each sampler becomes a weight on that grid.
    """
    for factor in factors:
        dom = corpus.domain if factor == 1 else corpus.domain.refine(factor)
        corp = corpus if factor == 1 else corpus.realized_on(dom)
        win = None if window is None else window.scaled(factor)
        yield factor, corp, win, [weight_from(dom, sampler) for sampler in samplers]


def _constant_result(name: str, stable: bool, rows: list, constants: list, **notes) -> CheckResult:
    """An empirical-constant claim: REPORT_ONLY if the constant is stable, else FAIL."""
    return CheckResult(
        name=name,
        verdict=Verdict.REPORT_ONLY if stable else Verdict.FAIL,
        worst_case=None,
        estimated_constant=constants[-1],
        details=tuple(rows),
        tolerance=None,
        notes={"constants": constants, **notes},
    )


def _unit_clone(spec: AmalgamSpec, domain: BoxDomain) -> AmalgamSpec:
    """Same exponents, all weights replaced by one (translation branch)."""

    def strip(space):
        if isinstance(space, ClassicalSpace):
            return ClassicalSpace(space.p, None)
        return GrandSpace(space.params.with_grandizer(unit_weight(domain)))

    return AmalgamSpec(strip(spec.local_space), strip(spec.global_space), spec.window)


def _grand_pair_spec(
    p: float, q: float, aw: Weight, bw: Weight, window: WindowSpec
) -> AmalgamSpec:
    return AmalgamSpec(
        GrandSpace(GrandParams(p, aw)), GrandSpace(GrandParams(q, bw)), window
    )


def _two_stage_excess(
    f: GridFunction, params: GrandParams, window: WindowSpec, eps_values: Sequence[float]
) -> float:
    """Worst relative excess of eps^theta * classical control over grand control.

    The sup definition makes this nonpositive for every eps on the grid; it
    is re-checked inside the embedding checks as a consistency guard.
    """
    grand_cf = control_function(f, GrandSpace(params), window)
    scale_ = max(float(np.max(grand_cf.values)), _TINY)
    worst = -np.inf
    for eps in eps_values:
        wder = Weight(f.domain, params.weight_power(eps))
        cl = control_function(f, ClassicalSpace(params.p - eps, wder), window)
        excess = (eps**params.theta) * cl.values - grand_cf.values
        worst = max(worst, float(np.max(excess)) / scale_)
    return worst


def _curve_guard(report) -> float:
    """Worst relative excess of a curve term over the reported sup value."""
    if not report.curve:
        return -np.inf
    scale_ = max(report.value, _TINY)
    return max((term - report.value) / scale_ for _, _, term in report.curve)


# ----------------------------------------------------------------------------
# Norm properties (axioms, solidity, monotone convergence, invariance)
# ----------------------------------------------------------------------------


def check_norm_axioms(corpus: Corpus, spec: AmalgamSpec, tol: float = 1e-10) -> CheckResult:
    """Non-negativity, definiteness, homogeneity, and the triangle inequality."""
    state = _margin_state()
    zero = constant(corpus.domain, 0.0)
    zero_norm = _value(zero, spec)
    _push(state, "zero-function", -abs(zero_norm), value=zero_norm)

    values = {}
    for e in corpus.entries:
        v = _value(e.gridfn, spec)
        values[e.name] = v
        _push(state, f"nonneg:{e.name}", v, value=v)
        if np.any(e.gridfn.values != 0):
            # definiteness: nonzero samples must give a strictly positive norm
            _push(state, f"definite:{e.name}", v if v > 0.0 else -1.0, value=v)
        hom = _value(scale(e.gridfn, 3.0), spec)
        dev = abs(hom - 3.0 * v) / max(3.0 * v, _TINY)
        _push(state, f"homogeneity:{e.name}", tol - dev, ratio=hom / max(3.0 * v, _TINY))

    names = list(values)
    pairs = [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]
    for na, nb in pairs[:12]:
        fa = next(e.gridfn for e in corpus.entries if e.name == na)
        fb = next(e.gridfn for e in corpus.entries if e.name == nb)
        s = _value(fa + fb, spec)
        scale_ = max(values[na] + values[nb], _TINY)
        _push(state, f"triangle:{na}+{nb}", (values[na] + values[nb] - s) / scale_, sum_norm=s)

    return _finish("norm_axioms", state, tol)


def check_solidity_and_monotone(
    corpus: Corpus, spec: AmalgamSpec, tol: float = 1e-12, n_truncations: int = 5
) -> CheckResult:
    """Solidity under pointwise domination and monotone truncation convergence."""
    state = _margin_state()
    rng = np.random.default_rng(corpus.seed + 1)
    dom = corpus.domain
    lo, up = dom.lower[0], dom.upper[0]
    mid = 0.5 * (lo + up)

    for e in corpus.entries:
        base = _value(e.gridfn, spec)
        scale_ = max(base, _TINY)

        half = _value(scale(e.gridfn, 0.5), spec)
        _push(state, f"half-scale:{e.name}", 1e-10 - abs(half / scale_ - 0.5), ratio=half / scale_)

        mask = GridFunction(dom, rng.uniform(0.0, 1.0, dom.shape))
        masked = _value(pointwise_product(e.gridfn, mask), spec)
        _push(state, f"solidity-mask:{e.name}", (base - masked) / scale_ + tol, value=masked)

        left = pointwise_product(e.gridfn, indicator(dom, lo, mid))
        _push(state, f"solidity-left:{e.name}", (base - _value(left, spec)) / scale_ + tol)

        fa = pointwise_abs(e.gridfn)
        full = _value(fa, spec)
        prev = -np.inf
        last = None
        for j in range(1, n_truncations + 1):
            radius = 0.5 * (up - lo) * j / n_truncations
            fj = pointwise_product(fa, indicator(dom, mid - radius, mid + radius))
            vj = _value(fj, spec)
            _push(state, f"monotone:{e.name}:{j}", (vj - prev) / max(full, _TINY) + tol, value=vj)
            prev = vj
            last = vj
        _push(
            state,
            f"limit:{e.name}",
            tol - abs(last - full) / max(full, _TINY),
            final=last,
            full=full,
        )

    return _finish("solidity_monotone", state, tol)


def check_invariance(
    corpus: Corpus,
    spec: AmalgamSpec,
    n_modulation: int = 50,
    tol_translation: float = 1e-10,
    tol_modulation: float = 1e-12,
) -> CheckResult:
    """Translation invariance (unit weights) and modulation invariance.

    Translation uses compactly supported entries shifted by multiples of the
    window stride (so window contents are relabeled, not resampled); the
    shifted support stays inside the box.  Modulation keeps the original
    weights: only |f| enters any stage.
    """
    state = _margin_state()
    dom = corpus.domain
    uspec = _unit_clone(spec, dom)
    stride = uspec.window.for_ndim(dom.ndim).stride_cells[0]
    quarter = dom.points_per_axis[0] // 4
    shifts = sorted({stride, 2 * stride, max(stride, (quarter // stride) * stride)})

    for e in corpus.compact():
        base = _value(e.gridfn, uspec)
        scale_ = max(base, _TINY)
        for s in shifts:
            for sgn in (+1, -1):
                moved = _value(translate(e.gridfn, sgn * s), uspec)
                _push(
                    state,
                    f"translate:{e.name}:{sgn * s}",
                    tol_translation - abs(moved - base) / scale_,
                    shifted=moved,
                    base=base,
                )

    rng = np.random.default_rng(corpus.seed + 2)
    entries = corpus.entries
    for k in range(n_modulation):
        e = entries[k % len(entries)]
        xi = float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
        base = _value(e.gridfn, spec)
        modded = _value(modulate(e.gridfn, xi), spec)
        _push(
            state,
            f"modulate:{e.name}:{k}",
            tol_modulation - abs(modded - base) / max(base, _TINY),
            xi=xi,
        )

    return _finish(
        "invariance",
        state,
        0.0,
        notes={"tol_translation": tol_translation, "tol_modulation": tol_modulation},
    )


# ----------------------------------------------------------------------------
# Inclusions and embeddings
# ----------------------------------------------------------------------------


def check_inclusion_norm_equivalence(
    corpus: Corpus,
    spec_a,
    spec_b,
    window: WindowSpec | None = None,
    growth_factor: float = 2.0,
) -> CheckResult:
    """Empirical inclusion constant C = sup ||f||_B / ||f||_A over the corpus.

    ``spec_a``/``spec_b`` may be :class:`AmalgamSpec` instances (single
    resolution) or builders ``(domain, window) -> AmalgamSpec``; with
    builders the constant is recomputed on a doubled grid and flagged if it
    grows by more than ``growth_factor``.
    """

    def materialize(spec_or_builder, domain, win):
        if callable(spec_or_builder):
            if win is None:
                raise ValueError("spec builders need an explicit window")
            return spec_or_builder(domain, win)
        return spec_or_builder

    refinable = callable(spec_a) and callable(spec_b) and window is not None
    rows = []
    constants = []
    for factor, corp, win, _ in _resolutions(corpus, window, factors=(1, 2) if refinable else (1,)):
        sa = materialize(spec_a, corp.domain, win)
        sb = materialize(spec_b, corp.domain, win)
        best = 0.0
        for e in corp.entries:
            va = _value(e.gridfn, sa)
            vb = _value(e.gridfn, sb)
            if va <= _TINY:
                continue
            ratio = vb / va
            best = max(best, ratio)
            rows.append({"case": f"{e.name}@x{factor}", "margin": ratio, "norm_a": va, "norm_b": vb})
        constants.append(best)

    notes = {"growth_factor": growth_factor}
    stable = True
    if len(constants) == 2 and constants[0] > 0:
        trend = constants[1] / constants[0]
        notes["trend"] = trend
        stable = trend <= growth_factor
    return _constant_result("inclusion_equivalence", stable, rows, constants, **notes)


def check_embedding_classical_into_grand(
    corpus: Corpus,
    p: float,
    q: float,
    a: Callable,
    b: Callable,
    window: WindowSpec,
    tol: float = 1e-10,
) -> CheckResult:
    """W(classical p, q) controls W(grand a, b) with the explicit Hölder constant.

    The constant C_H multiplies the two closed-form factors
    sup_eps eps * mass^(eps/(p(p-eps))) for the local grandizer mass and the
    lattice-reduced global mass; the per-entry inequality
    ||f||_grand <= C_H ||f||_classical is asserted at two resolutions.
    """
    state = _margin_state()
    constants = {}
    empirical = 0.0
    guards = {}
    for factor, corp, win, (aw, bw) in _resolutions(corpus, window, a, b):
        dom = corp.domain
        gspec = _grand_pair_spec(p, q, aw, bw, win)
        cspec = AmalgamSpec(ClassicalSpace(p), ClassicalSpace(q), win)
        mass_a = float(np.sum(aw.values) * dom.cell_volume)
        blat = lattice_weight(bw, win, dom)
        mass_b = float(np.sum(blat.values) * blat.domain.cell_volume)
        c_h = sup_eps_factor(mass_a, p) * sup_eps_factor(mass_b, q)
        constants[f"x{factor}"] = c_h
        for e in corp.entries:
            lhs = _value(e.gridfn, gspec)
            cls = _value(e.gridfn, cspec)
            rhs = c_h * cls
            margin = (rhs - lhs) / max(rhs, _TINY)
            _push(state, f"{e.name}@x{factor}", margin, grand=lhs, classical=cls, bound=rhs)
            if cls > _TINY:
                empirical = max(empirical, lhs / cls)
        first = corp.entries[0].gridfn
        params = GrandParams(p, aw)
        eps_probe = (params.eps_grid.values[len(params.eps_grid.values) // 2],
                     params.eps_grid.values[-1])
        guards[f"two_stage@x{factor}"] = _two_stage_excess(first, params, win, eps_probe)
        guards[f"outer_curve@x{factor}"] = _curve_guard(amalgam_norm(first, gspec))

    guard_worst = max(guards.values())
    if guard_worst > 1e-12:
        _push(state, "sup-definition-guard", -guard_worst)
    return _finish(
        "embedding_classical_grand",
        state,
        tol,
        notes={"holder_constant": constants, "empirical_constant": empirical, "guards": guards},
        constant=empirical,
    )


def check_embedding_grand_into_mixed(
    corpus: Corpus, spec: AmalgamSpec, eps: float, eta: float, tol: float = 1e-10
) -> CheckResult:
    """eps^theta eta^theta * mixed member norm is below the grand amalgam norm.

    The requested (eps, eta) are added to the evaluation grids so the sup
    definition bound is exact rather than grid-gapped.
    """
    if not isinstance(spec.local_space, GrandSpace) or not isinstance(spec.global_space, GrandSpace):
        raise ValueError("check needs grand local and global stages")
    lp = spec.local_space.params
    gq = spec.global_space.params
    augmented = AmalgamSpec(
        GrandSpace(lp.with_extra_eps(eps)),
        GrandSpace(gq.with_extra_eps(eta)),
        spec.window,
    )
    state = _margin_state()
    for e in corpus.entries:
        mixed = mixed_norm_family(e.gridfn, augmented, eps, eta)
        lhs = (eps**lp.theta) * (eta**gq.theta) * mixed
        rhs = _value(e.gridfn, augmented)
        _push(state, e.name, (rhs - lhs) / max(rhs, _TINY), mixed=mixed, grand=rhs)
    return _finish(
        "embedding_grand_mixed", state, tol, notes={"eps": eps, "eta": eta}
    )


def check_nesting_in_p(
    corpus: Corpus,
    p1: float,
    p2: float,
    q: float,
    a: Callable,
    b: Callable,
    window: WindowSpec,
    stability_factor: float = 2.0,
) -> CheckResult:
    """Empirical constant of W(grand p2) -> W(grand p1) for p1 <= p2."""
    if p1 > p2:
        raise ValueError("need p1 <= p2")
    rows = []
    constants = []
    for factor, corp, win, (aw, bw) in _resolutions(corpus, window, a, b):
        s1 = _grand_pair_spec(p1, q, aw, bw, win)
        s2 = _grand_pair_spec(p2, q, aw, bw, win)
        best = 0.0
        for e in corp.entries:
            v2 = _value(e.gridfn, s2)
            if v2 <= _TINY:
                continue
            v1 = _value(e.gridfn, s1)
            best = max(best, v1 / v2)
            rows.append({"case": f"{e.name}@x{factor}", "margin": v1 / v2, "p1": v1, "p2": v2})
        constants.append(best)
    stable = (
        constants[0] > 0
        and 1.0 / stability_factor <= constants[1] / constants[0] <= stability_factor
    )
    return _constant_result(
        "nesting_in_p", stable, rows, constants, stability_factor=stability_factor
    )


def check_pointwise_product(
    corpus: Corpus,
    p_triple: tuple[float, float, float],
    q_triple: tuple[float, float, float],
    a: Callable,
    window: WindowSpec,
    stability_factor: float = 2.0,
    max_pairs: int = 8,
) -> CheckResult:
    """Empirical constant in ||fg||_3 <= C ||f||_1 ||g||_2 for Hölder triples."""
    p1, p2, p3 = p_triple
    q1, q2, q3 = q_triple
    if abs(1.0 / p3 - 1.0 / p1 - 1.0 / p2) > 1e-9 or abs(1.0 / q3 - 1.0 / q1 - 1.0 / q2) > 1e-9:
        raise ValueError("exponent triples must satisfy 1/p3 = 1/p1 + 1/p2 (and likewise in q)")
    rows = []
    constants = []
    for factor, corp, win, (aw,) in _resolutions(corpus, window, a):
        specs = [
            _grand_pair_spec(pi, qi, aw, aw, win)
            for pi, qi in ((p1, q1), (p2, q2), (p3, q3))
        ]
        entries = corp.entries
        pairs = [(entries[i], entries[(i + 1) % len(entries)]) for i in range(len(entries))]
        best = 0.0
        for ef, eg in pairs[:max_pairs]:
            vf = _value(ef.gridfn, specs[0])
            vg = _value(eg.gridfn, specs[1])
            if vf * vg <= _TINY:
                continue
            vfg = _value(pointwise_product(ef.gridfn, eg.gridfn), specs[2])
            ratio = vfg / (vf * vg)
            best = max(best, ratio)
            rows.append(
                {"case": f"{ef.name}*{eg.name}@x{factor}", "margin": ratio, "product_norm": vfg}
            )
        constants.append(best)
    stable = constants[0] > 0 and constants[1] <= stability_factor * constants[0]
    return _constant_result(
        "pointwise_product", stable, rows, constants, stability_factor=stability_factor
    )


def check_vanishing_limit(
    f: GridFunction, spec: AmalgamSpec, fraction: float = 0.01
) -> CheckResult:
    """The curve eps * ||f||_mixed(eps, eps) decays to ~0 as eps -> 0.

    Asserts the three smallest geometric-grid values decrease and the last
    one is below ``fraction`` of the grand amalgam norm.  eps serves both
    stages, so the grid ends at min(p-1, q-1).
    """
    if not isinstance(spec.local_space, GrandSpace) or not isinstance(spec.global_space, GrandSpace):
        raise ValueError("check needs grand local and global stages")
    lp = spec.local_space.params
    gq = spec.global_space.params
    top = min(lp.p, gq.p) - 1.0
    grid = EpsGrid.geometric(top + 1.0, count=lp.eps_grid.count)
    values = [(eps, eps * mixed_norm_family(f, spec, eps, eps)) for eps in grid.values]
    full = _value(f, spec)
    state = _margin_state()
    for eps, v in values:
        state["rows"].append({"case": f"eps={eps:.6g}", "margin": v, "curve_value": v})
    v0, v1, v2 = (values[i][1] for i in range(3))
    scale_ = max(full, _TINY)
    _push(state, "decreasing:small", (v1 - v0) / scale_, v_small=v0, v_next=v1)
    _push(state, "decreasing:next", (v2 - v1) / scale_, v_next=v1, v_third=v2)
    _push(state, "final-fraction", fraction - v0 / scale_, final=v0, amalgam=full)
    return _finish(
        "vanishing_limit", state, 0.0, notes={"fraction": fraction, "amalgam_norm": full}
    )


# ----------------------------------------------------------------------------
# Maximal operator
# ----------------------------------------------------------------------------


def check_maximal_bounded(
    corpus: Corpus,
    p: float,
    q: float,
    r: float,
    a: Callable,
    b: Callable,
    window: WindowSpec,
    drift: float = 0.25,
) -> CheckResult:
    """Boundedness signature of M : W(L^r, L^q) -> W(grand p, q).

    The empirical operator constant must move by at most ``drift`` when the
    grid resolution doubles; any finite radius set makes the measured
    constant a lower bound, which is conservative here.
    """
    if not (p <= q <= r):
        raise ValueError("need p <= q <= r")
    rows = []
    constants = []
    for factor, corp, win, (aw, bw) in _resolutions(corpus, window, a, b):
        target = _grand_pair_spec(p, q, aw, bw, win)
        source = AmalgamSpec(ClassicalSpace(r), ClassicalSpace(q), win)
        radii = RadiusSet.full(corp.domain)
        best = 0.0
        for e in corp.entries:
            src = _value(e.gridfn, source)
            if src <= _TINY:
                continue
            mf = maximal_fast(e.gridfn, radii).mf
            ratio = _value(mf, target) / src
            best = max(best, ratio)
            rows.append({"case": f"{e.name}@x{factor}", "margin": ratio})
        constants.append(best)
    change = abs(constants[1] - constants[0]) / max(constants[0], _TINY)
    return _constant_result(
        "maximal_bounded", change <= drift, rows, constants,
        relative_change=change, drift_allowance=drift,
    )


def _omega_notes(dom: BoxDomain, q: float, omega: Callable | None) -> dict:
    """Hypothesis diagnostics for the weighted global stage (recorded, not asserted)."""
    r_conj = q / (q - 1.0)
    variants: dict[str, Callable] = {
        "unit": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "exp_decay": lambda x: np.exp(-np.abs(np.asarray(x, dtype=float))),
    }
    if omega is not None:
        variants["custom"] = omega
    out = {}
    for name, sampler in variants.items():
        w = weight_from(dom, sampler)
        diag = weight_diagnostics(w, pair_samples=128, seed=11)
        conj_mass = float(np.sum(w.values ** (-r_conj / q)) * dom.cell_volume)
        out[name] = {
            "l1_mass": diag.l1_mass,
            "min_value": diag.min_value,
            "is_unit_lower_bounded": diag.is_unit_lower_bounded,
            "submultiplicativity_defect": diag.submultiplicativity_defect,
            "conjugate_integrability_mass": conj_mass,
        }
    return out


def check_maximal_unbounded(
    E_halfwidth: float = 1.0,
    T_list: Sequence[float] = (4.0, 8.0, 16.0, 32.0, 64.0),
    q: float = 2.0,
    omega: Callable | None = None,
    points_per_unit: int = 16,
    pad: float = 2.0,
    slope_lower: float = 0.8,
) -> CheckResult:
    """Unboundedness signature: truncated L^1 norms of M chi_E grow like log T.

    M chi_E has tail |E| / (2|x|) + O(x^-2), so the truncated L^1 norm gains
    |E| per unit of log T while ||chi_E||_1 stays fixed; the least-squares
    slope, normalized by the analytic tail mass |E| = 2 * E_halfwidth, must
    reach ``slope_lower``.  The ratio of norms therefore diverges, which is
    the certificate.  The grid extends pad * max(T) so ball clipping never
    touches the probed region.
    """
    ts = sorted(float(t) for t in T_list)
    if len(ts) < 4:
        raise ValueError("need at least four truncation lengths")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("truncation lengths must be strictly increasing")
    if q <= 1.0:
        raise ValueError("need q > 1")
    half = pad * ts[-1]
    n = int(round(2.0 * half * points_per_unit))
    dom = BoxDomain(-half, half, n)
    chi = indicator(dom, -E_halfwidth, E_halfwidth)
    mf = np.real(maximal_fast(chi, RadiusSet.full(dom)).mf.values)
    centers = dom.axis_centers(0)
    h = dom.spacing[0]

    rows = []
    norms_t = []
    masses = []
    for t in ts:
        mask = np.abs(centers) <= t
        val = float(np.sum(mf[mask]) * h)
        mass = float(np.sum(np.real(chi.values)[mask]) * h)
        norms_t.append(val)
        masses.append(mass)
        rows.append({"case": f"T={t:g}", "T": t, "log_T": math.log(t), "norm": val, "indicator_mass": mass})

    slope = float(np.polyfit([math.log(t) for t in ts], norms_t, 1)[0])
    expected = 2.0 * E_halfwidth
    normalized = slope / expected
    mass_drift = (max(masses) - min(masses)) / max(max(masses), _TINY)
    ok = normalized >= slope_lower and mass_drift <= 1e-12
    return CheckResult(
        name="maximal_unbounded",
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        worst_case=("slope", normalized - slope_lower),
        estimated_constant=slope,
        details=tuple(rows),
        tolerance=None,
        notes={
            "slope": slope,
            "expected_slope": expected,
            "normalized_slope": normalized,
            "indicator_mass_drift": mass_drift,
            "omega_diagnostics": _omega_notes(dom, q, omega),
        },
    )


# ----------------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------------


CHECK_NAMES = (
    "norm_axioms",
    "solidity_monotone",
    "invariance",
    "inclusion_equivalence",
    "embedding_classical_grand",
    "embedding_grand_mixed",
    "nesting_in_p",
    "pointwise_product",
    "vanishing_limit",
    "maximal_bounded",
    "maximal_unbounded",
)


def run_all_checks(seed: int = 7, cells: int = 256, names: Sequence[str] | None = None) -> list[CheckResult]:
    """The battery on the standard configuration, or a named subset of it.

    Domain [-8, 8] with ``cells`` cells, physical window of one unit sliding
    by half a unit, exponential grandizers; deterministic given (seed, cells).
    """
    dom = BoxDomain(-8.0, 8.0, cells)
    corpus = build_corpus(dom, seed)
    win = WindowSpec(max(1, cells // 16), max(1, cells // 32))

    def expdecay(x):
        return np.exp(-np.abs(np.asarray(x, dtype=float)))

    aw = weight_from(dom, expdecay)
    bw = weight_from(dom, expdecay)
    spec_grand = _grand_pair_spec(2.0, 2.0, aw, bw, win)

    def classical_builder(domain, window):
        return AmalgamSpec(ClassicalSpace(2.0), ClassicalSpace(2.0), window)

    def grand_builder(domain, window):
        w1 = weight_from(domain, expdecay)
        return _grand_pair_spec(2.0, 2.0, w1, w1, window)

    bump_entry = next(e for e in corpus.entries if e.family == "modulated_bump")

    registry: dict[str, Callable[[], CheckResult]] = {
        "norm_axioms": lambda: check_norm_axioms(corpus, spec_grand),
        "solidity_monotone": lambda: check_solidity_and_monotone(corpus, spec_grand),
        "invariance": lambda: check_invariance(corpus, spec_grand),
        "inclusion_equivalence": lambda: check_inclusion_norm_equivalence(
            corpus, classical_builder, grand_builder, window=win
        ),
        "embedding_classical_grand": lambda: check_embedding_classical_into_grand(
            corpus, 2.0, 2.0, expdecay, expdecay, win
        ),
        "embedding_grand_mixed": lambda: check_embedding_grand_into_mixed(
            corpus, spec_grand, 0.5, 0.5
        ),
        "nesting_in_p": lambda: check_nesting_in_p(
            corpus, 2.0, 3.0, 2.0, expdecay, expdecay, win
        ),
        "pointwise_product": lambda: check_pointwise_product(
            corpus, (4.0, 4.0, 2.0), (4.0, 4.0, 2.0), expdecay, win
        ),
        "vanishing_limit": lambda: check_vanishing_limit(bump_entry.gridfn, spec_grand),
        "maximal_bounded": lambda: check_maximal_bounded(
            corpus, 2.0, 2.0, 3.0, expdecay, expdecay, win
        ),
        "maximal_unbounded": lambda: check_maximal_unbounded(),
    }
    selected = CHECK_NAMES if names is None else tuple(names)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    return [registry[n]() for n in selected]
