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
    amalgam_norms,
    control_function,
    lattice_weight,
    mixed_norm_family,
)
from .gridfn import (
    BoxDomain,
    GridFunction,
    Weight,
    _box,
    _bump,
    _gaussian,
    _ramp,
    build,
    constant,
    indicator,
    modulate,
    pointwise_abs,
    pointwise_product,
    scale,
    translate,
    unit_weight,
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


def _expdecay(x):
    return np.exp(-np.abs(np.asarray(x, dtype=float)))


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


def _modulated_bump(c: float, w: float, xi: float) -> Callable:
    bump = _bump((c,), w)
    return lambda x: bump(x) * np.exp(1j * xi * np.asarray(x, dtype=float))


def _gaussian_mixture(centers, sigmas, amps) -> Callable:
    parts = [(_gaussian((c,), s), a) for c, s, a in zip(centers, sigmas, amps)]
    return lambda x: sum(a * g(x) for g, a in parts)


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
        entries.append((f"gaussian-{k}", "gaussian", _gaussian((center(),), sigma)))
    for k in range(2):
        a = center() - rng.uniform(0.02, 0.08) * length
        b = a + rng.uniform(0.05, 0.15) * length
        entries.append((f"indicator-{k}", "indicator", _box((float(a),), (float(b),))))
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


def _functions(corpus: Corpus) -> list[GridFunction]:
    return [e.gridfn for e in corpus.entries]


def _norms(spec: AmalgamSpec, *groups: Sequence[GridFunction]) -> list[list[float]]:
    """Amalgam norms of every group of functions, all groups evaluated as one stack."""
    values = iter([r.value for r in amalgam_norms([f for g in groups for f in g], spec)])
    return [[next(values) for _ in g] for g in groups]


def _margin_state():
    return {"worst": None, "rows": []}


def _push(state, case: str, margin: float, **extra) -> None:
    row = {"case": case, "margin": margin}
    row.update(extra)
    state["rows"].append(row)
    if state["worst"] is None or margin < state["worst"][1]:
        state["worst"] = (case, margin)


def _finish(name: str, state, tol: float, notes=None, constant=None) -> CheckResult:
    ok = state["worst"] is None or state["worst"][1] >= -tol
    return CheckResult(
        name=name,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        worst_case=state["worst"],
        estimated_constant=constant,
        details=tuple(state["rows"]),
        tolerance=tol,
        notes=notes or {},
    )


def _resolutions(corpus: Corpus, window: WindowSpec, *samplers: Callable):
    """(factor, corpus, window, weights) on the corpus grid and on it refined by 2.

    The corpus is realised again on the refined grid, the window is scaled to
    the same physical size, and each sampler becomes a weight on that grid.
    """
    for factor in (1, 2):
        dom = corpus.domain if factor == 1 else corpus.domain.refine(factor)
        corp = corpus if factor == 1 else corpus.realized_on(dom)
        yield factor, corp, window.scaled(factor), [weight_from(dom, s) for s in samplers]


def _constant_check(
    name: str, resolutions, rule: Callable, fields: Callable = lambda n, d: {}
) -> CheckResult:
    """An empirical constant: the best numerator / denominator ratio at each resolution.

    ``resolutions`` yields (factor, cases, numerator, denominator) per resolution.
    Each side is a list of (functions, spec) stacks whose norms multiply case by case; a
    case whose denominator is at most ``_TINY`` is skipped.  ``rule(constants)`` gives the
    stability verdict and notes: REPORT_ONLY if the constant is stable, else FAIL.
    ``fields(numerator, denominator)`` adds columns to each row.
    """

    def products(stacks):
        return [math.prod(v) for v in zip(*(_norms(spec, fs)[0] for fs, spec in stacks))]

    rows = []
    constants = []
    for factor, cases, num, den in resolutions:
        nums, dens = products(num), products(den)
        best = 0.0
        for case, n, d in zip(cases, nums, dens):
            if d <= _TINY:
                continue
            best = max(best, n / d)
            rows.append({"case": f"{case}@x{factor}", "margin": n / d, **fields(n, d)})
        constants.append(best)
    stable, notes = rule(constants)
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


def check_norm_axioms(corpus: Corpus, spec: AmalgamSpec) -> CheckResult:
    """Non-negativity, definiteness, homogeneity, and the triangle inequality."""
    tol = 1e-10
    state = _margin_state()
    entries = corpus.entries
    n = len(entries)
    fs = _functions(corpus)
    pairs = [(i, (i + 1) % n) for i in range(n)][:12]
    groups = [[constant(corpus.domain, 0.0)], fs, [scale(f, 3.0) for f in fs]]
    (zero_norm,), values, homs, sums = _norms(spec, *groups, [fs[i] + fs[j] for i, j in pairs])
    _push(state, "zero-function", -abs(zero_norm), value=zero_norm)

    for e, v, hom in zip(entries, values, homs):
        _push(state, f"nonneg:{e.name}", v, value=v)
        if np.any(e.gridfn.values != 0):
            # definiteness: nonzero samples must give a strictly positive norm
            _push(state, f"definite:{e.name}", v if v > 0.0 else -1.0, value=v)
        dev = abs(hom - 3.0 * v) / max(3.0 * v, _TINY)
        _push(state, f"homogeneity:{e.name}", tol - dev, ratio=hom / max(3.0 * v, _TINY))

    for (i, j), s in zip(pairs, sums):
        na, nb = entries[i].name, entries[j].name
        scale_ = max(values[i] + values[j], _TINY)
        _push(state, f"triangle:{na}+{nb}", (values[i] + values[j] - s) / scale_, sum_norm=s)

    return _finish("norm_axioms", state, tol)


def check_solidity_and_monotone(corpus: Corpus, spec: AmalgamSpec) -> CheckResult:
    """Solidity under pointwise domination and monotone truncation convergence."""
    tol, n_truncations = 1e-12, 5
    state = _margin_state()
    rng = np.random.default_rng(corpus.seed + 1)
    dom = corpus.domain
    lo, up = dom.lower[0], dom.upper[0]
    mid = 0.5 * (lo + up)
    left = indicator(dom, lo, mid)
    radii = (0.5 * (up - lo) * j / n_truncations for j in range(1, n_truncations + 1))
    rings = [indicator(dom, mid - r, mid + r) for r in radii]

    groups = []  # per entry: f, f / 2, masked f, left half of f, |f|, then its truncations
    for f in _functions(corpus):
        mask = GridFunction(dom, rng.uniform(0.0, 1.0, dom.shape))
        fa = pointwise_abs(f)
        groups.append([f, scale(f, 0.5), pointwise_product(f, mask), pointwise_product(f, left), fa]
                      + [pointwise_product(fa, ring) for ring in rings])

    norms = _norms(spec, *groups)
    for e, (base, half, masked, left_v, full, *truncated) in zip(corpus.entries, norms):
        scale_ = max(base, _TINY)
        _push(state, f"half-scale:{e.name}", 1e-10 - abs(half / scale_ - 0.5), ratio=half / scale_)
        _push(state, f"solidity-mask:{e.name}", (base - masked) / scale_ + tol, value=masked)
        _push(state, f"solidity-left:{e.name}", (base - left_v) / scale_ + tol)
        prev = 0.0  # a norm is nonnegative, so the first truncation's margin is finite
        for j, vj in enumerate(truncated, 1):
            _push(state, f"monotone:{e.name}:{j}", (vj - prev) / max(full, _TINY) + tol, value=vj)
            prev = vj
        margin = tol - abs(prev - full) / max(full, _TINY)
        _push(state, f"limit:{e.name}", margin, final=prev, full=full)

    return _finish("solidity_monotone", state, tol)


def check_invariance(corpus: Corpus, spec: AmalgamSpec) -> CheckResult:
    """Translation invariance (unit weights) and modulation invariance.

    Translation uses compactly supported entries shifted by multiples of the
    window stride (so window contents are relabeled, not resampled); the
    shifted support stays inside the box.  Modulation keeps the original
    weights: only |f| enters any stage.
    """
    n_modulation, tol_translation, tol_modulation = 50, 1e-10, 1e-12
    state = _margin_state()
    dom = corpus.domain
    uspec = _unit_clone(spec, dom)
    stride = uspec.window.for_ndim(dom.ndim).stride_cells[0]
    quarter = dom.points_per_axis[0] // 4
    shifts = sorted({stride, 2 * stride, max(stride, (quarter // stride) * stride)})
    moves = [sgn * s for s in shifts for sgn in (+1, -1)]

    compact = corpus.compact()
    groups = [[e.gridfn] + [translate(e.gridfn, m) for m in moves] for e in compact]
    for e, (base, *moved) in zip(compact, _norms(uspec, *groups)):
        scale_ = max(base, _TINY)
        for m, v in zip(moves, moved):
            margin = tol_translation - abs(v - base) / scale_
            _push(state, f"translate:{e.name}:{m}", margin, shifted=v, base=base)

    rng = np.random.default_rng(corpus.seed + 2)
    entries = corpus.entries
    n = len(entries)
    xis = [float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi)) for _ in range(n_modulation)]
    modulated = [modulate(entries[k % n].gridfn, xi) for k, xi in enumerate(xis)]
    bases, values = _norms(spec, _functions(corpus), modulated)
    for k, (xi, modded) in enumerate(zip(xis, values)):
        margin = tol_modulation - abs(modded - bases[k % n]) / max(bases[k % n], _TINY)
        _push(state, f"modulate:{entries[k % n].name}:{k}", margin, xi=xi)

    notes = {"tol_translation": tol_translation, "tol_modulation": tol_modulation}
    return _finish("invariance", state, 0.0, notes=notes)


# ----------------------------------------------------------------------------
# Inclusions and embeddings
# ----------------------------------------------------------------------------


def check_inclusion_norm_equivalence(
    corpus: Corpus, builder_a: Callable, builder_b: Callable, window: WindowSpec
) -> CheckResult:
    """Empirical inclusion constant C = sup ||f||_B / ||f||_A over the corpus.

    ``builder_a``/``builder_b`` map ``(domain, window)`` to an :class:`AmalgamSpec`;
    the constant is recomputed on a doubled grid and flagged if it grows by
    more than ``growth_factor``.
    """
    growth_factor = 2.0

    def rule(constants):
        notes = {"growth_factor": growth_factor}
        if constants[0] > 0:
            notes["trend"] = constants[1] / constants[0]
            return notes["trend"] <= growth_factor, notes
        return True, notes

    def resolutions():
        for factor, corp, win, _ in _resolutions(corpus, window):
            fs = _functions(corp)
            sa, sb = (builder(corp.domain, win) for builder in (builder_a, builder_b))
            yield factor, [e.name for e in corp.entries], [(fs, sb)], [(fs, sa)]

    return _constant_check(
        "inclusion_equivalence", resolutions(), rule, lambda n, d: {"norm_a": d, "norm_b": n}
    )


def check_embedding_classical_into_grand(
    corpus: Corpus,
    p: float,
    q: float,
    a: Callable,
    b: Callable,
    window: WindowSpec,
) -> CheckResult:
    """W(classical p, q) controls W(grand a, b) with the explicit Hölder constant.

    The constant C_H multiplies the two closed-form factors
    sup_eps eps * mass^(eps/(p(p-eps))) for the local grandizer mass and the
    lattice-reduced global mass; the per-entry inequality
    ||f||_grand <= C_H ||f||_classical is asserted at two resolutions.
    """
    tol = 1e-10
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
        fs = _functions(corp)
        grand = amalgam_norms(fs, gspec)
        for e, rep, cls in zip(corp.entries, grand, _norms(cspec, fs)[0]):
            lhs = rep.value
            rhs = c_h * cls
            margin = (rhs - lhs) / max(rhs, _TINY)
            _push(state, f"{e.name}@x{factor}", margin, grand=lhs, classical=cls, bound=rhs)
            if cls > _TINY:
                empirical = max(empirical, lhs / cls)
        params = GrandParams(p, aw)
        grid = params.eps_grid.values
        probe = (grid[len(grid) // 2], grid[-1])
        guards[f"two_stage@x{factor}"] = _two_stage_excess(fs[0], params, win, probe)
        guards[f"outer_curve@x{factor}"] = _curve_guard(grand[0])

    guard_worst = max(guards.values())
    if guard_worst > 1e-12:
        _push(state, "sup-definition-guard", -guard_worst)
    notes = {"holder_constant": constants, "empirical_constant": empirical, "guards": guards}
    return _finish("embedding_classical_grand", state, tol, notes=notes, constant=empirical)


def check_embedding_grand_into_mixed(
    corpus: Corpus, spec: AmalgamSpec, eps: float, eta: float
) -> CheckResult:
    """eps^theta eta^theta * mixed member norm is below the grand amalgam norm.

    The requested (eps, eta) are added to the evaluation grids so the sup
    definition bound is exact rather than grid-gapped.
    """
    tol = 1e-10
    if not isinstance(spec.local_space, GrandSpace) or not isinstance(spec.global_space, GrandSpace):
        raise ValueError("check needs grand local and global stages")
    lp = spec.local_space.params
    gq = spec.global_space.params
    augmented = AmalgamSpec(
        GrandSpace(lp.with_extra_eps(eps)), GrandSpace(gq.with_extra_eps(eta)), spec.window
    )
    state = _margin_state()
    for e, rhs in zip(corpus.entries, _norms(augmented, _functions(corpus))[0]):
        mixed = mixed_norm_family(e.gridfn, augmented, eps, eta)
        lhs = (eps**lp.theta) * (eta**gq.theta) * mixed
        _push(state, e.name, (rhs - lhs) / max(rhs, _TINY), mixed=mixed, grand=rhs)
    return _finish("embedding_grand_mixed", state, tol, notes={"eps": eps, "eta": eta})


def check_nesting_in_p(
    corpus: Corpus,
    p1: float,
    p2: float,
    q: float,
    a: Callable,
    b: Callable,
    window: WindowSpec,
) -> CheckResult:
    """Empirical constant of W(grand p2) -> W(grand p1) for p1 <= p2."""
    stability_factor = 2.0
    if p1 > p2:
        raise ValueError("need p1 <= p2")

    def rule(constants):
        c0, c1 = constants
        stable = c0 > 0 and 1.0 / stability_factor <= c1 / c0 <= stability_factor
        return stable, {"stability_factor": stability_factor}

    def resolutions():
        for factor, corp, win, (aw, bw) in _resolutions(corpus, window, a, b):
            fs = _functions(corp)
            s1, s2 = (_grand_pair_spec(pk, q, aw, bw, win) for pk in (p1, p2))
            yield factor, [e.name for e in corp.entries], [(fs, s1)], [(fs, s2)]

    return _constant_check("nesting_in_p", resolutions(), rule, lambda n, d: {"p1": n, "p2": d})


def check_pointwise_product(
    corpus: Corpus,
    p_triple: tuple[float, float, float],
    q_triple: tuple[float, float, float],
    a: Callable,
    window: WindowSpec,
) -> CheckResult:
    """Empirical constant in ||fg||_3 <= C ||f||_1 ||g||_2 for Hölder triples."""
    stability_factor, max_pairs = 2.0, 8
    p1, p2, p3 = p_triple
    q1, q2, q3 = q_triple
    if abs(1.0 / p3 - 1.0 / p1 - 1.0 / p2) > 1e-9 or abs(1.0 / q3 - 1.0 / q1 - 1.0 / q2) > 1e-9:
        raise ValueError("exponent triples must satisfy 1/p3 = 1/p1 + 1/p2 (and likewise in q)")

    def rule(constants):
        c0, c1 = constants
        return c0 > 0 and c1 <= stability_factor * c0, {"stability_factor": stability_factor}

    def resolutions():
        for factor, corp, win, (aw,) in _resolutions(corpus, window, a):
            entries = corp.entries
            pairs = list(zip(entries, entries[1:] + entries[:1]))[:max_pairs]
            fs, gs = [ef.gridfn for ef, _ in pairs], [eg.gridfn for _, eg in pairs]
            s1, s2, s3 = (_grand_pair_spec(*pq, aw, aw, win) for pq in zip(p_triple, q_triple))
            products = [pointwise_product(f, g) for f, g in zip(fs, gs)]
            cases = [f"{ef.name}*{eg.name}" for ef, eg in pairs]
            yield factor, cases, [(products, s3)], [(fs, s1), (gs, s2)]

    return _constant_check(
        "pointwise_product", resolutions(), rule, lambda n, d: {"product_norm": n}
    )


def check_vanishing_limit(f: GridFunction, spec: AmalgamSpec) -> CheckResult:
    """The curve eps * ||f||_mixed(eps, eps) decays to ~0 as eps -> 0.

    Asserts the three smallest geometric-grid values decrease and the last
    one is below ``fraction`` of the grand amalgam norm.  eps serves both
    stages, so the grid ends at min(p-1, q-1).
    """
    fraction = 0.01
    if not isinstance(spec.local_space, GrandSpace) or not isinstance(spec.global_space, GrandSpace):
        raise ValueError("check needs grand local and global stages")
    lp = spec.local_space.params
    gq = spec.global_space.params
    top = min(lp.p, gq.p) - 1.0
    grid = EpsGrid.geometric(top + 1.0, count=len(lp.eps_grid.values))
    values = [(eps, eps * mixed_norm_family(f, spec, eps, eps)) for eps in grid.values]
    full = amalgam_norm(f, spec).value
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
) -> CheckResult:
    """Boundedness signature of M : W(L^r, L^q) -> W(grand p, q).

    The empirical operator constant must move by at most ``drift`` when the
    grid resolution doubles; any finite radius set makes the measured
    constant a lower bound, which is conservative here.
    """
    drift = 0.25
    if not (p <= q <= r):
        raise ValueError("need p <= q <= r")

    def rule(constants):
        change = abs(constants[1] - constants[0]) / max(constants[0], _TINY)
        return change <= drift, {"relative_change": change, "drift_allowance": drift}

    def resolutions():
        for factor, corp, win, (aw, bw) in _resolutions(corpus, window, a, b):
            radii = RadiusSet.full(corp.domain)
            fs = _functions(corp)
            mfs = [maximal_fast(f, radii).mf for f in fs]
            target = _grand_pair_spec(p, q, aw, bw, win)
            source = AmalgamSpec(ClassicalSpace(r), ClassicalSpace(q), win)
            yield factor, [e.name for e in corp.entries], [(mfs, target)], [(fs, source)]

    return _constant_check("maximal_bounded", resolutions(), rule)


def check_maximal_unbounded() -> CheckResult:
    """Unboundedness signature: truncated L^1 norms of M chi_E grow like log T.

    M chi_E has tail |E| / (2|x|) + O(x^-2), so the truncated L^1 norm gains
    |E| per unit of log T while ||chi_E||_1 stays fixed; the least-squares
    slope, normalized by the analytic tail mass |E| = 2 * E_halfwidth, must
    reach ``slope_lower``.  The ratio of norms therefore diverges, which is
    the certificate.  The grid extends pad * max(T) so ball clipping never
    touches the probed region.
    """
    E_halfwidth, ts = 1.0, (4.0, 8.0, 16.0, 32.0, 64.0)
    points_per_unit, pad, slope_lower = 16, 2.0, 0.8
    half = pad * ts[-1]
    n = int(round(2.0 * half * points_per_unit))
    dom = BoxDomain(-half, half, n)
    chi = indicator(dom, -E_halfwidth, E_halfwidth)
    mf = maximal_fast(chi, RadiusSet.full(dom)).mf.values
    centers = dom.axis_centers(0)
    h = dom.spacing[0]

    rows = []
    norms_t = []
    masses = []
    for t in ts:
        mask = np.abs(centers) <= t
        val = float(np.sum(mf[mask]) * h)
        mass = float(np.sum(chi.values[mask]) * h)
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
        },
    )


# ----------------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------------


# The battery, in its order: each check's name and its call on the standard
# configuration (corpus, grand spec, window) of :func:`run_all_checks`.  A call
# looks its ``check_*`` function up on this module when it runs, so a wrapper set
# on the module after import is the one called.
_BATTERY: dict[str, Callable[[Corpus, AmalgamSpec, WindowSpec], CheckResult]] = {
    "norm_axioms": lambda corpus, spec, win: check_norm_axioms(corpus, spec),
    "solidity_monotone": lambda corpus, spec, win: check_solidity_and_monotone(corpus, spec),
    "invariance": lambda corpus, spec, win: check_invariance(corpus, spec),
    "inclusion_equivalence": lambda corpus, spec, win: check_inclusion_norm_equivalence(
        corpus, _classical_pair, _grand_pair, win
    ),
    "embedding_classical_grand": lambda corpus, spec, win: check_embedding_classical_into_grand(
        corpus, 2.0, 2.0, _expdecay, _expdecay, win
    ),
    "embedding_grand_mixed": lambda corpus, spec, win: check_embedding_grand_into_mixed(
        corpus, spec, 0.5, 0.5
    ),
    "nesting_in_p": lambda corpus, spec, win: check_nesting_in_p(
        corpus, 2.0, 3.0, 2.0, _expdecay, _expdecay, win
    ),
    "pointwise_product": lambda corpus, spec, win: check_pointwise_product(
        corpus, (4.0, 4.0, 2.0), (4.0, 4.0, 2.0), _expdecay, win
    ),
    "vanishing_limit": lambda corpus, spec, win: check_vanishing_limit(
        next(e for e in corpus.entries if e.family == "modulated_bump").gridfn, spec
    ),
    "maximal_bounded": lambda corpus, spec, win: check_maximal_bounded(
        corpus, 2.0, 2.0, 3.0, _expdecay, _expdecay, win
    ),
    "maximal_unbounded": lambda corpus, spec, win: check_maximal_unbounded(),
}

CHECK_NAMES = tuple(_BATTERY)


def _classical_pair(domain: BoxDomain, window: WindowSpec) -> AmalgamSpec:
    return AmalgamSpec(ClassicalSpace(2.0), ClassicalSpace(2.0), window)


def _grand_pair(domain: BoxDomain, window: WindowSpec) -> AmalgamSpec:
    w = weight_from(domain, _expdecay)
    return _grand_pair_spec(2.0, 2.0, w, w, window)


def run_all_checks(seed: int = 7, cells: int = 256, names: Sequence[str] | None = None) -> list[CheckResult]:
    """The battery on the standard configuration, or a named subset of it.

    Domain [-8, 8] with ``cells`` cells, physical window of one unit sliding
    by half a unit, exponential grandizers; deterministic given (seed, cells).
    """
    selected = CHECK_NAMES if names is None else tuple(names)
    unknown = [n for n in selected if n not in _BATTERY]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    dom = BoxDomain(-8.0, 8.0, cells)
    corpus = build_corpus(dom, seed)
    win = WindowSpec(max(1, cells // 16), max(1, cells // 32))
    spec = _grand_pair_spec(2.0, 2.0, weight_from(dom, _expdecay), weight_from(dom, _expdecay), win)
    return [_BATTERY[n](corpus, spec, win) for n in selected]
