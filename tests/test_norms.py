import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import grandamalgam as ga
from grandamalgam.norms import EpsGrid, golden_section_max
from grandamalgam.reporting import Verdict


def brute_lp(f, p, w=None):
    """Independent oracle: plain python loop over the flattened samples."""
    vol = f.domain.cell_volume
    total = 0.0
    wflat = None if w is None else w.values.reshape(-1)
    for i, v in enumerate(f.values.reshape(-1)):
        term = abs(v) ** p
        if wflat is not None:
            term *= wflat[i]
        total += term * vol
    return total ** (1.0 / p) if total > 0 else 0.0


def dense_grand_oracle(f, gp, n=401):
    """Linear 401-point scan plus an independent (scipy) refinement pass."""
    absf = np.abs(f.values)
    av = gp.grandizer.values
    vol = f.domain.cell_volume

    def term(eps):
        w = av ** (eps / gp.p) if gp.variant is ga.Variant.EXPONENT_OVER_P else av**eps
        s = float(np.sum(absf ** (gp.p - eps) * w)) * vol
        inner = s ** (1.0 / (gp.p - eps)) if s > 0 else 0.0
        return gp.prefactor(eps) * inner

    top = gp.p - 1.0
    grid = np.linspace(top * 1e-6, top, n)
    vals = [term(e) for e in grid]
    k = int(np.argmax(vals))
    best = vals[k]
    lo = grid[max(0, k - 1)]
    hi = grid[min(n - 1, k + 1)]
    res = minimize_scalar(lambda e: -term(e), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return max(best, -res.fun)


def make_random_function(domain, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=domain.shape) + 1j * rng.normal(size=domain.shape)
    return ga.GridFunction(domain, vals)


@pytest.fixture
def unit_box():
    return ga.BoxDomain(0.0, 1.0, 64)


def test_weighted_lp_constants(unit_box):
    f = ga.constant(unit_box, 2.0)
    assert ga.weighted_lp_norm(f, 2.0, ga.unit_weight(unit_box)) == pytest.approx(2.0, rel=1e-14)
    assert ga.weighted_lp_norm(ga.constant(unit_box, 0.0), 2.0) == 0.0


def test_weighted_lp_linear_function(unit_box):
    # exact integral of x^2 on [0,1] is 1/3; midpoint error is O(h^2)
    f = ga.build(unit_box, lambda x: x)
    val = ga.weighted_lp_norm(f, 2.0, ga.unit_weight(unit_box))
    assert val == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-5)
    assert val == pytest.approx(brute_lp(f, 2.0), rel=1e-13)
    # O(h^2) refinement convergence
    errs = []
    for n in (64, 128):
        d = ga.BoxDomain(0.0, 1.0, n)
        errs.append(abs(ga.weighted_lp_norm(ga.build(d, lambda x: x), 2.0) - 1.0 / math.sqrt(3.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@settings(max_examples=15, deadline=None)
@given(st.floats(1.0, 4.0), st.integers(0, 10_000))
def test_weighted_lp_matches_brute_force(p, seed):
    dom = ga.BoxDomain(-1.0, 1.0, 16)
    f = make_random_function(dom, seed)
    w = ga.weight_from(dom, lambda x: 1.0 + x * x)
    assert ga.weighted_lp_norm(f, p, w) == pytest.approx(brute_lp(f, p, w), rel=1e-12)


def test_weighted_lp_rejects_bad_input(unit_box):
    f = ga.constant(unit_box, 1.0)
    with pytest.raises(ValueError):
        ga.weighted_lp_norm(f, 0.5)
    with pytest.raises(ValueError, match="domain mismatch"):
        ga.weighted_lp_norm(f, 2.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 32)))


def test_grand_norm_constant_unit_box(unit_box):
    # inner norms are identically 1, so the sup of eps^theta * 1 is at eps = 1
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    rep = ga.grand_norm(ga.constant(unit_box, 1.0), gp)
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert rep.argmax_eps == pytest.approx(1.0, abs=0)


def test_grand_norm_constant_double_box():
    dom = ga.BoxDomain(0.0, 2.0, 64)
    gp = ga.GrandParams(2.0, ga.unit_weight(dom))
    rep = ga.grand_norm(ga.constant(dom, 1.0), gp)
    # eps * 2^{1/(2-eps)} is increasing on (0, 1]
    assert rep.value == pytest.approx(2.0, rel=1e-12)
    assert rep.argmax_eps == pytest.approx(1.0, abs=0)


def test_grand_norm_zero(unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    rep = ga.grand_norm(ga.constant(unit_box, 0.0), gp)
    assert rep.value == 0.0


def test_grand_norm_matches_dense_oracle(unit_box):
    w = ga.weight_from(unit_box, lambda x: np.exp(-x))
    for seed in range(4):
        f = make_random_function(unit_box, seed)
        for variant in (ga.Variant.EXPONENT_OVER_P, ga.Variant.EXPONENT_FULL):
            gp = ga.GrandParams(2.5, w, variant=variant)
            rep = ga.grand_norm(f, gp)
            oracle = dense_grand_oracle(f, gp)
            # refinement soundness: at least the grid, at most the dense sup
            grid_max = max(t for _, _, t in rep.curve)
            assert rep.value >= grid_max - 1e-15
            assert rep.value <= oracle + 1e-9
            assert rep.value == pytest.approx(oracle, rel=1e-6)


def test_grand_norm_sup_definition(unit_box):
    w = ga.weight_from(unit_box, lambda x: 1.0 + x)
    for seed in range(5):
        f = make_random_function(unit_box, seed)
        rep = ga.grand_norm(f, ga.GrandParams(3.0, w))
        for eps, _, term in rep.curve:
            assert term <= rep.value * (1 + 1e-12)
        matches = [t for e, _, t in rep.curve if e == rep.argmax_eps]
        assert matches and matches[0] == rep.value


def test_grand_norm_curve(unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box), eps_grid=EpsGrid.explicit([0.1, 0.5, 1.0]))
    curve = ga.grand_norm_curve(ga.constant(unit_box, 1.0), gp)
    assert curve[0] == (0.1, pytest.approx(0.1, rel=1e-14))
    assert ga.grand_norm_curve(ga.constant(unit_box, 0.0), gp) == [(0.1, 0.0), (0.5, 0.0), (1.0, 0.0)]
    # curve max equals the unrefined norm value
    rep = ga.grand_norm(ga.constant(unit_box, 1.0), gp, refine=False)
    assert max(t for _, t in curve) == rep.value


def test_grand_norm_homogeneity_triangle_solidity(unit_box):
    w = ga.weight_from(unit_box, lambda x: np.exp(-x))
    gp = ga.GrandParams(2.0, w)
    rng = np.random.default_rng(42)
    for seed in range(4):
        f = make_random_function(unit_box, seed)
        g = make_random_function(unit_box, seed + 100)
        vf = ga.grand_norm(f, gp).value
        vg = ga.grand_norm(g, gp).value
        lam = 0.5 + 2.0j
        assert ga.grand_norm(ga.scale(f, lam), gp).value == pytest.approx(
            abs(lam) * vf, rel=1e-10
        )
        assert ga.grand_norm(f + g, gp).value <= vf + vg + 1e-10 * (vf + vg)
        mask = ga.GridFunction(unit_box, rng.uniform(0.0, 1.0, unit_box.shape))
        assert ga.grand_norm(ga.pointwise_product(f, mask), gp).value <= vf * (1 + 1e-12)


def test_grand_norm_modulation_exact(unit_box):
    w = ga.weight_from(unit_box, lambda x: np.exp(x))
    gp = ga.GrandParams(2.0, w)
    f = make_random_function(unit_box, 3)
    base = ga.grand_norm(f, gp).value
    for xi in (0.7, 13.0):
        assert ga.grand_norm(ga.modulate(f, xi), gp).value == pytest.approx(base, rel=1e-12)


def test_holder_grandizer_bound_cases(unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    zero = ga.holder_grandizer_bound(ga.constant(unit_box, 0.0), gp)
    assert zero.verdict is Verdict.PASS

    const = ga.holder_grandizer_bound(ga.constant(unit_box, 1.0), gp)
    assert const.verdict is Verdict.PASS
    assert const.worst_case[1] == pytest.approx(0.0, abs=1e-12)  # equality case

    w = ga.weight_from(unit_box, lambda x: np.exp(-x))
    f = make_random_function(unit_box, 9)
    res = ga.holder_grandizer_bound(f, ga.GrandParams(2.0, w))
    assert res.verdict is Verdict.PASS
    assert res.worst_case[1] > 0.0  # strict margin for a decaying grandizer


def test_holder_bound_requires_over_p(unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box), variant=ga.Variant.EXPONENT_FULL)
    with pytest.raises(ValueError):
        ga.holder_grandizer_bound(ga.constant(unit_box, 1.0), gp)


def test_sup_eps_factor_matches_dense_scan():
    for mass in (0.05, 0.4, 1.0, 3.0, 25.0):
        for p in (1.5, 2.0, 3.7):
            for theta in (0.5, 1.0, 2.0):
                eps = np.linspace((p - 1) * 1e-7, p - 1, 200_001)
                scan = float(np.max(eps**theta * mass ** (eps / (p * (p - eps)))))
                assert ga.sup_eps_factor(mass, p, theta) == pytest.approx(scan, rel=1e-8)
                assert ga.sup_eps_factor(mass, p, theta) >= scan - 1e-12


def test_compare_variants_reported(unit_box):
    w = ga.weight_from(unit_box, lambda x: np.exp(-x))
    f = make_random_function(unit_box, 11)
    out = ga.compare_variants(f, ga.GrandParams(2.0, w))
    assert out["value_over_p"] > 0 and out["value_full"] > 0
    assert out["band"] >= 1.0 and math.isfinite(out["band"])


def test_eps_grid_geometric_shape():
    grid = EpsGrid.geometric(2.0)
    assert grid.count == 33
    assert grid.values[-1] == 1.0
    assert grid.min_eps == pytest.approx(1e-4, rel=1e-9)
    assert all(b > a for a, b in zip(grid.values, grid.values[1:]))
    ratios = [b / a for a, b in zip(grid.values, grid.values[1:])]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)


def test_eps_grid_validation():
    with pytest.raises(ValueError):
        EpsGrid.explicit([])
    with pytest.raises(ValueError):
        EpsGrid.explicit([0.5, 0.5])
    with pytest.raises(ValueError):
        EpsGrid.explicit([-0.1, 1.0])
    with pytest.raises(ValueError):
        ga.GrandParams(2.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)),
                       eps_grid=EpsGrid.explicit([0.2, 0.9]))  # must end at p-1
    with pytest.raises(ValueError):
        ga.GrandParams(1.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)))
    with pytest.raises(ValueError):
        ga.GrandParams(2.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)), theta=0.0)


def test_eps_grid_with_extra():
    grid = EpsGrid.geometric(2.0, count=5)
    grid2 = grid.with_extra(0.123)
    assert 0.123 in grid2.values
    assert grid2.values[-1] == 1.0
    assert grid.with_extra(grid.values[2]) is grid


def test_golden_section_max_quadratic():
    x, v = golden_section_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-15)
    # endpoint maxima are caught because endpoints are evaluated
    x, v = golden_section_max(lambda t: t, 0.0, 1.0)
    assert (x, v) == (1.0, 1.0)


def test_golden_rows_match_one_row_at_a_time():
    """Rows with brackets of different widths drop out at different steps;
    each row must still follow exactly the steps it would take alone."""
    from grandamalgam.norms import _golden_rows

    peaks = np.array([0.3, 2e-5, 0.77, 1.4])
    lo = np.array([0.0, 1e-5, 0.5, 1.0])
    hi = np.array([1.0, 3e-5, 0.8, 2.0])

    def fn(rows, x):
        t = peaks if rows is None else peaks[rows]
        return -((x - t) ** 2)

    x, v = _golden_rows(fn, lo, hi, fn(None, lo), fn(None, hi))
    for r in range(len(peaks)):
        want = golden_section_max(lambda t: -((t - peaks[r]) ** 2), lo[r], hi[r])
        assert (x[r], v[r]) == want


def test_norm_report_csv(tmp_path, unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    rep = ga.grand_norm(ga.constant(unit_box, 1.0), gp)
    path = tmp_path / "curve.csv"
    from grandamalgam.norms import write_norm_csv

    write_norm_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,inner_norm,weighted_term"
    assert len(lines) == 1 + len(rep.curve)
