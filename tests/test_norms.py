import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import grandamalgam as ga
from grandamalgam import cli, gridfn, norms
from grandamalgam.amalgam import _window_blocks
from grandamalgam.norms import _grand_scan


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


def prefactor(gp, eps):
    """eps**theta, or eps**(theta / (p - eps)) for ``EXPONENT_FULL``."""
    return eps ** (gp.theta if gp.variant is ga.Variant.EXPONENT_OVER_P else gp.theta / (gp.p - eps))


def dense_grand_oracle(f, gp, n=401):
    """Linear 401-point scan plus an independent (scipy) refinement pass."""
    absf = np.abs(f.values)
    av = gp.grandizer.values
    vol = f.domain.cell_volume

    def term(eps):
        w = av ** (eps / gp.p) if gp.variant is ga.Variant.EXPONENT_OVER_P else av**eps
        s = float(np.sum(absf ** (gp.p - eps) * w)) * vol
        inner = s ** (1.0 / (gp.p - eps)) if s > 0 else 0.0
        return prefactor(gp, eps) * inner

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
    value = ga.weighted_lp_norm(f, 2.0, ga.unit_weight(unit_box))
    assert value == pytest.approx(2.0, rel=1e-14, abs=0.0)
    assert ga.weighted_lp_norm(ga.constant(unit_box, 0.0), 2.0) == 0.0


def test_weighted_lp_linear_function(unit_box):
    # exact integral of x^2 on [0,1] is 1/3; midpoint error is O(h^2)
    f = ga.build(unit_box, lambda x: x)
    val = ga.weighted_lp_norm(f, 2.0, ga.unit_weight(unit_box))
    assert val == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-5)
    assert val == pytest.approx(brute_lp(f, 2.0), rel=1e-13, abs=0.0)
    # O(h^2) refinement convergence
    errs = []
    for n in (64, 128):
        d = ga.BoxDomain(0.0, 1.0, n)
        errs.append(abs(ga.weighted_lp_norm(ga.build(d, lambda x: x), 2.0) - 1.0 / math.sqrt(3.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2, abs=0.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(1.0, 4.0), st.integers(0, 10_000))
def test_weighted_lp_matches_brute_force(p, seed):
    dom = ga.BoxDomain(-1.0, 1.0, 16)
    f = make_random_function(dom, seed)
    w = ga.weight_from(dom, lambda x: 1.0 + x * x)
    assert ga.weighted_lp_norm(f, p, w) == pytest.approx(brute_lp(f, p, w), rel=1e-12, abs=0.0)


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
    assert rep.value == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert rep.argmax_eps == pytest.approx(1.0, abs=0)


def test_grand_norm_constant_double_box():
    dom = ga.BoxDomain(0.0, 2.0, 64)
    gp = ga.GrandParams(2.0, ga.unit_weight(dom))
    rep = ga.grand_norm(ga.constant(dom, 1.0), gp)
    # eps * 2^{1/(2-eps)} is increasing on (0, 1]
    assert rep.value == pytest.approx(2.0, rel=1e-12, abs=0.0)
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
            assert rep.value == pytest.approx(oracle, rel=1e-6, abs=0.0)


def test_grand_norm_sup_definition(unit_box):
    w = ga.weight_from(unit_box, lambda x: 1.0 + x)
    for seed in range(5):
        f = make_random_function(unit_box, seed)
        rep = ga.grand_norm(f, ga.GrandParams(3.0, w))
        for eps, _, term in rep.curve:
            assert term <= rep.value * (1 + 1e-12)
        matches = [t for e, _, t in rep.curve if e == rep.argmax_eps]
        assert matches and matches[0] == rep.value


def _grid_rows(rep, gp):
    """The rows of a report's curve at the points of the epsilon grid."""
    return [row for row in rep.curve if row[0] in gp.eps_grid]


def test_grand_norm_curve(unit_box):
    # f = 1 and a = 1 make every inner norm 1, so term(eps) = eps at each grid point
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box), eps_count=3)
    rep = ga.grand_norm(ga.constant(unit_box, 1.0), gp)
    curve = [(eps, term) for eps, _, term in _grid_rows(rep, gp)]
    assert curve == [(eps, pytest.approx(eps, rel=1e-14, abs=0.0)) for eps in gp.eps_grid]
    zero = ga.grand_norm(ga.constant(unit_box, 0.0), gp)
    assert [(eps, term) for eps, _, term in _grid_rows(zero, gp)] == [(eps, 0.0) for eps in gp.eps_grid]
    # the grid maximum is the norm value: eps * 1 rises to its end at p - 1
    assert max(t for _, t in curve) == rep.value


def test_grand_curve_reads_as_a_tuple_of_float_rows(unit_box):
    # the rows are made from the scan's arrays when read, and compare as the tuple they were
    gp = ga.GrandParams(2.5, ga.weight_from(unit_box, lambda x: np.exp(-x)))
    rep = ga.grand_norm(make_random_function(unit_box, 3), gp)
    rows = tuple(rep.curve)
    assert len(rows) >= len(gp.eps_grid) and all(type(x) is float for row in rows for x in row)
    assert rep.curve == rows and rep.curve[1] == rows[1] and len(rep.curve) == len(rows)
    as_tuple = replace(rep, curve=rows)
    assert rep == as_tuple and hash(rep) == hash(as_tuple)


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
            abs(lam) * vf, rel=1e-10, abs=0.0
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
        value = ga.grand_norm(ga.modulate(f, xi), gp).value
        assert value == pytest.approx(base, rel=1e-12, abs=0.0)


def _holder_margins(f, gp):
    """(bound - inner) / bound over the grand curve of ``f``: by Hölder, every inner
    L^(p-eps)(a^(eps/p)) norm is at most ||f||_p mass(a)^(eps / (p (p - eps)))."""
    p = gp.p
    mass = float(np.sum(gp.grandizer.values) * f.domain.cell_volume)
    f_lp = ga.weighted_lp_norm(f, p)
    margins = []
    for eps, inner, _ in ga.grand_norm(f, gp).curve:
        bound = f_lp * mass ** (eps / (p * (p - eps)))
        margins.append((bound - inner) / max(bound, 1e-300))
    return np.array(margins)


def test_holder_grandizer_bound_cases(unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    assert np.all(_holder_margins(ga.constant(unit_box, 0.0), gp) == 0.0)
    # the equality case
    np.testing.assert_allclose(_holder_margins(ga.constant(unit_box, 1.0), gp), 0.0, atol=1e-12)

    w = ga.weight_from(unit_box, lambda x: np.exp(-x))
    f = make_random_function(unit_box, 9)
    assert _holder_margins(f, ga.GrandParams(2.0, w)).min() > 0.0  # strict for a decaying grandizer


def test_sup_eps_factor_matches_dense_scan():
    for mass in (0.05, 0.4, 1.0, 3.0, 25.0):
        for p in (1.5, 2.0, 3.7):
            for theta in (0.5, 1.0, 2.0):
                eps = np.linspace((p - 1) * 1e-7, p - 1, 200_001)
                scan = float(np.max(eps**theta * mass ** (eps / (p * (p - eps)))))
                assert ga.sup_eps_factor(mass, p, theta) == pytest.approx(scan, rel=1e-8, abs=0.0)
                assert ga.sup_eps_factor(mass, p, theta) >= scan - 1e-12


def test_sup_eps_factor_checks_its_exponent_and_theta():
    """eps**theta has no finite sup on (0, p - 1] for theta < 0: an error, not a number."""
    for p, theta, message in [(1.0, 1.0, "need an exponent > 1, got 1.0"),
                              (2.0, 0.0, "need a power of epsilon > 0, got 0.0"),
                              (2.0, -1.0, "need a power of epsilon > 0, got -1.0")]:
        with pytest.raises(ValueError, match=message):
            ga.sup_eps_factor(0.5, p, theta)


def test_eps_grid_geometric_shape():
    grid = ga.GrandParams(2.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4))).eps_grid
    assert len(grid) == norms.DEFAULT_EPS_COUNT
    assert grid[-1] == 1.0
    assert grid[0] == pytest.approx(1e-4, rel=1e-9, abs=0.0)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9, abs=0.0)


def test_eps_grid_validation():
    with pytest.raises(ValueError):
        ga.GrandParams(1.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)))
    with pytest.raises(ValueError):
        ga.GrandParams(2.0, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)), theta=0.0)
    # above 2**53, p - 1 rounds: the grid's last eps leaves p - eps off 1 (at 0 from 1e16 up)
    unit = ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4))
    assert ga.GrandParams(2.0**53, unit).eps_grid[-1] == 2.0**53 - 1.0
    for p in (2.0**53 + 2.0, 1e16, 1e300):
        with pytest.raises(ValueError, match="- 1 is not exact in float64"):
            ga.GrandParams(p, unit)


@pytest.mark.parametrize("mode", ["geometric", "linear"])
def test_eps_grid_constructors_share_one_check(mode, capsys, tmp_path):
    unit = ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4))
    grid = ga.GrandParams(3.0, unit, eps_count=5).eps_grid
    assert len(grid) == 5 and grid[-1] == 2.0
    assert grid[0] == pytest.approx(2.0 * norms.DEFAULT_EPS_MIN_FRACTION, rel=1e-12, abs=0.0)
    for count in (0, 1):
        with pytest.raises(ValueError, match="need at least two grid points"):
            ga.GrandParams(2.0, unit, eps_count=count)
    with pytest.raises(ValueError, match="need an exponent > 1"):
        ga.GrandParams(1.0, unit, eps_count=5)
    # the CLI reports the same count error, naming the key, and no longer takes a grid
    # mode, either of the two it had; both before making --out
    args = ["grand", "--f", "const:1", "--p", "2", "--out", str(tmp_path / "o")]
    assert cli.main(args + ["--eps-count", "1"]) == 2
    assert capsys.readouterr().err == "config error: param.eps_count: need at least two grid points\n"
    assert cli.main(args + ["--eps-mode", mode]) == 2
    assert capsys.readouterr().err == "config error: --eps-mode: unknown flag for subcommand grand\n"
    assert not (tmp_path / "o").exists()


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 2.0**53, exclude_min=True), st.integers(2, 64))
def test_the_eps_grid_of_a_count(p, count):
    """The one grid rule: ``count`` finite, strictly increasing points from
    (p - 1) * ``DEFAULT_EPS_MIN_FRACTION``, within 1e-12, to exactly p - 1."""
    grid = ga.GrandParams(p, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)), eps_count=count).eps_grid
    assert type(grid) is tuple and len(grid) == count and all(map(math.isfinite, grid))
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[0] == pytest.approx((p - 1.0) * norms.DEFAULT_EPS_MIN_FRACTION, rel=1e-12, abs=0.0)
    assert grid[-1] == p - 1.0


@given(st.floats(1.0, 2.0**53, exclude_min=True),
       st.integers(max_value=1) | st.booleans() | st.floats() | st.text(max_size=3) | st.none())
def test_a_count_below_two_or_not_an_integer_is_an_error(p, count):
    with pytest.raises(ValueError, match="grid points"):
        ga.GrandParams(p, ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4)), eps_count=count)


def random_block(rng, rows, cells):
    """|f| and a = exp(N(0, sigma)) with sigma up to 8, a tenth of the |f| cells zero."""
    absw = np.exp(rng.normal(0.0, rng.uniform(0.1, 8.0), (rows, cells)))
    absw[rng.random(absw.shape) < 0.1] = 0.0
    aw = np.exp(rng.normal(0.0, rng.uniform(0.1, 8.0), (rows, cells)))
    return absw, aw


def block_params(rng, variant):
    p, theta = rng.uniform(1.2, 6.0), rng.uniform(0.2, 3.0)
    a = ga.unit_weight(ga.BoxDomain(0.0, 1.0, 4))  # the scan reads no grandizer
    return ga.GrandParams(p, a, theta=theta, variant=variant)


@pytest.mark.parametrize("variant", list(ga.Variant))
def test_grid_inner_norms_match_the_power_formula(variant):
    rng = np.random.default_rng(5)
    for _ in range(20):
        gp = block_params(rng, variant)
        absw, aw = random_block(rng, 6, 40)
        absw[4:, 25:] = aw[4:, 25:] = 0.0  # the zero padding of clipped windows
        absw[5] = 0.0
        h = 1.0 / 64
        inner = _grand_scan(absw, aw, gp, h)[2]
        p = gp.p
        for j, eps in enumerate(gp.eps_grid):
            w = aw ** (eps / p) if variant is ga.Variant.EXPONENT_OVER_P else aw**eps
            want = (np.sum(absw ** (p - eps) * w, axis=1) * h) ** (1.0 / (p - eps))
            np.testing.assert_allclose(inner[:, j], want, rtol=1e-13, atol=0.0)


def test_grid_inner_norms_of_rows_spanning_600_decades():
    absw = np.array([[1e300, 1e-300, 0.0, 1.0], [1e-300, 2e-300, 1e-310, 0.0]])
    aw = np.array([[1e-200, 1e250, 1.0, 1.0], [1e300, 1.0, 1e-300, 1.0]])
    gp = block_params(np.random.default_rng(0), ga.Variant.EXPONENT_OVER_P)
    inner = _grand_scan(absw, aw, gp, 0.25)[2]
    p = gp.p
    for j, eps in enumerate(gp.eps_grid):
        for r in range(2):
            logs = [(p - eps) * math.log(f) + eps / p * math.log(a)
                    for f, a in zip(absw[r], aw[r]) if f > 0]
            top = max(logs)
            log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs) * 0.25)
            assert inner[r, j] == pytest.approx(math.exp(log_sum / (p - eps)), rel=1e-12, abs=0.0)


def test_batched_scan_rows_match_rows_scanned_alone():
    """Rows are certified after different numbers of split passes; each row must
    still come out exactly as it does when it is scanned on its own."""
    rng = np.random.default_rng(11)
    for trial in range(50):
        gp = block_params(rng, list(ga.Variant)[trial % 2])
        rows, cells = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        absw, aw = random_block(rng, rows, cells)
        value, argmax, inner, _, _, upper = _grand_scan(absw, aw, gp, 1.0 / cells)
        for r in range(rows):
            v, x, row, _, _, ub = _grand_scan(absw[r : r + 1], aw[r : r + 1], gp, 1.0 / cells)
            assert (value[r], argmax[r], upper[r]) == (v[0], x[0], ub[0])
            assert np.array_equal(inner[r], row[0])


@pytest.mark.parametrize("cells_per_block", [1, 1 << 30])
def test_grid_block_size_changes_no_bit(monkeypatch, cells_per_block):
    rng = np.random.default_rng(3)
    for variant in ga.Variant:
        gp = block_params(rng, variant)
        absw, aw = random_block(rng, 9, 21)
        want = _grand_scan(absw, aw, gp, 0.1)
        with monkeypatch.context() as patch:
            patch.setattr(gridfn, "_GRID_BLOCK_CELLS", cells_per_block)
            got = _grand_scan(absw, aw, gp, 0.1)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def test_refinement_takes_few_derivative_passes(monkeypatch, unit_box):
    passes = []
    ln_sums_at = norms._ln_sums_at
    monkeypatch.setattr(norms, "_ln_sums_at", lambda *args: passes.append(1) or ln_sums_at(*args))
    f = ga.build(unit_box, lambda x: np.exp(-40.0 * (x - 0.3) ** 2))
    gp = ga.GrandParams(3.0, ga.weight_from(unit_box, lambda x: np.exp(-3.0 * x)))
    rep = ga.grand_norm(f, gp)
    assert rep.argmax_eps not in gp.eps_grid  # an interior maximum
    assert rep.value == pytest.approx(dense_grand_oracle(f, gp), rel=1e-12, abs=0.0)
    assert 1 <= len(passes) <= 12


def test_an_interior_maximum_beside_an_end_maximum_is_found():
    """Two maxima in the last grid interval: the grid argmax is p - 1, where
    the term still rises, and a higher one lies inside the interval."""
    rng = np.random.default_rng(12345)
    for _ in range(257):
        p, theta = rng.uniform(1.2, 6.0), rng.uniform(0.2, 3.0)
        sf, sa = rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)
        absf = np.exp(rng.normal(0.0, sf, 64))
        absf[rng.random(64) < 0.1] = 0.0
        a = np.exp(rng.normal(0.0, sa, 64))
    dom = ga.BoxDomain(0.0, 1.0, 64)
    gp = ga.GrandParams(p, ga.Weight(dom, a), theta=theta)
    rep = ga.grand_norm(ga.GridFunction(dom, absf), gp)
    eps = np.linspace(gp.eps_grid[-2], p - 1.0, 4001)
    sums = np.sum(absf[:, None] ** (p - eps) * a[:, None] ** (eps / p), axis=0) / 64
    scan = eps**theta * sums ** (1.0 / (p - eps))
    assert scan.argmax() not in (0, eps.size - 1) and scan.max() > scan[-1] * 1.005
    assert rep.value >= scan.max() * (1 - 1e-12)
    assert rep.argmax_eps < p - 1.0


def _reproducer(rng):
    """p, theta, |f| and a grandizer on 64 cells, drawn in this order from ``rng``."""
    p, theta = rng.uniform(1.2, 6.0), rng.uniform(0.2, 3.0)
    absf = np.exp(rng.normal(0.0, rng.uniform(0.1, 8.0), 64))
    return p, theta, absf, np.exp(rng.normal(0.0, rng.uniform(0.1, 8.0), 64))


def _dense_log_terms(absf, a, gp, eps):
    """ln of the weighted terms at each of ``eps``, from scipy's logsumexp over the cells."""
    root = gp.p if gp.variant is ga.Variant.EXPONENT_OVER_P else 1.0
    lns = logsumexp((gp.p - eps) * np.log(absf)[:, None] + eps * np.log(a)[:, None] / root, axis=0)
    pre = gp.theta if gp.variant is ga.Variant.EXPONENT_OVER_P else gp.theta / (gp.p - eps)
    return pre * np.log(eps) + (lns + math.log(1.0 / absf.size)) / (gp.p - eps)


def test_a_sup_between_grid_points_is_found_and_certified():
    """Draw 881 of the reproducer (seed 0): the grid's largest term is at p - 1, and the sup,
    which a 4,001-point scan puts at 1572.23514, lies in the second interval below it.  The
    value is within 1e-12 of its bound."""
    rng = np.random.default_rng(0)
    for _ in range(882):
        p, theta, absf, a = _reproducer(rng)
    dom = ga.BoxDomain(0.0, 1.0, 64)
    gp = ga.GrandParams(p, ga.Weight(dom, a), theta=theta)
    rep = ga.grand_norm(ga.GridFunction(dom, absf), gp)
    scan = np.exp(_dense_log_terms(absf, a, gp, np.linspace(1e-9, p - 1.0, 4001)).max())
    assert scan == pytest.approx(1572.23514, rel=1e-8, abs=0.0)
    assert rep.value >= 1572.2351 and rep.value >= rep.upper_bound / (1 + 1e-12)
    assert scan <= rep.upper_bound * (1 + 1e-13)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(ga.Variant)))
def test_the_upper_bound_holds_and_the_value_is_within_the_gap(seed, variant):
    """Over the reproducer's distribution, no point of a dense scan (the grid and 2,001 more)
    is above the upper bound, and the value is within ``_GAP`` of it."""
    p, theta, absf, a = _reproducer(np.random.default_rng(seed))
    dom = ga.BoxDomain(0.0, 1.0, 64)
    gp = ga.GrandParams(p, ga.Weight(dom, a), theta=theta, variant=variant)
    rep = ga.grand_norm(ga.GridFunction(dom, absf), gp)
    eps = np.concatenate((gp.eps_grid, np.linspace(1e-9, p - 1.0, 2001)))
    assert _dense_log_terms(absf, a, gp, eps).max() <= math.log(rep.upper_bound) + 1e-13
    assert rep.value <= rep.upper_bound and rep.value >= rep.upper_bound / (1 + norms._GAP)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(ga.Variant)))
def test_the_value_does_not_depend_on_the_grid(seed, variant):
    """Over the reproducer's distribution, the value on the default grid and on a 33-point
    grid agree within 2 ``_GAP``: the grid only seeds the certified sup.  Each value lies
    within ``_GAP`` of its own upper bound."""
    p, theta, absf, a = _reproducer(np.random.default_rng(seed))
    dom = ga.BoxDomain(0.0, 1.0, 64)
    reps = []
    for count in (norms.DEFAULT_EPS_COUNT, 33):
        gp = ga.GrandParams(p, ga.Weight(dom, a), theta=theta, variant=variant, eps_count=count)
        reps.append(ga.grand_norm(ga.GridFunction(dom, absf), gp))
        assert reps[-1].upper_bound / (1 + norms._GAP) <= reps[-1].value <= reps[-1].upper_bound
    assert len(reps[0].curve) <= norms.DEFAULT_EPS_COUNT + 1
    assert reps[0].value == pytest.approx(reps[1].value, rel=2 * norms._GAP, abs=0.0)


def test_grand_norm_of_a_grandizer_beyond_float_range():
    """a^eps reaches 1e600 in one cell; the sup, at eps = p - 1 = 2, is
    2 * 0.25 * 1e-300 * 1e600 = 5.0e299 (a 50-digit sum gives
    5.0000000000000006503e299 at the binary values of the inputs)."""
    dom = ga.BoxDomain(0.0, 1.0, 4)
    f = ga.GridFunction(dom, [1e-300, 2e-300, 1e-310, 0.0])
    a = ga.Weight(dom, [1e300, 1.0, 1e-300, 1.0])
    rep = ga.grand_norm(f, ga.GrandParams(3.0, a, variant=ga.Variant.EXPONENT_FULL))
    assert rep.value == pytest.approx(5.0e299, rel=1e-12, abs=0.0)
    assert rep.argmax_eps == 2.0


_TINY_LOG, _HUGE_LOG = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


def _log_inner(absf, lnw, q, h):
    """ln (sum |f|^q w h)^(1/q) over the live cells, from scipy's logsumexp."""
    live = absf > 0
    return (logsumexp(q * np.log(absf[live]) + lnw[live]) + math.log(h)) / q


def _assert_matches_in_range(got, log_want):
    """Where the reference norm is a normal float, the value is that float."""
    if _TINY_LOG < log_want < _HUGE_LOG:
        assert np.isfinite(got) and got > 0.0
        assert got == pytest.approx(math.exp(log_want), rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.none(), st.floats(-30.0, 30.0)), st.floats(-300.0, 300.0)),
        min_size=1,
        max_size=12,
    ).filter(lambda cells: any(f is not None for f, _ in cells)),
    st.floats(1.2, 6.0),
    st.sampled_from(list(ga.Variant)),
)
def test_inner_norms_match_a_log_space_reference_across_float_range(cells, p, variant):
    """Grandizers and weights spanning 1e+-300: every grid inner norm and
    weighted_lp_norm that is a normal float is right to 1e-12; below range
    they may be 0, and a norm or weighted term past float range is an error.
    |f| spans 1e+-30 with some cells 0: the rounding of a log-domain term grows
    with |ln|f||, and |f| across 600 decades has its own test above."""
    dom = ga.BoxDomain(0.0, 1.0, len(cells))
    absf = np.array([0.0 if d is None else 10.0**d for d, _ in cells])
    a = np.array([10.0**d for _, d in cells])
    f, w = ga.GridFunction(dom, absf), ga.Weight(dom, a)
    gp = ga.GrandParams(p, w, variant=variant)
    root = p if variant is ga.Variant.EXPONENT_OVER_P else 1.0
    h = dom.cell_volume
    logs = [_log_inner(absf, eps / root * np.log(a), p - eps, h) for eps in gp.eps_grid]
    terms = [log + math.log(prefactor(gp, eps)) for log, eps in zip(logs, gp.eps_grid)]
    if max(logs + terms) > _HUGE_LOG:
        with pytest.raises(ValueError, match="the norm exceeds float range"):
            ga.grand_norm(f, gp)
    else:
        curve = _grid_rows(ga.grand_norm(f, gp), gp)
        for (eps, inner, _), log_want in zip(curve, logs, strict=True):
            _assert_matches_in_range(inner, log_want)
    log_lp = _log_inner(absf, np.log(a), p, h)
    if log_lp > _HUGE_LOG:
        with pytest.raises(ValueError, match="the norm exceeds float range"):
            ga.weighted_lp_norm(f, p, w)
    else:
        _assert_matches_in_range(ga.weighted_lp_norm(f, p, w), log_lp)


@settings(max_examples=30, deadline=None)
@given(st.integers(-300, 300), st.integers(0, 10_000))
def test_norms_scale_exactly_across_float_range(k, seed):
    dom = ga.BoxDomain(0.0, 1.0, 32)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 2.0, 32) * np.exp(2j * np.pi * rng.random(32))
    vals[rng.random(32) < 0.1] = 0.0
    f = ga.GridFunction(dom, vals)
    c = 10.0**k
    w = ga.weight_from(dom, lambda x: 1.0 + x)
    gp = ga.GrandParams(2.5, w)
    window = ga.WindowSpec(4, 4)
    classical = ga.AmalgamSpec(ga.ClassicalSpace(2.0, w), ga.ClassicalSpace(3.0), window)
    grand = ga.AmalgamSpec(gp, gp, window)
    for norm in (
        lambda g: ga.weighted_lp_norm(g, 2.5, w),
        lambda g: ga.grand_norm(g, gp).value,
        lambda g: ga.amalgam_norm(g, classical).value,
        lambda g: ga.amalgam_norm(g, grand).value,
    ):
        assert norm(ga.scale(f, c)) == pytest.approx(c * norm(f), rel=1e-12, abs=0.0)


def _fsum_inner(absf, a, p, eps, root, h):
    """(inner norm, rel) at ``eps``: the norm from the log form, summed by ``math.fsum``, or
    None when it is no normal float; rel is 1e-13 plus what rounding ln S costs.  A sum
    ln S = c + ln(sum exp(t - c)) of magnitude L is good to an ulp of L at best, whichever
    way it is summed, and the root divides that by p - eps."""
    live = absf > 0
    lnm = math.log(absf.max())
    lng = np.log(absf[live]) - lnm
    t = p * lng + eps * (np.log(a[live]) / root - lng)
    top = float(t.max())
    log_sum = top + math.log(math.fsum(np.exp(t - top).tolist()))
    log_inner = lnm + (log_sum + math.log(h)) / (p - eps)
    rel = 1e-13 + 2.0 * float(np.spacing(abs(log_sum))) / (p - eps)
    return (math.exp(log_inner) if _TINY_LOG < log_inner < _HUGE_LOG else None), rel


@pytest.mark.parametrize("variant", list(ga.Variant))
def test_long_rows_stream_through_ragged_cell_chunks(variant):
    """A row of three chunks and 5 cells, one chunk of it all zero, with |f| across
    1e+-30 and the grandizer across 1e+-300: every curve row, the maximizer's
    included, is the fsum of its terms to 1e-13 and the rounding of ln S.  A curve
    with a grid norm past float range (full weighting at p = 3) is an error."""
    cells = 3 * gridfn._GRID_BLOCK_CELLS + 5
    rng = np.random.default_rng(17)
    dom = ga.BoxDomain(0.0, 1.0, cells)
    absf = 10.0 ** rng.uniform(-30.0, 30.0, cells)
    absf[gridfn._GRID_BLOCK_CELLS : 2 * gridfn._GRID_BLOCK_CELLS] = 0.0
    a = 10.0 ** rng.uniform(-300.0, 300.0, cells)
    compared = 0
    for p in (1.5, 3.0):
        gp = ga.GrandParams(p, ga.Weight(dom, a), theta=0.7, variant=variant, eps_count=33)
        root = p if variant is ga.Variant.EXPONENT_OVER_P else 1.0
        g = ga.GridFunction(dom, absf)
        if any(_fsum_inner(absf, a, p, eps, root, dom.cell_volume)[0] is None for eps in gp.eps_grid):
            with pytest.raises(ValueError, match="the norm exceeds float range"):
                ga.grand_norm(g, gp)
            continue
        rep = ga.grand_norm(g, gp)
        for eps, inner, term in rep.curve:
            want, rel = _fsum_inner(absf, a, p, eps, root, dom.cell_volume)
            if want is not None:
                assert inner == pytest.approx(want, rel=rel, abs=0.0)
                assert term == pytest.approx(prefactor(gp, eps) * want, rel=rel, abs=0.0)
                compared += 1
    assert compared >= 20


def _chunked(monkeypatch, cells_per_chunk, run):
    with monkeypatch.context() as patch:
        patch.setattr(gridfn, "_GRID_BLOCK_CELLS", cells_per_chunk)
        return run()


def test_chunked_rows_agree_with_one_chunk(monkeypatch):
    """A lone row and the 256-cell windows of a 2-D amalgam, merged over chunks of 100
    cells (and a ragged last one), agree with one chunk to 1e-14."""
    dom = ga.BoxDomain(0.0, 1.0, 1000)
    f = make_random_function(dom, 4)
    gp = ga.GrandParams(2.5, ga.weight_from(dom, lambda x: np.exp(3.0 * x)))
    want = ga.grand_norm(f, gp)
    got = _chunked(monkeypatch, 100, lambda: ga.grand_norm(f, gp))
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
    for (_, inner, _), (_, inner_want, _) in zip(_grid_rows(got, gp), _grid_rows(want, gp)):
        assert inner == pytest.approx(inner_want, rel=1e-14, abs=0.0)
    lp = _chunked(monkeypatch, 100, lambda: ga.weighted_lp_norm(f, 3.0, gp.grandizer))
    assert lp == pytest.approx(ga.weighted_lp_norm(f, 3.0, gp.grandizer), rel=1e-14, abs=0.0)

    # An interior maximum on a row of ten chunks, one all zero: the split passes rebuild the
    # chunks they sum, and find the maximizer of one chunk.
    g = ga.build(dom, lambda x: np.where((x > 0.5) & (x < 0.6), 0.0, np.exp(-40.0 * (x - 0.3) ** 2)))
    assert not g.values[500:600].any()
    gp = ga.GrandParams(3.0, ga.weight_from(dom, lambda x: np.exp(-3.0 * x)))
    want = ga.grand_norm(g, gp)
    got = _chunked(monkeypatch, 100, lambda: ga.grand_norm(g, gp))
    assert want.argmax_eps not in gp.eps_grid
    assert got.argmax_eps == pytest.approx(want.argmax_eps, rel=1e-8, abs=0.0)
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)

    dom2 = ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (48, 48))
    f2 = make_random_function(dom2, 5)
    gp2 = ga.GrandParams(2.0, ga.weight_from(dom2, lambda x, y: 1.0 + x * y))
    spec = ga.AmalgamSpec(gp2, gp2, ga.WindowSpec(16, 8))
    want2 = ga.amalgam_norm(f2, spec)
    got2 = _chunked(monkeypatch, 100, lambda: ga.amalgam_norm(f2, spec))
    assert got2.value == pytest.approx(want2.value, rel=1e-14, abs=0.0)


def _traced_rows(run, cells):
    """The traced peak of ``run()`` above what was allocated before it, in float64 rows of
    ``cells``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * cells)


def _long_row():
    """A Gaussian and a weight on 2^18 cells."""
    dom = ga.BoxDomain(0.0, 1.0, 1 << 18)
    f = ga.build(dom, lambda x: np.exp(-((x - 0.4) ** 2) / 0.02))
    return f, ga.weight_from(dom, lambda x: np.exp(-x))


def test_grand_norm_of_a_long_row_allocates_little_beyond_its_log_form():
    """On 2^18 cells the log form keeps ln m and builds each chunk's A and B when asked, and
    the scan and the split passes stream them through chunk buffers: the traced peak is a
    few chunks of 2^14 cells, under half a row."""
    f, a = _long_row()
    gp = ga.GrandParams(2.0, a)
    assert _traced_rows(lambda: ga.grand_norm(f, gp), f.domain.size) < 0.5


@pytest.mark.parametrize("weighted", [False, True])
def test_weighted_lp_norm_of_a_long_row_allocates_little_beyond_its_log_form(weighted):
    """weighted_lp_norm runs the same log form, once: under half a row on 2^18 cells, with
    a weight or without."""
    f, w = _long_row()
    w = w if weighted else None
    assert _traced_rows(lambda: ga.weighted_lp_norm(f, 3.0, w), f.domain.size) < 0.5


def _log_form_block(rng, rows, cells, kind):
    """A (rows, cells) block with zero cells and, for ``kind`` "zero row", a zero row;
    for "padded", the windows of a function whose last window hangs over the box, with
    its weight's windows (both zero-padded there)."""
    if kind == "padded":
        n = cells * rows
        vals = rng.normal(size=n) * 10.0 ** rng.uniform(-30.0, 30.0, n)
        vals[rng.random(n) < 0.25] = 0.0
        window = ga.WindowSpec(cells, max(1, cells - 1))
        a = 10.0 ** rng.uniform(-30.0, 30.0, n)
        return _window_blocks(vals[None], window), _window_blocks(a[None], window)
    vals = rng.normal(size=(rows, cells)) * 10.0 ** rng.uniform(-30.0, 30.0, (rows, cells))
    vals[rng.random((rows, cells)) < 0.25] = 0.0
    if kind == "zero row":
        vals[rng.integers(rows)] = 0.0
    return vals, 10.0 ** rng.uniform(-30.0, 30.0, (rows, cells))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 9),
    st.sampled_from(["zeros", "zero row", "padded"]),
    st.booleans(),
    st.booleans(),
    st.floats(1.2, 6.0),
    st.integers(0, 10_000),
    st.integers(1, 10),
)
def test_log_form_of_samples_is_the_log_form_of_their_moduli(rows, cells, kind, complex_, weighted, p, seed, width):
    """The log form takes real or complex samples: in every chunk of ``width`` cells, and for
    a selection of its rows, bit for bit what it gives on their moduli.  The block it is
    given, which may be a view of the caller's array, is left as it was."""
    rng = np.random.default_rng(seed)
    samples, a = _log_form_block(rng, rows, cells, kind)
    if complex_:
        samples = samples * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, samples.shape))
    a = a if weighted else None
    before = samples.copy()
    sel = np.flatnonzero(rng.random(len(samples)) < 0.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridfn, "_GRID_BLOCK_CELLS", width)
        got, want = norms._LogForm(samples, p, a, p), norms._LogForm(np.abs(samples), p, a, p)
        assert len(got.chunks) == -(-samples.shape[1] // width)
        for g, w in ((got, want), (got.select(sel), want.select(sel))):
            assert g.lnm.tobytes() == w.lnm.tobytes()
            for cut in g.chunks:
                for x, y in zip(g.chunk(cut), w.chunk(cut), strict=True):
                    assert x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()
    assert samples.dtype == before.dtype and samples.tobytes() == before.tobytes()


def test_norms_past_float_range_are_errors():
    """|f| = a = 1e300 on the unit box: the full-weighting grand norm is about 1e900 at
    eps = p - 1 = 2, and the L^1(a) norm 1e600.  Both are errors, not inf."""
    dom = ga.BoxDomain(0.0, 1.0, 4)
    f, a = ga.constant(dom, 1e300), ga.Weight(dom, np.full(4, 1e300))
    with pytest.raises(ValueError, match="the norm exceeds float range"):
        ga.grand_norm(f, ga.GrandParams(3.0, a, variant=ga.Variant.EXPONENT_FULL))
    with pytest.raises(ValueError, match="the norm exceeds float range"):
        ga.weighted_lp_norm(f, 1.0, a)


def test_weighted_terms_past_float_range_are_errors():
    """Finite inner norms whose terms eps**theta * inner pass float range are errors, not inf:
    at the grid's last eps (|f| = 1e308, theta = 3: 8e308 at eps = 2), and at an interior
    maximum between grid points alone (|f| on half the box, p = 10, theta = 5: the grid's largest term
    is 0.7% below it, and |f| is scaled to put the float maximum between the two)."""
    dom = ga.BoxDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="the norm exceeds float range"):
        ga.grand_norm(ga.constant(dom, 1e308), ga.GrandParams(3.0, ga.unit_weight(dom), theta=3.0))
    half = ga.GridFunction(dom, np.array([1.0, 1.0, 0.0, 0.0]))
    gp = ga.GrandParams(10.0, ga.unit_weight(dom), theta=5.0, eps_count=2)
    rep = ga.grand_norm(half, gp)
    ln_grid, ln_top = math.log(max(t for _, _, t in _grid_rows(rep, gp))), math.log(rep.value)
    ln_c = _HUGE_LOG - 0.5 * (ln_grid + ln_top)
    assert ln_c + ln_grid < _HUGE_LOG - 1e-3 and ln_c + ln_top > _HUGE_LOG + 1e-3
    with pytest.raises(ValueError, match="the norm exceeds float range"):
        ga.grand_norm(ga.scale(half, math.exp(ln_c)), gp)


def test_norm_report_csv(tmp_path, unit_box):
    gp = ga.GrandParams(2.0, ga.unit_weight(unit_box))
    rep = ga.grand_norm(ga.constant(unit_box, 1.0), gp)
    path = tmp_path / "curve.csv"
    from grandamalgam.norms import write_norm_csv

    write_norm_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,inner_norm,weighted_term"
    assert len(lines) == 1 + len(rep.curve)
