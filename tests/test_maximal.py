import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grandamalgam as ga
from grandamalgam import cli, maximal


def random_function(domain, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, domain.shape)
    if complex_values:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, domain.shape)
    return ga.GridFunction(domain, vals)


def rel_diff(a, b):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def test_constant_is_fixed_point():
    dom = ga.BoxDomain(-1.0, 1.0, 32)
    f = ga.constant(dom, 3.0)
    for rs in (ga.RadiusSet((1, 3, 7)), ga.RadiusSet.full(dom), ga.RadiusSet.dyadic(dom)):
        for impl in (ga.maximal_naive, ga.maximal_fast):
            res = impl(f, rs)
            np.testing.assert_allclose(np.real(res.mf.values), 3.0, rtol=1e-13)


def test_zero_function():
    dom = ga.BoxDomain(-1.0, 1.0, 16)
    res = ga.maximal_fast(ga.constant(dom, 0.0), ga.RadiusSet.full(dom))
    assert np.all(res.mf.values == 0)


def test_closed_form_indicator_tail():
    # M chi_[0,1](x) = 1/(2x) for x >= 1
    dom = ga.BoxDomain(-16.0, 16.0, 4096)
    chi = ga.indicator(dom, 0.0, 1.0)
    rs = ga.RadiusSet.full(dom)
    for x, mfx in ga.maximal_tail_profile(chi, rs, [2.0, 4.0, 8.0]):
        assert mfx == pytest.approx(1.0 / (2.0 * x), rel=0.01, abs=0.0)
    # inside the support the value is 1 (Lebesgue point of the indicator)
    (_, inside), = ga.maximal_tail_profile(chi, rs, [0.5])
    assert inside == pytest.approx(1.0, rel=0.01, abs=0.0)
    # zero function profiles to zero
    zero = ga.constant(dom, 0.0)
    assert ga.maximal_tail_profile(zero, ga.RadiusSet((4,)), [2.0]) == [(2.0, 0.0)]


def test_tail_profile_rejects_outside_points():
    dom = ga.BoxDomain(-1.0, 1.0, 16)
    with pytest.raises(ValueError, match="outside"):
        ga.maximal_tail_profile(ga.constant(dom, 1.0), ga.RadiusSet((2,)), [3.0])


def test_fast_matches_naive_1d_seeded():
    rng = np.random.default_rng(123)
    for k in range(40):
        n = int(rng.integers(8, 160))
        dom = ga.BoxDomain(-1.0, 1.0, n)
        f = random_function(dom, k, complex_values=bool(k % 2))
        radii = sorted(rng.choice(np.arange(1, n + 1), size=min(6, n), replace=False))
        rs = ga.RadiusSet(tuple(int(r) for r in radii), include_center=bool(k % 3))
        a = ga.maximal_naive(f, rs)
        b = ga.maximal_fast(f, rs)
        assert rel_diff(np.real(a.mf.values), np.real(b.mf.values)) <= 1e-12


def test_fast_matches_naive_full_radius_set():
    dom = ga.BoxDomain(0.0, 2.0, 128)
    f = random_function(dom, 77)
    rs = ga.RadiusSet.full(dom)
    a = ga.maximal_naive(f, rs)
    b = ga.maximal_fast(f, rs)
    assert rel_diff(np.real(a.mf.values), np.real(b.mf.values)) <= 1e-12
    np.testing.assert_array_equal(a.argmax_radius, b.argmax_radius)


def test_fast_matches_naive_2d():
    rng = np.random.default_rng(5)
    for k in range(4):
        dom = ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (24, 24))
        f = random_function(dom, 200 + k)
        radii = sorted(rng.choice(np.arange(1, 12), size=4, replace=False))
        rs = ga.RadiusSet(tuple(int(r) for r in radii))
        a = ga.maximal_naive(f, rs)
        b = ga.maximal_fast(f, rs)
        assert rel_diff(np.real(a.mf.values), np.real(b.mf.values)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.one_of(st.integers(1, 5), st.integers(70, 110)))
def test_fast_matches_naive_property(seed, nradii):
    # 70 or more radii make at least three blocks of the pruned kernel
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 64)) if nradii <= 5 else int(rng.integers(nradii, 513))
    dom = ga.BoxDomain(0.0, 1.0, n)
    f = random_function(dom, seed)
    radii = sorted(rng.choice(np.arange(1, n + 1), size=min(nradii, n), replace=False))
    rs = ga.RadiusSet(tuple(int(r) for r in radii))
    a = ga.maximal_naive(f, rs)
    b = ga.maximal_fast(f, rs)
    assert rel_diff(np.real(a.mf.values), np.real(b.mf.values)) <= 1e-12
    np.testing.assert_array_equal(a.argmax_radius, b.argmax_radius)


def _fold_every_radius(absf, rs):
    """The all-radii sweep: every radius folded over every cell, ascending."""
    best, arg = maximal._init_best(absf, rs)
    maximal._BallTable(absf, rs.radii_cells[-1]).fold(rs.radii_cells, best, arg)
    return best, arg


def _kernel_input(kind, shape):
    """Tie-heavy inputs (constant, indicator, integers, zeros), skewed and plain noise."""
    rng = np.random.default_rng(41)
    if kind == "constant":
        return np.full(shape, 2.5)
    if kind == "indicator":
        f = np.zeros(shape)
        f[tuple(slice(n // 3, n // 3 + max(1, n // 8)) for n in shape)] = 1.0
        return f
    if kind == "integers":
        return rng.integers(0, 4, shape).astype(float)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "power8":
        return rng.random(shape) ** 8
    if kind == "overflow":  # prefix sums overflow: some ball sums are inf - inf
        return np.where(rng.random(shape) < 0.5, 0.0, 1.5e308)
    return rng.random(shape)


def _branches(monkeypatch):
    """Spies on the two ways a block is evaluated; returns the names seen."""
    seen = []
    for name in ("gather", "fold"):
        method = getattr(maximal._BallTable, name)

        def spy(self, *args, _method=method, _name=name):
            seen.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(maximal._BallTable, name, spy)
    return seen


# 1-D: 128 radii make 4 blocks; 2-D (100 x 60) with 100 radii makes 4 blocks
# and clips balls at both ends of both axes.  Custom sets end at the radius n.
_GRIDS = {
    "1d": ((256,), lambda dom: [ga.RadiusSet.full(dom), ga.RadiusSet.dyadic(dom),
                                ga.RadiusSet(tuple(range(1, 256, 2)) + (256,))]),
    "2d": ((100, 60), lambda dom: [ga.RadiusSet.full(dom), ga.RadiusSet.dyadic(dom),
                                   ga.RadiusSet(tuple(range(1, 101)))]),
}


@pytest.mark.parametrize(
    "kind", ["constant", "indicator", "integers", "zeros", "power8", "uniform", "overflow"]
)
@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("include_center", [True, False])
@pytest.mark.parametrize("branch", ["natural", "gather", "slice"])
def test_pruned_kernel_is_bit_identical_to_the_all_radii_fold(monkeypatch, kind, grid, include_center,
                                                              branch):
    shape, radius_sets = _GRIDS[grid]
    dom = ga.BoxDomain((0.0,) * len(shape), (1.0,) * len(shape), shape)
    absf = _kernel_input(kind, shape)
    if branch != "natural":  # every active block by gathers, or every one by slices
        monkeypatch.setattr(maximal, "GATHER_SHARE", 1.0 if branch == "gather" else 0.0)
    seen = _branches(monkeypatch)
    for block in (maximal.BLOCK, 3):  # 3: many blocks, so ties across anchors are common
        monkeypatch.setattr(maximal, "BLOCK", block)
        for rs in radius_sets(dom):
            rs = ga.RadiusSet(rs.radii_cells, include_center)
            seen.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                best, arg = maximal._ball_averages(absf, rs)
                taken = list(seen)
                want_best, want_arg = _fold_every_radius(absf, rs)
            np.testing.assert_array_equal(best, want_best)
            np.testing.assert_array_equal(arg, want_arg)
            if branch == "gather":
                assert taken.count("fold") == 1  # the anchors only
            if branch == "slice":
                assert "gather" not in taken


def test_pruned_kernel_takes_both_branches_on_noise(monkeypatch):
    # dense blocks at small radii, sparse ones at large radii
    dom = ga.BoxDomain(0.0, 1.0, 1024)
    absf = np.random.default_rng(0).random(1024)
    rs = ga.RadiusSet.full(dom)
    seen = _branches(monkeypatch)
    best, arg = maximal._ball_averages(absf, rs)
    assert seen.count("fold") > 1 and "gather" in seen
    want_best, want_arg = _fold_every_radius(absf, rs)
    np.testing.assert_array_equal(best, want_best)
    np.testing.assert_array_equal(arg, want_arg)


def test_constant_beyond_the_prefix_table_range_is_its_own_maximal_function(tmp_path):
    """max|f| times the cell count passes the float range, but every average is 1e308."""
    out = tmp_path / "m"
    assert cli.main(["maximal", "--f", "const:1e308", "--box", "0,1", "--cells", "8", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "maximal.csv").read_text().splitlines()[1:]]
    assert [float(row[2]) for row in rows] == [1e308] * 8


def test_overflowing_prefix_table_is_scaled_by_a_power_of_two():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    absf = np.array([1.5e308, 1.5e308, 0, 0, 0, 0, 0, 0])
    rs = ga.RadiusSet((1, 2, 3), include_center=False)
    got = ga.maximal_fast(ga.GridFunction(dom, absf), rs)
    # every ball sum is 1.5e308 or 3e308, exact after scaling, so the oracle scales too
    want = ga.maximal_naive(ga.GridFunction(dom, np.ldexp(absf, -8)), rs)
    np.testing.assert_array_equal(got.mf.values, np.ldexp(want.mf.values, 8))
    np.testing.assert_array_equal(got.argmax_radius, want.argmax_radius)


@pytest.mark.parametrize("include_center", [True, False])
def test_a_finite_prefix_table_is_not_scaled(include_center):
    """max|f| times the cell count passes 2^1020, but the table is finite: no scaling, so
    the subnormal cells, which a scaling would round, keep every bit."""
    absf = np.zeros(64)
    absf[0] = 1e308
    absf[40:] = 5e-324 * np.arange(1, 25)
    assert maximal._table_exponent(absf) == 0
    rs = ga.RadiusSet.full(ga.BoxDomain(0.0, 1.0, 64), include_center)
    got = ga.maximal_fast(ga.GridFunction(ga.BoxDomain(0.0, 1.0, 64), absf), rs)
    want_best, want_arg = _fold_every_radius(absf, rs)
    np.testing.assert_array_equal(got.mf.values, want_best)
    np.testing.assert_array_equal(got.argmax_radius, want_arg)


def _assert_fast_matches_naive(f, rs):
    a = ga.maximal_naive(f, rs)
    b = ga.maximal_fast(f, rs)
    assert rel_diff(np.real(a.mf.values), np.real(b.mf.values)) <= 1e-12
    np.testing.assert_array_equal(a.argmax_radius, b.argmax_radius)


@pytest.mark.parametrize("include_center", [True, False])
def test_fast_matches_naive_non_square_clipped_on_both_sides(include_center):
    # radii up to the larger extent clip balls at both ends of both axes
    dom = ga.BoxDomain((0.0, 0.0), (1.0, 2.0), (20, 33))
    f = random_function(dom, 31, complex_values=True)
    rs = ga.RadiusSet((1, 2, 5, 9, 10, 16, 19, 20, 21, 32, 33), include_center)
    _assert_fast_matches_naive(f, rs)


def test_fast_matches_naive_without_center_1d():
    dom = ga.BoxDomain(0.0, 1.0, 57)
    f = random_function(dom, 32)
    _assert_fast_matches_naive(f, ga.RadiusSet.full(dom, include_center=False))
    _assert_fast_matches_naive(f, ga.RadiusSet((3, 28, 29, 56, 57), include_center=False))


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 7), (7, 1)])
@pytest.mark.parametrize("include_center", [True, False])
def test_fast_matches_naive_single_cell_axes(shape, include_center):
    dom = ga.BoxDomain((0.0,) * len(shape), (1.0,) * len(shape), shape)
    f = random_function(dom, 33)
    rs = ga.RadiusSet(tuple(range(1, max(shape) + 1)), include_center)
    _assert_fast_matches_naive(f, rs)


def test_sublinearity():
    dom = ga.BoxDomain(-2.0, 2.0, 64)
    rs = ga.RadiusSet.full(dom)
    f = random_function(dom, 1, complex_values=True)
    g = random_function(dom, 2, complex_values=True)
    mf = np.real(ga.maximal_fast(f, rs).mf.values)
    mg = np.real(ga.maximal_fast(g, rs).mf.values)
    mfg = np.real(ga.maximal_fast(f + g, rs).mf.values)
    assert np.all(mfg <= mf + mg + 1e-12)


def test_positive_homogeneity():
    dom = ga.BoxDomain(-2.0, 2.0, 64)
    rs = ga.RadiusSet((1, 2, 5))
    f = random_function(dom, 3, complex_values=True)
    mf = np.real(ga.maximal_fast(f, rs).mf.values)
    for lam in (2.5, -3.0, 1.5j):
        scaled = np.real(ga.maximal_fast(ga.scale(f, lam), rs).mf.values)
        np.testing.assert_allclose(scaled, abs(lam) * mf, rtol=1e-12)


def test_pointwise_domination_with_center_term():
    dom = ga.BoxDomain(-2.0, 2.0, 64)
    f = random_function(dom, 4, complex_values=True)
    rs = ga.RadiusSet((1, 4), include_center=True)
    mf = np.real(ga.maximal_fast(f, rs).mf.values)
    assert np.all(mf >= np.abs(f.values) - 1e-15)
    # without the center term a spike can dominate its ball averages
    rs0 = ga.RadiusSet((1, 4), include_center=False)
    spike = ga.GridFunction(dom, np.eye(1, 64, 32).ravel())
    m0 = np.real(ga.maximal_fast(spike, rs0).mf.values)
    assert m0[32] < 1.0


def test_monotone_in_radius_set():
    dom = ga.BoxDomain(-2.0, 2.0, 64)
    f = random_function(dom, 6)
    small = np.real(ga.maximal_fast(f, ga.RadiusSet((2, 8))).mf.values)
    large = np.real(ga.maximal_fast(f, ga.RadiusSet((1, 2, 5, 8, 16))).mf.values)
    assert np.all(large >= small - 1e-15)


def test_argmax_ties_toward_smaller_radius():
    dom = ga.BoxDomain(0.0, 1.0, 9)
    f = ga.constant(dom, 1.0)
    # all averages equal 1: center term (radius 0) wins everywhere
    res = ga.maximal_fast(f, ga.RadiusSet((1, 2), include_center=True))
    assert np.all(res.argmax_radius == 0)
    res2 = ga.maximal_naive(f, ga.RadiusSet((1, 2), include_center=False))
    assert np.all(res2.argmax_radius == 1)


def test_radius_set_validation():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        ga.RadiusSet(())
    with pytest.raises(ValueError):
        ga.RadiusSet((0, 1))
    with pytest.raises(ValueError):
        ga.RadiusSet((2, 2))
    with pytest.raises(ValueError):
        ga.maximal_fast(ga.constant(dom, 1.0), ga.RadiusSet((9,)))
    assert ga.RadiusSet.full(dom).radii_cells == (1, 2, 3, 4)
    assert ga.RadiusSet.dyadic(dom).radii_cells == (1, 2, 4)


def test_maximal_csv(tmp_path):
    dom = ga.BoxDomain(0.0, 1.0, 4)
    res = ga.maximal_fast(ga.constant(dom, 2.0), ga.RadiusSet((1,)))
    path = tmp_path / "m.csv"
    from grandamalgam.maximal import write_maximal_csv

    write_maximal_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x0,re,im,argmax_radius"
    assert len(lines) == 5


def test_maximal_csv_matches_generic_writer(tmp_path):
    from grandamalgam.maximal import MaximalResult, write_maximal_csv
    from grandamalgam.reporting import write_csv

    dom = ga.BoxDomain((-1.5, 0.0), (2.0, 1e-3), (3, 4))
    vals = np.array([1e300, -1e-300, -0.0, 1.0 / 3.0, 2.5e-308, -1.7976931348623157e308,
                     0.1, 7.0, 1e-5, -2.0, 123456789.0, 0.0])
    vals = np.array([complex(a, b) for a, b in zip(vals, vals[::-1])])
    res = MaximalResult(ga.GridFunction(dom, vals), np.arange(12).reshape(3, 4) * 7)
    write_maximal_csv(res, tmp_path / "fast.csv")
    mesh = dom.center_mesh()
    flat = res.mf.values.reshape(-1)
    rows = [
        [i, float(mesh[0].flat[i]), float(mesh[1].flat[i]), float(flat[i].real),
         float(flat[i].imag), int(res.argmax_radius.flat[i])]
        for i in range(flat.size)
    ]
    write_csv(tmp_path / "generic.csv", ["index", "x0", "x1", "re", "im", "argmax_radius"], rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()
