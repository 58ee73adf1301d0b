import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grandamalgam as ga
from grandamalgam.amalgam import lattice_weight


def make_random_function(domain, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=domain.shape) + 1j * rng.normal(size=domain.shape)
    return ga.GridFunction(domain, vals)


@pytest.fixture
def box16():
    return ga.BoxDomain(0.0, 1.0, 16)


def test_control_function_zero(box16):
    cf = ga.control_function(ga.constant(box16, 0.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 4))
    assert np.all(cf.values == 0)


def test_control_function_constant_classical(box16):
    # window of 4 cells with h = 1/16 has measure 1/4, so each value is 0.5
    cf = ga.control_function(ga.constant(box16, 1.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 4))
    assert cf.values.shape == (4,)
    np.testing.assert_allclose(cf.values, 0.5, rtol=1e-14)


def test_control_function_constant_grand_dense_oracle(box16):
    gp = ga.GrandParams(2.0, ga.unit_weight(box16))
    cf = ga.control_function(ga.constant(box16, 1.0), ga.GrandSpace(gp), ga.WindowSpec(4, 4))
    eps = np.linspace(1e-7, 1.0, 400_001)
    oracle = float(np.max(eps * 0.25 ** (1.0 / (2.0 - eps))))
    np.testing.assert_allclose(cf.values, oracle, rtol=1e-9)


def test_amalgam_norm_two_stage_hand_value(box16):
    # F = 0.5 on 4 anchors of measure 1/4 each: ||F||_2 = 0.5
    spec = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 4))
    value = ga.amalgam_norm(ga.constant(box16, 1.0), spec).value
    assert value == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_amalgam_norm_one_window_degeneracy(box16):
    spec = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.ClassicalSpace(2.0), ga.WindowSpec(16, 16))
    f = ga.constant(box16, 1.0)
    assert ga.amalgam_norm(f, spec).value == pytest.approx(
        ga.weighted_lp_norm(f, 2.0), rel=1e-14, abs=0.0
    )
    # also for a non-constant function
    g = ga.build(box16, lambda x: x + 0.3j)
    assert ga.amalgam_norm(g, spec).value == pytest.approx(
        ga.weighted_lp_norm(g, 2.0), rel=1e-13, abs=0.0
    )


def test_amalgam_norm_zero(box16):
    gp = ga.GrandParams(2.0, ga.unit_weight(box16))
    spec = ga.AmalgamSpec(ga.GrandSpace(gp), ga.GrandSpace(gp), ga.WindowSpec(4, 2))
    assert ga.amalgam_norm(ga.constant(box16, 0.0), spec).value == 0.0


def test_amalgam_grand_outer_carries_curve(box16):
    gp = ga.GrandParams(2.0, ga.unit_weight(box16))
    spec = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.GrandSpace(gp), ga.WindowSpec(4, 4))
    rep = ga.amalgam_norm(ga.constant(box16, 1.0), spec)
    assert len(rep.curve) >= 33
    assert rep.argmax_eps is not None
    # classical outer: empty curve
    spec_c = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 4))
    assert ga.amalgam_norm(ga.constant(box16, 1.0), spec_c).curve == ()


def test_two_stage_sup_bound(box16):
    """eps^theta * classical control with derived weight <= grand control, pointwise."""
    w = ga.weight_from(box16, lambda x: np.exp(-x))
    params = ga.GrandParams(2.0, w)
    win = ga.WindowSpec(4, 2)
    f = make_random_function(box16, 0)
    grand_cf = ga.control_function(f, ga.GrandSpace(params), win)
    for eps in params.eps_grid.values:
        wder = ga.Weight(box16, params.weight_power(eps))
        cl = ga.control_function(f, ga.ClassicalSpace(2.0 - eps, wder), win)
        excess = (eps**params.theta) * cl.values - grand_cf.values
        assert float(np.max(excess)) <= 1e-12 * float(np.max(grand_cf.values))


def test_translation_covariance_on_interior_anchors():
    dom = ga.BoxDomain(0.0, 1.0, 32)
    win = ga.WindowSpec(4, 4)
    f = ga.pointwise_product(make_random_function(dom, 5), ga.indicator(dom, 0.25, 0.5))
    cf = ga.control_function(f, ga.ClassicalSpace(2.0), win)
    cf_moved = ga.control_function(ga.translate(f, 4), ga.ClassicalSpace(2.0), win)
    # shifting f by one stride shifts the control function by one anchor
    shifted = ga.translate(cf.gridfn, 1)
    np.testing.assert_allclose(
        np.real(cf_moved.gridfn.values[1:-1]), np.real(shifted.values[1:-1]), rtol=1e-13
    )


def test_modulation_invariance_amalgam():
    dom = ga.BoxDomain(0.0, 1.0, 32)
    w = ga.weight_from(dom, lambda x: 1.0 + x)
    spec = ga.AmalgamSpec(
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.WindowSpec(8, 4),
    )
    f = make_random_function(dom, 1)
    base = ga.amalgam_norm(f, spec).value
    for xi in (1.0, 17.3):
        value = ga.amalgam_norm(ga.modulate(f, xi), spec).value
        assert value == pytest.approx(base, rel=1e-12, abs=0.0)


def test_amalgam_solidity_and_monotone_truncation():
    dom = ga.BoxDomain(-2.0, 2.0, 64)
    w = ga.weight_from(dom, lambda x: np.exp(-np.abs(x)))
    spec = ga.AmalgamSpec(
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.WindowSpec(8, 4),
    )
    f = ga.pointwise_abs(make_random_function(dom, 2))
    full = ga.amalgam_norm(f, spec).value
    rng = np.random.default_rng(0)
    mask = ga.GridFunction(dom, rng.uniform(0.0, 1.0, dom.shape))
    assert ga.amalgam_norm(ga.pointwise_product(f, mask), spec).value <= full * (1 + 1e-12)
    prev = -1.0
    for radius in (0.5, 1.0, 1.5, 2.0):
        fn = ga.pointwise_product(f, ga.indicator(dom, -radius, radius))
        v = ga.amalgam_norm(fn, spec).value
        assert v >= prev - 1e-12 * full
        prev = v
    assert prev == pytest.approx(full, rel=1e-13, abs=0.0)  # support covered at the last step


def test_window_independence_band_reported():
    dom = ga.BoxDomain(0.0, 1.0, 64)
    w = ga.unit_weight(dom)
    ratios = []
    for seed in range(4):
        f = make_random_function(dom, seed)
        values = []
        for side, stride in ((4, 4), (16, 8)):
            spec = ga.AmalgamSpec(
                ga.GrandSpace(ga.GrandParams(2.0, w)),
                ga.GrandSpace(ga.GrandParams(2.0, w)),
                ga.WindowSpec(side, stride),
            )
            values.append(ga.amalgam_norm(f, spec).value)
        ratios.append(values[0] / values[1])
    band = (min(ratios), max(ratios))
    assert 0.0 < band[0] <= band[1] < math.inf
    print(f"window-independence ratio band for Q1=4/4, Q2=16/8: [{band[0]:.4f}, {band[1]:.4f}]")


def test_mixed_norm_family_endpoint_identity(box16):
    w = ga.weight_from(box16, lambda x: np.exp(-x))
    spec = ga.AmalgamSpec(
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.WindowSpec(4, 2),
    )
    f = make_random_function(box16, 7)
    # eps = p-1, eta = q-1 instantiates the classical pair with derived weights
    val = ga.mixed_norm_family(f, spec, 1.0, 1.0)
    root = ga.Weight(box16, w.values ** 0.5)
    classical = ga.AmalgamSpec(
        ga.ClassicalSpace(1.0, root),
        ga.ClassicalSpace(1.0, root),
        ga.WindowSpec(4, 2),
    )
    assert val == pytest.approx(ga.amalgam_norm(f, classical).value, rel=1e-14, abs=0.0)
    assert ga.mixed_norm_family(ga.constant(box16, 0.0), spec, 0.5, 0.5) == 0.0


def test_mixed_norm_family_range_checks(box16):
    w = ga.unit_weight(box16)
    spec = ga.AmalgamSpec(
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.GrandSpace(ga.GrandParams(2.0, w)),
        ga.WindowSpec(4, 2),
    )
    with pytest.raises(ValueError):
        ga.mixed_norm_family(ga.constant(box16, 1.0), spec, 1.5, 0.5)
    with pytest.raises(ValueError):
        ga.mixed_norm_family(ga.constant(box16, 1.0), spec, 0.5, 0.0)
    spec_c = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 2))
    with pytest.raises(ValueError):
        ga.mixed_norm_family(ga.constant(box16, 1.0), spec_c, 0.5, 0.5)



# 50-digit sums at the binary values of the inputs: float(1.6) is
# 1.6000000000000000888..., which moves the 14th digit
@pytest.mark.parametrize(
    "eps, want", [(1.6, 9.5666850599323733e-230), (1.7, 9.5465003676080042e-263)]
)
def test_mixed_norm_family_where_the_derived_weight_leaves_float_range(box16, eps, want):
    """a = 1e-200 with full weighting: a**1.6 = 1e-320 is subnormal and
    a**1.7 underflows to 0, yet the member itself is a normal float."""
    full = ga.Variant.EXPONENT_FULL
    local = ga.GrandParams(3.0, ga.Weight(box16, np.full(16, 1e-200)), variant=full)
    glob = ga.GrandParams(3.0, ga.unit_weight(box16), variant=full)
    spec = ga.AmalgamSpec(ga.GrandSpace(local), ga.GrandSpace(glob), ga.WindowSpec(4, 2))
    got = ga.mixed_norm_family(ga.constant(box16, 1.0), spec, eps, 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

def test_mixed_bound_with_augmented_grid(box16):
    """eps^theta eta^theta * mixed <= grand amalgam when (eps, eta) are on the grids."""
    w = ga.weight_from(box16, lambda x: np.exp(-x))
    for eps, eta in ((0.1, 0.5), (0.5, 0.1), (1.0, 1.0)):
        lp = ga.GrandParams(2.0, w).with_extra_eps(eps)
        gq = ga.GrandParams(2.0, w).with_extra_eps(eta)
        spec = ga.AmalgamSpec(ga.GrandSpace(lp), ga.GrandSpace(gq), ga.WindowSpec(4, 2))
        for seed in range(3):
            f = make_random_function(box16, seed)
            mixed = ga.mixed_norm_family(f, spec, eps, eta)
            grand = ga.amalgam_norm(f, spec).value
            assert eps * eta * mixed <= grand * (1 + 1e-10)


def test_lattice_weight_identity_at_stride_one(box16):
    w = ga.weight_from(box16, lambda x: 1.0 + x)
    lat = lattice_weight(w, ga.WindowSpec(4, 1), box16)
    np.testing.assert_array_equal(lat.values, w.values)


def test_lattice_weight_2d():
    dom = ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (8, 8))
    w = ga.weight_from(dom, lambda x, y: 1.0 + x + 10.0 * y)
    lat = lattice_weight(w, ga.WindowSpec((4, 4), (4, 4)), dom)
    assert lat.values.shape == (2, 2)
    np.testing.assert_array_equal(lat.values, w.values[np.ix_([2, 6], [2, 6])])


def test_lattice_weight_rejects_a_stride_longer_than_the_box():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    w = ga.weight_from(dom, lambda x: 1.0 + x)
    window = ga.WindowSpec(1, 100)
    with pytest.raises(ValueError, match="stride 100 cells exceeds the 8 cells"):
        lattice_weight(w, window, dom)
    with pytest.raises(ValueError, match="stride 100 cells exceeds the 8 cells"):
        ga.control_function(ga.constant(dom, 1.0), ga.ClassicalSpace(2.0), window)


def test_control_function_2d():
    dom = ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (8, 8))
    f = ga.constant(dom, 1.0)
    cf = ga.control_function(f, ga.ClassicalSpace(2.0), ga.WindowSpec((4, 4), (4, 4)))
    assert cf.values.shape == (2, 2)
    np.testing.assert_allclose(cf.values, 0.5, rtol=1e-14)
    spec = ga.AmalgamSpec(ga.ClassicalSpace(2.0), ga.ClassicalSpace(2.0),
                          ga.WindowSpec((4, 4), (4, 4)))
    assert ga.amalgam_norm(f, spec).value == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        ga.WindowSpec(0, 1)
    with pytest.raises(ValueError):
        ga.WindowSpec(4, 0)
    win = ga.WindowSpec(4, 2)
    assert win.scaled(2).side_cells == (8,)
    with pytest.raises(ValueError):
        ga.WindowSpec((4, 4, 4), (1, 1, 1)).for_ndim(1)


def test_stride_longer_than_the_box_is_rejected_1d():
    dom = ga.BoxDomain(0.0, 1.0, 64)
    f = ga.constant(dom, 1.0)
    l2 = ga.ClassicalSpace(2.0)
    at_extent = ga.AmalgamSpec(l2, l2, ga.WindowSpec(1, 64))
    assert ga.amalgam_norm(f, at_extent).value == pytest.approx(0.125, rel=1e-14, abs=0.0)
    for stride in (65, 200):
        window = ga.WindowSpec(1, stride)
        with pytest.raises(ValueError, match=rf"axis 0: window stride {stride} cells exceeds the 64 cells"):
            ga.control_function(f, l2, window)
        with pytest.raises(ValueError, match=rf"axis 0: window stride {stride} cells exceeds the 64 cells"):
            ga.amalgam_norm(f, ga.AmalgamSpec(l2, l2, window))


def test_stride_longer_than_the_box_is_rejected_2d():
    dom = ga.BoxDomain((0.0, 0.0), (1.0, 1.0), (12, 8))
    f = ga.constant(dom, 1.0)
    l2 = ga.ClassicalSpace(2.0)
    ga.control_function(f, l2, ga.WindowSpec((2, 2), (12, 8)))
    window = ga.WindowSpec((2, 2), (4, 9))
    with pytest.raises(ValueError, match="axis 1: window stride 9 cells exceeds the 8 cells"):
        ga.control_function(f, l2, window)
    with pytest.raises(ValueError, match="axis 1: window stride 9 cells exceeds the 8 cells"):
        ga.amalgam_norm(f, ga.AmalgamSpec(l2, l2, window))


def test_control_csv(tmp_path, box16):
    from grandamalgam.amalgam import write_control_csv

    cf = ga.control_function(ga.constant(box16, 1.0), ga.ClassicalSpace(2.0), ga.WindowSpec(4, 4))
    path = tmp_path / "control.csv"
    write_control_csv(cf, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,control_value"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == pytest.approx(0.5, rel=1e-6, abs=0.0)


# (shape, window side, stride): stride below, at and above the side, in 1-D and
# 2-D, always with windows clipped at the right edge
KERNEL_CASES = [
    ((37,), (8,), (3,)),
    ((37,), (8,), (8,)),
    ((37,), (8,), (11,)),
    ((13, 10), (4, 3), (2, 2)),
    ((13, 10), (4, 3), (4, 3)),
    ((13, 10), (4, 3), (5, 7)),
]


def _kernel_input(shape, side):
    """A random function that vanishes on the first window, and a random weight."""
    ndim = len(shape)
    dom = ga.BoxDomain((0.0,) * ndim, (1.0,) * ndim, shape)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals[tuple(slice(0, s) for s in side)] = 0.0
    return ga.GridFunction(dom, vals), ga.Weight(dom, np.exp(rng.normal(size=shape)))


def restrict(f, lo_cells, hi_cells):
    """``f`` zeroed outside the half-open cell range [lo, hi) per axis.

    The range is clipped to the grid, so a window hanging over the boundary
    behaves like zero-filled clipping.
    """
    ndim = f.domain.ndim
    lo, hi = np.broadcast_to(lo_cells, ndim), np.broadcast_to(hi_cells, ndim)
    cells = tuple(slice(max(0, a), min(n, b)) for a, b, n in zip(lo, hi, f.domain.shape))
    out = np.zeros_like(f.values)
    out[cells] = f.values[cells]
    return ga.GridFunction(f.domain, out)


def test_restrict_definition_and_idempotence():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    ones = ga.constant(dom, 1.0)
    r = restrict(ones, 0, 2)
    np.testing.assert_array_equal(r.values, [1, 1, 0, 0])
    np.testing.assert_array_equal(restrict(r, 0, 2).values, r.values)
    # clipping beyond the domain behaves like zero fill
    np.testing.assert_array_equal(restrict(ones, 2, 99).values, [0, 0, 1, 1])
    np.testing.assert_array_equal(restrict(ones, 3, 1).values, [0, 0, 0, 0])


def _per_window(f, window, norm):
    """Reference control values: ``norm`` of the zero-filled restriction to each window."""
    starts = [range(0, n, s) for n, s in zip(f.domain.shape, window.stride_cells)]
    out = np.empty(tuple(len(s) for s in starts))
    for idx in np.ndindex(out.shape):
        lo = [starts[d][i] for d, i in enumerate(idx)]
        hi = [a + s for a, s in zip(lo, window.side_cells)]
        out[idx] = norm(restrict(f, lo, hi))
    return out


@pytest.mark.parametrize("shape, side, stride", KERNEL_CASES)
@pytest.mark.parametrize("variant", list(ga.Variant))
@pytest.mark.parametrize("p", [1.4, 2.7])  # a grid ending below and above eps = 1
def test_batched_grand_control_matches_per_window(shape, side, stride, variant, p):
    f, a = _kernel_input(shape, side)
    window = ga.WindowSpec(side, stride)
    gp = ga.GrandParams(p, a, theta=1.3, variant=variant)
    got = ga.control_function(f, ga.GrandSpace(gp), window).values
    want = _per_window(f, window, lambda g: ga.grand_norm(g, gp).value)
    assert want.flat[0] == 0.0  # the all-zero window
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape, side, stride", KERNEL_CASES)
@pytest.mark.parametrize("weighted", [True, False])
def test_batched_classical_control_matches_per_window(shape, side, stride, weighted):
    f, a = _kernel_input(shape, side)
    window = ga.WindowSpec(side, stride)
    w = a if weighted else None
    got = ga.control_function(f, ga.ClassicalSpace(2.3, w), window).values
    want = _per_window(f, window, lambda g: ga.weighted_lp_norm(g, 2.3, w))
    assert want.flat[0] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_one_window_block_is_a_view():
    from grandamalgam.norms import _one_window

    f, _ = _kernel_input((13, 10), (4, 3))
    absf = np.abs(f.values)
    assert np.shares_memory(_one_window(absf), absf)


def test_amalgam_norm_reuses_a_given_control_function(box16):
    gp = ga.GrandParams(2.0, ga.unit_weight(box16))
    spec = ga.AmalgamSpec(ga.GrandSpace(gp), ga.GrandSpace(gp), ga.WindowSpec(4, 2))
    f = make_random_function(box16, 3)
    cf = ga.control_function(f, spec.local_space, spec.window)
    assert ga.amalgam_norm(f, spec, control=cf) == ga.amalgam_norm(f, spec)
    other = ga.control_function(f, spec.local_space, ga.WindowSpec(4, 4))
    with pytest.raises(ValueError, match="window"):
        ga.amalgam_norm(f, spec, control=other)


@st.composite
def _windowed_case(draw):
    """A 1-D or 2-D box with any window side and stride from 1 to its cell count."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 24)), st.tuples(st.integers(1, 7), st.integers(1, 7))
    ))
    side = tuple(draw(st.integers(1, n)) for n in shape)
    stride = tuple(draw(st.integers(1, n)) for n in shape)
    return shape, ga.WindowSpec(side, stride)


@settings(max_examples=60, deadline=None)
@given(_windowed_case(), st.booleans(), st.sampled_from(list(ga.Variant)), st.integers(0, 2**16))
def test_control_values_match_each_window_restriction(case, weighted, variant, seed):
    """Classical and grand local stages, on any window against the domain."""
    shape, window = case
    ndim = len(shape)
    dom = ga.BoxDomain((0.0,) * ndim, (1.0,) * ndim, shape)
    rng = np.random.default_rng(seed)
    f = ga.GridFunction(dom, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    a = ga.Weight(dom, np.exp(rng.normal(size=shape)))
    classical = ga.ClassicalSpace(2.3, a if weighted else None)
    gp = ga.GrandParams(2.7, a, theta=1.3, variant=variant)
    for local, norm in (
        (classical, lambda g: ga.weighted_lp_norm(g, classical.p, classical.weight)),
        (ga.GrandSpace(gp), lambda g: ga.grand_norm(g, gp).value),
    ):
        got = ga.control_function(f, local, window).values
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _per_window(f, window, norm), rtol=1e-12, atol=0.0)


def _stage(kind, p, weight):
    if kind == "classical":
        return ga.ClassicalSpace(p, weight)
    return ga.GrandSpace(ga.GrandParams(p, weight))


@pytest.mark.parametrize("shape, side, stride", [((600,), (64,), (24,)), ((26, 25), (8, 6), (5, 4))])
@pytest.mark.parametrize("local_kind", ["classical", "grand"])
@pytest.mark.parametrize("global_kind", ["classical", "grand"])
def test_stacked_norms_match_norms_one_at_a_time(shape, side, stride, local_kind, global_kind):
    """A stack of one, a zero function, and a stack spanning two blocks of several functions."""
    from grandamalgam.amalgam import _STACK_CELLS

    ndim = len(shape)
    dom = ga.BoxDomain((-1.0,) * ndim, (2.0,) * ndim, shape)
    rng = np.random.default_rng(5)
    a, b = (ga.Weight(dom, np.exp(rng.normal(size=shape))) for _ in range(2))
    spec = ga.AmalgamSpec(
        _stage(local_kind, 2.5, a), _stage(global_kind, 3.0, b), ga.WindowSpec(side, stride)
    )
    per_block = _STACK_CELLS // dom.size
    assert 2 <= per_block < 16
    fs = [make_random_function(dom, s) for s in range(per_block + 1)] + [ga.constant(dom, 0.0)]
    want = [ga.amalgam_norm(f, spec) for f in fs]
    assert want[-1].value == 0.0
    for stack, expected in ((fs, want), (fs[:1], want[:1])):
        got = ga.amalgam_norms(stack, spec)
        assert len(got) == len(expected)
        for g, w in zip(got, expected):
            if global_kind == "grand" or len(stack) == 1:
                assert g == w  # value, argmax and the whole outer curve, bit for bit
            else:
                # a lone classical row is summed pairwise, a stacked one in sequence
                np.testing.assert_array_max_ulp(g.value, w.value, maxulp=4)
                assert (g.argmax_eps, g.curve, g.p, g.variant) == (None, (), w.p, w.variant)
    assert ga.amalgam_norms([], spec) == []
    other = ga.constant(ga.BoxDomain((0.0,) * ndim, (1.0,) * ndim, shape), 1.0)
    with pytest.raises(ValueError, match="different grids"):
        ga.amalgam_norms([fs[0], other], spec)
