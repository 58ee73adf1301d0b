import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grandamalgam as ga


def test_build_samples_cell_centers():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    f = ga.build(dom, lambda x: x)
    np.testing.assert_allclose(np.real(f.values), [0.125, 0.375, 0.625, 0.875], atol=0)


def test_build_constant_and_zero():
    dom = ga.BoxDomain(0.0, 1.0, 16)
    assert np.all(ga.build(dom, lambda x: 0.0).values == 0)
    assert np.all(ga.build(dom, lambda x: 1.0).values == 1.0)


def test_build_rejects_nonfinite_naming_cell():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError, match=r"cell \(2,\)"):
        ga.build(dom, lambda x: math.inf if 0.5 < x < 0.75 else 0.0)


def test_build_scalar_only_sampler():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    f = ga.build(dom, lambda x: math.sin(x))  # math.sin rejects arrays
    np.testing.assert_allclose(np.real(f.values), np.sin(dom.axis_centers(0)), rtol=1e-15)


def test_indicator_membership_by_cell_center():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    chi = ga.indicator(dom, 0.0, 0.5)
    np.testing.assert_array_equal(np.real(chi.values), [1, 1, 0, 0])


def test_indicator_full_and_disjoint():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    assert np.all(ga.indicator(dom, 0.0, 1.0).values == 1)
    with pytest.warns(ga.EmptyIndicatorWarning):
        chi = ga.indicator(dom, 2.0, 3.0)
    assert np.all(chi.values == 0)
    with pytest.raises(ValueError, match="axis 0: lower 0.6 > upper 0.4"):
        ga.indicator(dom, 0.6, 0.4)


def test_translate_shift_with_zero_fill():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    f = ga.GridFunction(dom, [1, 2, 3, 4])
    np.testing.assert_array_equal(np.real(ga.translate(f, 1).values), [0, 1, 2, 3])
    np.testing.assert_array_equal(np.real(ga.translate(f, -1).values), [2, 3, 4, 0])
    assert np.all(ga.translate(f, 7).values == 0)


def test_translate_zero_function_and_identity():
    dom = ga.BoxDomain(-1.0, 1.0, 8)
    z = ga.constant(dom, 0.0)
    assert np.all(ga.translate(z, 3).values == 0)
    f = ga.build(dom, lambda x: x * x)
    np.testing.assert_array_equal(ga.translate(f, 0).values, f.values)


def test_translate_preserves_unweighted_norm_of_inner_support():
    # support in the left half, shift by a quarter width: recomputation oracle
    dom = ga.BoxDomain(0.0, 1.0, 32)
    f = ga.pointwise_product(ga.build(dom, lambda x: 1.0 + x), ga.indicator(dom, 0.0, 0.5))
    moved = ga.translate(f, 8)
    for p in (1.0, 2.0, 3.5):
        assert ga.weighted_lp_norm(moved, p) == pytest.approx(
            ga.weighted_lp_norm(f, p), rel=1e-13, abs=0.0
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_translate_composes_additively(s1, s2):
    # additivity needs the support to stay inside the box at every step
    dom = ga.BoxDomain(0.0, 1.0, 16)
    f = ga.pointwise_product(
        ga.build(dom, lambda x: np.cos(3 * x) + 1j * x), ga.indicator(dom, 0.4, 0.6)
    )
    lhs = ga.translate(ga.translate(f, s1), s2)
    rhs = ga.translate(f, s1 + s2)
    np.testing.assert_array_equal(lhs.values, rhs.values)


def test_modulate_identity_and_modulus():
    dom = ga.BoxDomain(0.0, 2.0, 32)
    f = ga.build(dom, lambda x: x - 1j * x * x)
    np.testing.assert_array_equal(ga.modulate(f, 0.0).values, f.values)
    m = ga.modulate(f, 2.7)
    # |e^{i xi t}| = 1 up to one floating rounding
    np.testing.assert_allclose(np.abs(m.values), np.abs(f.values), rtol=5e-16, atol=0)
    np.testing.assert_array_equal(
        ga.pointwise_abs(m).values.real, np.abs(m.values)
    )


def _midpoint(f):
    """Midpoint-rule quadrature: the sum of the samples times the cell volume."""
    return complex(f.values.sum() * f.domain.cell_volume)


def test_modulate_ones_quadrature_cancels():
    # midpoint sum of e^{ix} over one full period is zero up to rounding
    dom = ga.BoxDomain(0.0, 2.0 * math.pi, 64)
    ones = ga.constant(dom, 1.0)
    assert abs(_midpoint(ga.modulate(ones, 1.0))) <= 1e-12


def test_integrate_exact_cases():
    dom = ga.BoxDomain(0.0, 1.0, 16)
    assert _midpoint(ga.constant(dom, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert _midpoint(ga.constant(dom, 0.0)) == 0.0
    # midpoint rule is exact for linear integrands
    assert _midpoint(ga.build(dom, lambda x: x)) == pytest.approx(0.5, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
)
def test_integrate_is_linear(alpha, beta):
    # f is stored real and g complex: scaling and adding keep every imaginary part
    dom = ga.BoxDomain(-1.0, 2.0, 24)
    f = ga.build(dom, lambda x: np.exp(-x * x))
    g = ga.build(dom, lambda x: 1j * np.sin(x))
    combo = ga.scale(f, alpha) + ga.scale(g, beta)
    err = abs(_midpoint(combo) - alpha * _midpoint(f) - beta * _midpoint(g))
    bound = 1e-12 * (abs(alpha) * np.abs(f.values).max() + abs(beta) * np.abs(g.values).max())
    assert err <= bound * dom.volume + 1e-15


def test_scale_and_products():
    dom = ga.BoxDomain(0.0, 1.0, 8)
    f = ga.build(dom, lambda x: x + 1j)
    assert np.all(ga.scale(f, 0.0).values == 0)
    fg = ga.pointwise_product(f, f)
    np.testing.assert_allclose(fg.values, f.values**2, rtol=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError):
        ga.BoxDomain(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        ga.BoxDomain(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        ga.BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    with pytest.raises(ValueError, match="axis 1: the extent upper - lower"):
        ga.BoxDomain((0.0, -1e308), (1.0, 1e308), (4, 4))  # each end finite, the extent not
    dom = ga.BoxDomain((0.0, -1.0), (2.0, 1.0), (4, 8))
    assert dom.cell_volume == pytest.approx(0.5 * 0.25, rel=1e-6, abs=0.0)
    assert dom.volume == pytest.approx(4.0, rel=1e-6, abs=0.0)


def test_domain_mismatch_rejected():
    f = ga.constant(ga.BoxDomain(0.0, 1.0, 8), 1.0)
    g = ga.constant(ga.BoxDomain(0.0, 1.0, 16), 1.0)
    with pytest.raises(ValueError, match="domain mismatch"):
        ga.pointwise_product(f, g)
    with pytest.raises(ValueError, match="domain mismatch"):
        _ = f + g


def test_gridfunction_rejects_nan():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="non-finite"):
        ga.GridFunction(dom, [1.0, float("nan"), 0.0, 0.0])


def test_gridfunction_copies_the_callers_array():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    arr = np.array([1.0, -2.0, 3.0, 0.5])
    f = ga.GridFunction(dom, arr)
    assert arr.flags.writeable and not f.values.flags.writeable
    np.testing.assert_array_equal(arr, [1.0, -2.0, 3.0, 0.5])
    arr[0] = 7.0
    assert f.values[0] == 1.0
    ints = np.arange(4)
    assert ga.GridFunction(dom, ints).values.dtype == np.float64 and ints.dtype.kind == "i"


def test_sample_dtype_follows_the_samples():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    assert ga.constant(dom, 1.0).values.dtype == np.float64
    assert ga.constant(dom, 1j).values.dtype == np.complex128
    assert ga.build(dom, lambda x: math.sin(x)).values.dtype == np.float64  # cell by cell
    assert ga.build(dom, lambda x: complex(x, 1.0)).values.dtype == np.complex128
    f = ga.build(dom, lambda x: x)
    assert ga.scale(f, 2.0).values.dtype == np.float64
    assert ga.scale(f, 2j).values.dtype == np.complex128
    assert ga.modulate(f, 1.0).values.dtype == np.complex128


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(8,), (13,), (4, 6), (7, 5)]),
    st.floats(-0.5, 1.5),
    st.floats(0.05, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0),
)
def test_real_samples_are_stored_real_with_the_same_norms(shape, center, sigma, amp, shift):
    ndim = len(shape)
    dom = ga.BoxDomain((0.0,) * ndim, (1.0,) * ndim, shape)
    f = ga.build(
        dom, lambda *xs: amp * np.exp(-sum((x - center) ** 2 for x in xs) / (2 * sigma**2)) + shift
    )
    assert f.values.dtype == np.float64
    c = ga.GridFunction(dom, f.values.astype(complex))
    assert c.values.dtype == np.complex128
    w = ga.weight_from(dom, lambda *xs: 1.0 + sum(x * x for x in xs))
    gp = ga.GrandParams(2.5, w)
    spec = ga.AmalgamSpec(ga.GrandSpace(gp), ga.ClassicalSpace(1.5, w), ga.WindowSpec(2, 2))
    rs = ga.RadiusSet.full(dom)
    assert ga.weighted_lp_norm(f, 1.7, w) == ga.weighted_lp_norm(c, 1.7, w)
    assert ga.grand_norm(f, gp) == ga.grand_norm(c, gp)
    assert ga.amalgam_norm(f, spec) == ga.amalgam_norm(c, spec)
    mf, mc = ga.maximal_fast(f, rs), ga.maximal_fast(c, rs)
    np.testing.assert_array_equal(mf.mf.values, mc.mf.values)
    np.testing.assert_array_equal(mf.argmax_radius, mc.argmax_radius)


def test_weight_positivity():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ga.Weight(dom, [1.0, 0.0, 1.0, 1.0])


def test_weight_rejects_complex_samples():
    dom = ga.BoxDomain(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="weight values must be real"):
        ga.weight_from(dom, lambda x: 1 + 1j * x)
    with pytest.raises(ValueError, match="weight values must be real"):
        ga.Weight(dom, np.ones(4, dtype=complex))


def test_grid_csv_round_trip_1d(tmp_path):
    dom = ga.BoxDomain(-2.0, 3.0, 20)
    f = ga.build(dom, lambda x: np.exp(1j * x) * (1 + x * x))
    path = tmp_path / "f.csv"
    ga.write_grid_csv(f, path)
    g = ga.read_grid_csv(path)
    assert g.domain.points_per_axis == dom.points_per_axis
    np.testing.assert_allclose(g.domain.lower, dom.lower, atol=1e-12)
    np.testing.assert_allclose(g.domain.upper, dom.upper, atol=1e-12)
    np.testing.assert_array_equal(g.values, f.values)


def test_grid_csv_round_trip_2d(tmp_path):
    dom = ga.BoxDomain((0.0, -1.0), (1.0, 1.0), (6, 8))
    f = ga.build(dom, lambda x, y: x + 2j * y)
    path = tmp_path / "f2.csv"
    ga.write_grid_csv(f, path)
    g = ga.read_grid_csv(path)
    assert g.domain.points_per_axis == dom.points_per_axis
    np.testing.assert_allclose(g.domain.lower, dom.lower, atol=1e-12)
    np.testing.assert_allclose(g.domain.upper, dom.upper, atol=1e-12)
    np.testing.assert_array_equal(g.values, f.values)



_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.tuples(st.integers(2, 12)), st.tuples(st.integers(2, 6), st.integers(2, 6))),
    st.data(),
)
def test_grid_csv_round_trip_is_bit_exact(tmp_path_factory, shape, data):
    """Any finite complex 1-D or 2-D grid, subnormals and signed zeros included."""
    n = int(np.prod(shape))
    parts = data.draw(st.lists(_FINITE, min_size=2 * n, max_size=2 * n))
    lower = tuple(data.draw(st.floats(-10.0, 10.0)) for _ in shape)
    width = tuple(data.draw(st.floats(0.5, 10.0)) for _ in shape)
    dom = ga.BoxDomain(lower, tuple(lo + w for lo, w in zip(lower, width)), shape)
    vals = np.empty(n, dtype=np.complex128)
    vals.real, vals.imag = parts[:n], parts[n:]  # signed zeros kept as drawn
    f = ga.GridFunction(dom, vals.reshape(shape))
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    ga.write_grid_csv(f, path)
    g = ga.read_grid_csv(path)
    assert g.domain.points_per_axis == dom.points_per_axis
    np.testing.assert_allclose(g.domain.lower, dom.lower, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(g.domain.upper, dom.upper, rtol=0.0, atol=1e-9)
    assert g.values.tobytes() == f.values.tobytes()

def _complex_grid_2d():
    dom = ga.BoxDomain((-3.0, 1e-3), (1.0, 2.5), (4, 5))
    vals = np.array([1e300, -1e-300, -0.0, 1.0 / 3.0, 2.5e-308, -1e299, 0.1, 7.0, 1e-5, -2.0,
                     0.0, 3e-301, -5.5, 1e-12, 42.0, -0.0, 9e307, 1.0, -1.0, 2.0 / 7.0])
    return ga.GridFunction(dom, [complex(a, b) for a, b in zip(vals, vals[::-1])])


def test_grid_csv_matches_generic_writer(tmp_path):
    from grandamalgam.reporting import write_csv

    f = _complex_grid_2d()
    ga.write_grid_csv(f, tmp_path / "fast.csv")
    mesh = f.domain.center_mesh()
    flat = f.values.reshape(-1)
    rows = [
        [i, float(mesh[0].flat[i]), float(mesh[1].flat[i]), float(flat[i].real), float(flat[i].imag)]
        for i in range(flat.size)
    ]
    write_csv(tmp_path / "generic.csv", ["index", "x0", "x1", "re", "im"], rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()
    g = ga.read_grid_csv(tmp_path / "fast.csv")
    assert g.values.tobytes() == f.values.tobytes()  # bit-exact, signed zeros included


def _rewrite_index(tmp_path, edit):
    """Write the 2-D test grid, apply ``edit`` to its list of index tokens, return the path."""
    path = tmp_path / "g.csv"
    ga.write_grid_csv(_complex_grid_2d(), path)
    header, *rows = path.read_text().splitlines()
    fields = [r.split(",") for r in rows]
    index = edit([r[0] for r in fields])
    path.write_text("\n".join([header] + [",".join([i] + r[1:]) for i, r in zip(index, fields)]) + "\n")
    return path


def test_read_grid_csv_rejects_duplicate_index(tmp_path):
    path = _rewrite_index(tmp_path, lambda idx: idx[:7] + ["3"] + idx[8:])
    with pytest.raises(ValueError, match=r"g\.csv: index 3 appears more than once"):
        ga.read_grid_csv(path)


def test_read_grid_csv_rejects_missing_index(tmp_path):
    path = _rewrite_index(tmp_path, lambda idx: idx[:5] + ["20"] + idx[6:])
    with pytest.raises(ValueError, match=r"g\.csv: index 5 is missing"):
        ga.read_grid_csv(path)


def test_read_grid_csv_rejects_swapped_indices(tmp_path):
    path = _rewrite_index(tmp_path, lambda idx: idx[:6] + [idx[9], idx[7], idx[8], idx[6]] + idx[10:])
    with pytest.raises(ValueError, match=r"g\.csv: the row with index 6 has coordinates"):
        ga.read_grid_csv(path)


def test_read_grid_csv_places_shuffled_rows_by_index(tmp_path):
    f = _complex_grid_2d()
    path = tmp_path / "g.csv"
    ga.write_grid_csv(f, path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + rows[::-1]) + "\n")
    np.testing.assert_array_equal(ga.read_grid_csv(path).values, f.values)
