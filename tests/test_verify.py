from dataclasses import replace

import numpy as np
import pytest

import grandamalgam as ga
from grandamalgam import verify
from grandamalgam.amalgam import AmalgamSpec, ClassicalSpace, WindowSpec
from grandamalgam.norms import GrandParams
from grandamalgam.reporting import CheckResult, Verdict, write_check_csv


def expdecay(x):
    return np.exp(-np.abs(np.asarray(x, dtype=float)))


def grand(domain, window):
    w = ga.weight_from(domain, expdecay)
    return AmalgamSpec(GrandParams(2.0, w), GrandParams(2.0, w), window)


@pytest.fixture(scope="module")
def setup():
    dom = ga.BoxDomain(-8.0, 8.0, 128)
    corpus = verify.build_corpus(dom, seed=7)
    win = WindowSpec(8, 4)
    aw = ga.weight_from(dom, expdecay)
    spec = AmalgamSpec(
        GrandParams(2.0, aw), GrandParams(2.0, aw), win
    )
    return dom, corpus, win, spec


def test_corpus_is_deterministic_and_complete(setup):
    dom, corpus, _, _ = setup
    again = verify.build_corpus(dom, seed=7)
    assert [e.name for e in corpus.entries] == [e.name for e in again.entries]
    for a, b in zip(corpus.entries, again.entries):
        np.testing.assert_array_equal(a.gridfn.values, b.gridfn.values)
    families = {e.family for e in corpus.entries}
    assert families == {"gaussian", "indicator", "ramp", "modulated_bump", "random_smooth"}
    other = verify.build_corpus(dom, seed=8)
    assert any(
        not np.array_equal(a.gridfn.values, b.gridfn.values)
        for a, b in zip(corpus.entries, other.entries)
    )


def test_corpus_realized_on_finer_grid(setup):
    dom, corpus, _, _ = setup
    fine = corpus.realized_on(dom.refine(2))
    assert fine.domain.points_per_axis == (256,)
    assert [e.name for e in fine.entries] == [e.name for e in corpus.entries]


def test_norm_axioms_pass(setup):
    _, corpus, _, spec = setup
    res = verify.check_norm_axioms(corpus, spec)
    assert res.verdict is Verdict.PASS
    assert res.worst_case[1] >= -1e-10


def test_solidity_monotone_pass(setup):
    _, corpus, _, spec = setup
    res = verify.check_solidity_and_monotone(corpus, spec)
    assert res.verdict is Verdict.PASS
    # the first truncation is compared with 0, not -inf: every margin is a number
    assert all(np.isfinite(row["margin"]) for row in res.details)


def test_invariance_pass(setup):
    _, corpus, _, spec = setup
    res = verify.check_invariance(corpus, spec)
    assert res.verdict is Verdict.PASS
    # the translation branch must have actually run
    assert any(row["case"].startswith("translate:") for row in res.details)
    assert sum(row["case"].startswith("modulate:") for row in res.details) == 50


def test_inclusion_equivalence_identical_specs_give_one(setup):
    _, corpus, win, _ = setup
    res = verify.check_inclusion_norm_equivalence(corpus, grand, grand, win)
    assert res.verdict is Verdict.REPORT_ONLY
    assert res.estimated_constant == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_inclusion_equivalence_with_builders(setup):
    dom, corpus, win, _ = setup

    def classical(domain, window):
        return AmalgamSpec(ClassicalSpace(2.0), ClassicalSpace(2.0), window)

    res = verify.check_inclusion_norm_equivalence(corpus, classical, grand, win)
    assert res.verdict is Verdict.REPORT_ONLY
    assert "trend" in res.notes
    assert res.estimated_constant > 0


def test_embedding_classical_into_grand(setup):
    _, corpus, win, _ = setup
    res = verify.check_embedding_classical_into_grand(corpus, 2.0, 2.0, expdecay, expdecay, win)
    assert res.verdict is Verdict.PASS
    assert res.worst_case[1] >= -1e-10
    # the explicit constant dominates the empirical one
    assert res.estimated_constant <= min(res.notes["holder_constant"].values())
    assert max(res.notes["guards"].values()) <= 1e-12


def test_embedding_grand_into_mixed(setup):
    _, corpus, _, spec = setup
    for eps, eta in ((0.1, 0.5), (1.0, 1.0)):
        res = verify.check_embedding_grand_into_mixed(corpus, spec, eps, eta)
        assert res.verdict is Verdict.PASS, (eps, eta)
        assert res.worst_case[1] >= -1e-10


def test_nesting_in_p(setup):
    _, corpus, win, _ = setup
    res = verify.check_nesting_in_p(corpus, 2.0, 3.0, 2.0, expdecay, expdecay, win)
    assert res.verdict is Verdict.REPORT_ONLY
    assert 0 < res.estimated_constant < np.inf
    with pytest.raises(ValueError):
        verify.check_nesting_in_p(corpus, 3.0, 2.0, 2.0, expdecay, expdecay, win)


def test_pointwise_product(setup):
    _, corpus, win, _ = setup
    res = verify.check_pointwise_product(corpus, (4.0, 4.0, 2.0), (4.0, 4.0, 2.0), expdecay, win)
    assert res.verdict is Verdict.REPORT_ONLY
    assert res.estimated_constant > 0
    with pytest.raises(ValueError, match="triples"):
        verify.check_pointwise_product(corpus, (2.0, 2.0, 2.0), (4.0, 4.0, 2.0), expdecay, win)


def test_vanishing_limit(setup):
    _, corpus, _, spec = setup
    bump = next(e for e in corpus.entries if e.family == "modulated_bump")
    res = verify.check_vanishing_limit(bump.gridfn, spec)
    assert res.verdict is Verdict.PASS
    classical = AmalgamSpec(ClassicalSpace(2.0), ClassicalSpace(2.0), spec.window)
    with pytest.raises(ValueError):
        verify.check_vanishing_limit(bump.gridfn, classical)
    # the check samples its own curve, whatever the grid of a stage
    coarse = AmalgamSpec(replace(spec.local_space, eps_count=2), spec.global_space, spec.window)
    again = verify.check_vanishing_limit(bump.gridfn, coarse)
    assert again.verdict is Verdict.PASS
    assert [row["case"] for row in again.details] == [row["case"] for row in res.details]


def test_maximal_bounded(setup):
    _, corpus, win, _ = setup
    res = verify.check_maximal_bounded(corpus, 2.0, 2.0, 3.0, expdecay, expdecay, win)
    assert res.verdict is Verdict.REPORT_ONLY
    assert res.notes["relative_change"] <= 0.25
    with pytest.raises(ValueError):
        verify.check_maximal_bounded(corpus, 3.0, 2.0, 2.0, expdecay, expdecay, win)


def test_maximal_unbounded_slope_and_diagnostics():
    res = verify.check_maximal_unbounded()
    assert res.verdict is Verdict.PASS
    assert 0.8 <= res.notes["normalized_slope"] <= 1.2
    assert res.notes["indicator_mass_drift"] <= 1e-12
    rows = [row for row in res.details]
    assert [row["T"] for row in rows] == [4.0, 8.0, 16.0, 32.0, 64.0]
    assert all(b["norm"] > a["norm"] for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("local_kind", ["classical", "grand"])
def test_grand_global_stage_values_do_not_depend_on_the_stack(local_kind):
    """On the battery's grid, each corpus function's value stacked is its value alone.

    A classical global stage does not hold this: a lone row and a stacked one are summed
    in different orders, and some values differ in the last bits.
    """
    dom = ga.BoxDomain(-8.0, 8.0, 256)
    fs = [e.gridfn for e in verify.build_corpus(dom, seed=7).entries]
    w = ga.weight_from(dom, expdecay)
    local = ClassicalSpace(2.0, w) if local_kind == "classical" else GrandParams(2.0, w)
    spec = AmalgamSpec(local, GrandParams(2.0, w), WindowSpec(16, 8))
    assert len(fs) == 9
    assert [r.value for r in ga.amalgam_norms(fs, spec)] == [ga.amalgam_norm(f, spec).value for f in fs]


def test_check_csv_keeps_every_detail_key(tmp_path):
    rows = ({"case": "a", "margin": 1.0}, {"case": "b", "margin": 0.5, "x": 2.0}, {"case": "c", "y": 3})
    write_check_csv(CheckResult("mixed", Verdict.PASS, details=rows), tmp_path / "mixed.csv")
    assert (tmp_path / "mixed.csv").read_text().splitlines() == [
        "case,margin,x,y", "a,1,,", "b,0.5,2,", "c,,,3",
    ]


def test_run_all_checks_subset_and_unknown():
    results = verify.run_all_checks(seed=7, cells=64, names=["norm_axioms"])
    assert [r.name for r in results] == ["norm_axioms"]
    with pytest.raises(ValueError, match="unknown"):
        verify.run_all_checks(seed=7, cells=64, names=["nope"])


def test_check_results_are_deterministic():
    a = verify.run_all_checks(seed=7, cells=64, names=["norm_axioms", "vanishing_limit"])
    b = verify.run_all_checks(seed=7, cells=64, names=["norm_axioms", "vanishing_limit"])
    for ra, rb in zip(a, b):
        assert ra == rb
