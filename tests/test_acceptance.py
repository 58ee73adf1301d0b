"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The standard verification configuration is the one the CLI uses:
domain [-8, 8], 256 cells, unit physical window sliding by half a unit.
"""

import time

import numpy as np
import pytest

import grandamalgam as ga
from grandamalgam import cli, verify
from grandamalgam.amalgam import AmalgamSpec, WindowSpec
from grandamalgam.norms import GrandParams
from grandamalgam.reporting import Verdict


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def expdecay(x):
    return np.exp(-np.abs(np.asarray(x, dtype=float)))


@pytest.fixture(scope="module")
def standard():
    dom = ga.BoxDomain(-8.0, 8.0, 256)
    corpus = verify.build_corpus(dom, seed=7)
    win = WindowSpec(16, 8)
    aw = ga.weight_from(dom, expdecay)
    spec = AmalgamSpec(
        GrandParams(2.0, aw), GrandParams(2.0, aw), win
    )
    return dom, corpus, win, spec


def test_criterion_01_grand_norm_closed_form():
    dom = ga.BoxDomain(0.0, 1.0, 64)
    start = time.perf_counter()
    rep = ga.grand_norm(ga.constant(dom, 1.0), ga.GrandParams(2.0, ga.unit_weight(dom)))
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.value - 1.0) <= 1e-9
        and rep.argmax_eps == pytest.approx(1.0, abs=1e-12)
        and elapsed < 1.0
    )
    _report(1, "grand-norm closed form", ok,
            f"value={rep.value!r} argmax={rep.argmax_eps} time={elapsed:.3f}s")


def test_criterion_02_sup_definition_invariant():
    dom = ga.BoxDomain(0.0, 1.0, 64)
    w = ga.weight_from(dom, lambda x: np.exp(-x))
    gp = ga.GrandParams(2.0, w)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_excess = -np.inf
    worst_eq = 0.0
    for _ in range(100):
        vals = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)
        rep = ga.grand_norm(ga.GridFunction(dom, vals), gp)
        scale = max(rep.value, 1e-300)
        worst_excess = max(worst_excess, max((t - rep.value) / scale for _, _, t in rep.curve))
        eq = min(abs(t - rep.value) / scale for e, _, t in rep.curve if e == rep.argmax_eps)
        worst_eq = max(worst_eq, eq)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-12 and worst_eq <= 1e-12 and elapsed < 10.0
    _report(2, "sup-definition invariant (100 random f)", ok,
            f"max term excess={worst_excess:.2e} argmax gap={worst_eq:.2e} time={elapsed:.2f}s")


def test_criterion_03_modulation_translation_invariance(standard):
    _, corpus, _, spec = standard
    res = verify.check_invariance(corpus, spec)
    mod_margins = [r["margin"] for r in res.details if r["case"].startswith("modulate:")]
    tr_margins = [r["margin"] for r in res.details if r["case"].startswith("translate:")]
    ok = (
        res.verdict is Verdict.PASS
        and len(mod_margins) == 50
        and min(mod_margins) >= 0.0
        and min(tr_margins) >= 0.0
    )
    _report(3, "modulation/translation invariance", ok,
            f"50 modulation cases, {len(tr_margins)} translation cases, verdict={res.verdict.value}")


def test_criterion_04_norm_properties_1_to_6(standard):
    _, corpus, _, spec = standard
    axioms = verify.check_norm_axioms(corpus, spec)
    solid = verify.check_solidity_and_monotone(corpus, spec)
    limit_rows = [r for r in solid.details if r["case"].startswith("limit:")]
    ok = (
        axioms.verdict is Verdict.PASS
        and solid.verdict is Verdict.PASS
        and limit_rows
        and all(r["margin"] >= 0.0 for r in limit_rows)
    )
    _report(4, "norm properties 1-6", ok,
            f"axioms={axioms.verdict.value} solidity/monotone={solid.verdict.value}")


def test_criterion_05_holder_embedding_constant(standard):
    _, corpus, win, _ = standard
    res = verify.check_embedding_classical_into_grand(
        corpus, 2.0, 2.0, expdecay, expdecay, win
    )
    violations = [r for r in res.details if r["margin"] < -1e-10]
    ok = res.verdict is Verdict.PASS and not violations
    _report(5, "Hoelder embedding constant (h and h/2)", ok,
            f"C_H={res.notes['holder_constant']} empirical={res.estimated_constant:.4f} "
            f"violations={len(violations)}")


def test_criterion_06_mixed_norm_bound(standard):
    _, corpus, _, spec = standard
    worst = np.inf
    for eps in (0.1, 0.5, 1.0):
        for eta in (0.1, 0.5, 1.0):
            res = verify.check_embedding_grand_into_mixed(corpus, spec, eps, eta)
            worst = min(worst, res.worst_case[1])
            assert res.verdict is Verdict.PASS, (eps, eta)
    ok = worst >= -1e-10
    _report(6, "mixed-norm bound over the eps/eta grid", ok, f"worst margin={worst:.3e}")


def test_criterion_07_vanishing_limit(standard):
    _, corpus, _, spec = standard
    worst_ratio = 0.0
    for entry in corpus.compact():
        res = verify.check_vanishing_limit(entry.gridfn, spec)
        assert res.verdict is Verdict.PASS, entry.name
        final = next(r for r in res.details if r["case"].startswith("final"))
        worst_ratio = max(worst_ratio, final["final"] / max(final["amalgam"], 1e-300))
    ok = worst_ratio <= 0.01
    _report(7, "vanishing limit on compact entries", ok,
            f"{len(corpus.compact())} entries, worst final/norm={worst_ratio:.2e}")


def test_criterion_08_maximal_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(8, 513))
        dom = ga.BoxDomain(-1.0, 1.0, n)
        vals = rng.uniform(0.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        f = ga.GridFunction(dom, vals)
        nr = min(int(rng.integers(1, 7)), n)
        radii = np.sort(rng.choice(np.arange(1, n + 1), size=nr, replace=False))
        rs = ga.RadiusSet(tuple(int(r) for r in radii), include_center=bool(k % 2))
        a = np.real(ga.maximal_naive(f, rs).mf.values)
        b = np.real(ga.maximal_fast(f, rs).mf.values)
        worst = max(worst, float(np.max(np.abs(a - b))) / max(float(np.max(a)), 1e-300))
    for k in range(20):
        dom = ga.BoxDomain((-1.0, -1.0), (1.0, 1.0), (64, 64))
        f = ga.GridFunction(dom, rng.uniform(0.0, 1.0, (64, 64)))
        radii = np.sort(rng.choice(np.arange(1, 33), size=4, replace=False))
        rs = ga.RadiusSet(tuple(int(r) for r in radii))
        a = np.real(ga.maximal_naive(f, rs).mf.values)
        b = np.real(ga.maximal_fast(f, rs).mf.values)
        worst = max(worst, float(np.max(np.abs(a - b))) / max(float(np.max(a)), 1e-300))
    ok = worst <= 1e-12
    _report(8, "maximal fast/naive equivalence", ok, f"worst rel diff={worst:.2e}")

    # advisory performance gate at N = 4096 (same dyadic radius set both paths)
    dom = ga.BoxDomain(-16.0, 16.0, 4096)
    f = ga.GridFunction(dom, rng.uniform(0.0, 1.0, 4096))
    rs = ga.RadiusSet.dyadic(dom)
    t0 = time.perf_counter()
    ga.maximal_naive(f, rs)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    ga.maximal_fast(f, rs)
    t_fast = time.perf_counter() - t0
    speedup = t_naive / max(t_fast, 1e-9)
    print(f"ACCEPTANCE 08 advisory speedup at N=4096: {speedup:.1f}x "
          f"(naive {t_naive * 1e3:.1f} ms, fast {t_fast * 1e3:.1f} ms)")
    if speedup < 10.0:
        print("ACCEPTANCE 08 advisory: speedup below the 10x regression gate")


def test_criterion_09_maximal_closed_form():
    dom = ga.BoxDomain(-16.0, 16.0, 4096)
    chi = ga.indicator(dom, 0.0, 1.0)
    profile = ga.maximal_tail_profile(chi, ga.RadiusSet.full(dom), [2.0, 4.0, 8.0])
    errs = {x: abs(v - 1.0 / (2.0 * x)) * 2.0 * x for x, v in profile}
    ok = all(e <= 0.01 for e in errs.values())
    _report(9, "maximal closed form 1/(2x)", ok,
            " ".join(f"x={x:g}:err={e:.4%}" for x, e in errs.items()))


def test_criterion_10_unboundedness_signature():
    res = verify.check_maximal_unbounded()
    normalized = res.notes["normalized_slope"]
    ok = (
        res.verdict is Verdict.PASS
        and 0.8 <= normalized <= 1.2
        and res.notes["indicator_mass_drift"] <= 1e-12
    )
    _report(10, "unboundedness signature (slope of L1 growth)", ok,
            f"normalized slope={normalized:.3f} raw={res.notes['slope']:.3f} "
            f"expected={res.notes['expected_slope']:.1f}")


def test_criterion_11_boundedness_signature(standard):
    _, corpus, win, _ = standard
    res = verify.check_maximal_bounded(corpus, 2.0, 2.0, 3.0, expdecay, expdecay, win)
    ok = res.verdict is Verdict.REPORT_ONLY and res.notes["relative_change"] <= 0.25
    _report(11, "boundedness signature (resolution stability)", ok,
            f"constants={[f'{c:.4f}' for c in res.notes['constants']]} "
            f"change={res.notes['relative_change']:.2%}")


def test_criterion_12_end_to_end_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli.main(["verify", "--all", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    assert files1 == files2 and files1
    mismatches = [
        name for name in files1
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    ok = not mismatches
    _report(12, "end-to-end determinism of verify --all", ok,
            f"{len(files1)} artifacts compared, mismatches={mismatches}")
