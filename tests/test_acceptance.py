"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import statistics
import time
from pathlib import Path

import pytest

from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import AtomicConstraint, FALSE, VarId, clause_of, parse_model
from proofseq.mus import extract_mus_indices
from proofseq.oracle import Oracle, Unsat
from proofseq.pipeline import VARIANTS, run_pipeline, simplify_aux_vars, lift_to_user_level, \
    simplify_to_domain_reductions
from proofseq.proofcore import (
    AbstractProof,
    ProofStep,
    check_proof,
    parse_drcp,
    trim,
)
from proofseq.prover import solve_with_proof
from proofseq.sequence import validate_sequence

from helpers import brute_mus_family, brute_satisfiable, verify_mus
from test_mus import _random_query

DATA = Path(__file__).parent / "data"

SUITES = (("sudoku4", tuple(range(1, 21))),
          ("jobshop", tuple(range(1, 21))),
          ("mutated", tuple(range(1, 13))))


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def golden():
    model = parse_model((DATA / "jobshop.mod").read_text())
    solver = flatten(model)
    proof = parse_drcp((DATA / "jobshop.drcp").read_text(), solver)
    return model, solver, proof


@pytest.fixture(scope="module")
def suite_runs():
    """Every generated instance run through every variant (criteria 3, 6, 7, 9).
    Returns (runs, seconds spent generating, proving and running pipelines)."""
    t0 = time.perf_counter()
    runs = []
    for kind, seeds in SUITES:
        for seed in seeds:
            model = generate_instance(kind, seed)
            solver = flatten(model)
            res, text = solve_with_proof(solver)
            assert isinstance(res, Unsat)
            proof = parse_drcp(text, solver)
            per_variant = {}
            for name in VARIANTS:
                per_variant[name] = run_pipeline(model, proof, name, solver)
            runs.append((kind, seed, model, solver, proof, per_variant))
    return runs, time.perf_counter() - t0


def test_criterion_1_golden_pipeline(golden):
    model, solver, proof = golden
    t0 = time.perf_counter()
    assert len(proof.steps) == 14
    result = run_pipeline(model, proof, "trim+minglob", solver)
    seq = result.sequence
    bad = validate_sequence(seq, model)
    elapsed = time.perf_counter() - t0
    ok = (seq.sequence_length == 3 and seq.max_stepsize <= 2 and not bad
          and seq.derives_false() and elapsed < 1.0)
    _report(1, ok, f"trim+minglob on the worked proof: len={seq.sequence_length} "
                   f"maxstep={seq.max_stepsize} invalid={bad} time={elapsed:.2f}s")


def test_criterion_2_golden_lifting(golden):
    model, solver, proof = golden
    t0 = time.perf_counter()
    p = lift_to_user_level(simplify_aux_vars(proof, solver), solver)
    p = simplify_to_domain_reductions(trim(p), model)
    names = [("a", "<=", 3), ("b", ">=", 3), ("c", ">=", 3), ("d", "<=", 1)]
    facts_ok = len(p.steps) == 5 and all(
        p.steps[k].derived == AtomicConstraint(model.var_by_name(n), op, v)
        for k, (n, op, v) in enumerate(names)) and p.steps[4].derived == FALSE
    reasons_ok = (
        p.steps[0].reasons == ("p1",)
        and p.steps[1].reasons == ("p1",)
        and p.steps[2].reasons == (1, "no1")
        and p.steps[3].reasons == (2, "no2")
        and p.steps[4].reasons == (3, 4, "p2"))
    elapsed = time.perf_counter() - t0
    ok = facts_ok and reasons_ok and elapsed < 1.0
    _report(2, ok, f"lifted five-step table reproduced exactly "
                   f"(facts_ok={facts_ok} reasons_ok={reasons_ok} time={elapsed:.2f}s)")


def test_criterion_3_validity_suite(suite_runs):
    runs, build_seconds = suite_runs
    t0 = time.perf_counter()
    n_instances = len(runs)
    n_checked = 0
    for kind, seed, model, solver, proof, per_variant in runs:
        oracle = Oracle(model.vars)
        for name, result in per_variant.items():
            seq = result.sequence
            bad = validate_sequence(seq, model, oracle=oracle)
            assert not bad, (kind, seed, name, bad)
            assert seq.derives_false(), (kind, seed, name)
            n_checked += len(seq.steps)
    elapsed = build_seconds + (time.perf_counter() - t0)
    ok = n_instances >= 50 and elapsed < 300.0
    _report(3, ok, f"{n_instances} instances x {len(VARIANTS)} variants, "
                   f"{n_checked} explanation steps all oracle-valid, "
                   f"generate+run+validate time {elapsed:.1f}s")


def test_criterion_4_mus_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        doms, soft, hard = _random_query(rng)
        if brute_satisfiable(doms, list(soft) + list(hard)) is not None:
            continue
        if brute_satisfiable(doms, list(hard)) is None and rng.random() < 0.8:
            continue
        checked += 1
        family = brute_mus_family(doms, soft, hard)
        oracle = Oracle(doms)
        got = extract_mus_indices(soft, hard, oracle)
        assert frozenset(got) in family, (soft, hard, got, family)
        weights = tuple(1 + rng.choice([0, 1, 1, 2, 3]) for _ in soft)
        best = min(sum(weights[i] for i in fam) for fam in family)
        got_w = extract_mus_indices(soft, hard, oracle, weights)
        assert sum(weights[i] for i in got_w) == best, (soft, hard, weights, got_w, family)
        assert frozenset(got_w) in family or verify_mus(
            tuple(soft[i] for i in got_w), hard, oracle)
    _report(4, checked == 200,
            f"{checked}/200 random queries: subset-minimal in brute-force family, "
            f"smallest-weighted matches brute-force minimum weight")


def _fuzz_proof(rng: random.Random) -> AbstractProof:
    """Random structurally valid refutation over a small synthetic vocabulary."""
    vars_ = [VarId(i, f"v{i}") for i in range(4)]
    cids = [f"k{i}" for i in range(5)]

    def atom():
        return AtomicConstraint(rng.choice(vars_), rng.choice(["<=", ">=", "==", "!="]),
                                rng.randint(0, 5))

    steps = []
    n = rng.randint(1, 12)
    for i in range(1, n + 1):
        derived = clause_of([atom() for _ in range(rng.randint(1, 3))])
        reasons: list = []
        if rng.random() < 0.8:
            reasons.append(rng.choice(cids))
        for _ in range(rng.randint(0, 3)):
            if i > 1:
                reasons.append(rng.randint(1, i - 1))
        steps.append(ProofStep(derived, tuple(dict.fromkeys(reasons))))
    concl_reasons: list = [rng.randint(1, n) for _ in range(rng.randint(0, 4))]
    steps.append(ProofStep(FALSE, tuple(dict.fromkeys(concl_reasons))))
    return AbstractProof(tuple(steps))


def test_criterion_5_trimming_properties():
    rng = random.Random(1234)
    n = 1000
    for _ in range(n):
        p = _fuzz_proof(rng)
        t = trim(p)
        assert trim(t) == t
        assert t.steps[-1].derived == FALSE
        # independent of trim: the kept steps are exactly the
        # steps reachable from the conclusion (one backward sweep, since every
        # reference points at an earlier step), in order, deriving the same
        # and citing the same steps under their new ids
        reach = {len(p.steps)}
        for i in range(len(p.steps), 0, -1):
            if i in reach:
                reach.update(r for r in p.steps[i - 1].reasons if isinstance(r, int))
        kept = sorted(reach)
        new_id = {old: new for new, old in enumerate(kept, start=1)}
        assert [s.derived for s in t.steps] == [p.steps[i - 1].derived for i in kept]
        assert [s.reasons for s in t.steps] == [
            tuple(new_id[r] if isinstance(r, int) else r
                  for r in p.steps[i - 1].reasons) for i in kept]
    _report(5, True, f"trim idempotent and literally trimmed on {n} fuzzed proofs")


def test_criterion_6_metric_orderings(suite_runs):
    runs, _ = suite_runs
    per_suite: dict[str, dict[str, list[int]]] = {}
    for kind, seed, model, solver, proof, per_variant in runs:
        for name, result in per_variant.items():
            per_suite.setdefault(kind, {}).setdefault(name, []).append(
                result.sequence.max_stepsize)
        assert (per_variant["trim"].sequence.max_stepsize
                >= per_variant["trim+minloc"].sequence.max_stepsize), (kind, seed)
    avg_ok = True
    for kind, by_variant in per_suite.items():
        glob = statistics.mean(by_variant["trim+minglob"])
        loc = statistics.mean(by_variant["trim+minloc"])
        avg_ok = avg_ok and glob <= loc
    med_loc = statistics.median(per_suite["jobshop"]["trim+minloc"])
    med_glob = statistics.median(per_suite["jobshop"]["trim+minglob"])
    ok = avg_ok and med_loc == 1 and med_glob == 1
    _report(6, ok, "per-instance maxstep(trim) >= maxstep(trim+minloc); "
                   f"avg glob<=loc per suite ({avg_ok}); "
                   f"jobshop minimized-variant medians loc={med_loc} glob={med_glob}")


def test_criterion_7_trim_needs_no_oracle(suite_runs, golden):
    model, solver, proof = golden
    calls = [run_pipeline(model, proof, "trim", solver).oracle_calls]
    for kind, seed, _, _, _, per_variant in suite_runs[0]:
        calls.append(per_variant["trim"].oracle_calls)
    ok = all(c == 0 for c in calls)
    _report(7, ok, f"trim variant made {sum(calls)} oracle calls over "
                   f"{len(calls)} runs (expected 0)")


def test_criterion_8_degenerate_collapse(golden):
    _, solver, _ = golden
    text = ("i _x1>=1|a>=4|c<=-1 c:no1/2\n"
            "n _x1>=1|a>=4 s:1\n"
            "i _x2<=0|b<=2|d>=7 c:no2/1\n"
            "c UNSAT s:2,s:3\n")
    p = parse_drcp(text, solver)
    out = simplify_aux_vars(p, solver)
    ok = (len(out.steps) == 1 and out.steps[0].derived == FALSE
          and set(out.steps[0].reasons) == {"no1/2", "no2/1"})
    _report(8, ok, "all-auxiliary proof collapses to a single false step "
                   "reasoned by solver constraints")


def test_criterion_9_end_to_end_self_containment(suite_runs):
    n_proofs = 0
    for kind, seed, model, solver, proof, per_variant in suite_runs[0]:
        assert proof.is_refutation(), (kind, seed)
        bad = check_proof(proof, solver)
        assert bad == [], (kind, seed, bad)
        n_proofs += 1
    ok = n_proofs >= 50
    _report(9, ok, f"{n_proofs} prover-emitted proofs parsed and fully validated, "
                   f"feeding criteria 3 and 6 with no external tools")
