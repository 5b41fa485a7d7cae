"""Determinism pins: every variant on a few small instances must reproduce the
recorded explanation metrics exactly, the prover must reproduce the recorded
proof text byte for byte, and the engine must reproduce the recorded results
of fixed runs exactly. A refactor that changes any explanation, any stage
size, the oracle call count, or any logged step, premise order, trail or
conflict count of the engine fails here.

Each PINNED row is (suite, seed, variant, len, maxstep, oracle_calls, stage
sizes in stage order); each PINNED_PROOFS row is (suite, seed, log_all,
decompose_alldiff, sha256 of the proof text); each PINNED_ENGINE_RUNS entry
maps a set of engine runs to the sha256 of their results. Regenerate only
with a change that means to alter explanations, proofs or search, and say
why in that change.
"""

import hashlib
import random

from proofseq.engine import Engine
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    Domain,
    Linear,
    VarId,
    negate_expr,
)
from proofseq.pipeline import VARIANTS, run_pipeline
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

STAGES = ("proof", "no_aux", "user_cons", "min1", "domain_red", "min2", "merged")

PINNED = (
    ("sudoku4", 1, "trim", 5, 3, 0, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "trim+minloc", 5, 2, 16, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "trim+minglob", 5, 2, 105, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minloc", 5, 3, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minglob", 5, 3, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minloc+minloc", 5, 2, 33, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minglob+minloc", 5, 2, 33, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim", 5, 2, 0, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim+minloc", 5, 2, 15, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim+minglob", 5, 2, 97, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minloc", 5, 2, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minglob", 5, 2, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minloc+minloc", 5, 2, 32, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minglob+minloc", 5, 2, 32, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 3, "trim", 8, 5, 0, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "trim+minloc", 6, 4, 23, (21, 21, 21, 21, 8, 6, 6)),
    ("sudoku4", 3, "trim+minglob", 7, 3, 183, (21, 21, 21, 21, 8, 7, 7)),
    ("sudoku4", 3, "minloc", 8, 5, 61, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "minglob", 8, 5, 61, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "minloc+minloc", 6, 4, 74, (21, 21, 21, 21, 8, 6, 6)),
    ("sudoku4", 3, "minglob+minloc", 6, 4, 74, (21, 21, 21, 21, 8, 6, 6)),
    ("jobshop", 1, "trim", 3, 1, 0, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "trim+minloc", 3, 1, 8, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "trim+minglob", 3, 1, 15, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minloc", 3, 1, 8, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minglob", 3, 1, 15, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minloc+minloc", 3, 1, 16, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minglob+minloc", 3, 1, 23, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 2, "trim", 3, 3, 0, (9, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 2, "trim+minloc", 2, 3, 8, (9, 3, 3, 3, 3, 2, 2)),
    ("jobshop", 2, "trim+minglob", 2, 3, 19, (9, 3, 3, 3, 3, 2, 2)),
    ("jobshop", 2, "minloc", 2, 3, 8, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minglob", 2, 3, 19, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minloc+minloc", 2, 3, 8, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minglob+minloc", 2, 3, 19, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 3, "trim", 4, 2, 0, (8, 4, 4, 4, 4, 4, 4)),
    ("jobshop", 3, "trim+minloc", 3, 2, 10, (8, 4, 4, 4, 4, 3, 3)),
    ("jobshop", 3, "trim+minglob", 3, 2, 20, (8, 4, 4, 4, 4, 3, 3)),
    ("jobshop", 3, "minloc", 3, 2, 10, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minglob", 3, 2, 20, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minloc+minloc", 3, 2, 10, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minglob+minloc", 3, 2, 20, (8, 4, 4, 3, 3, 3, 3)),
    ("mutated", 1, "trim", 3, 1, 0, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "trim+minloc", 3, 1, 8, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "trim+minglob", 3, 1, 12, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minloc", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minglob", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minloc+minloc", 3, 1, 14, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minglob+minloc", 3, 1, 14, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim", 3, 1, 0, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim+minloc", 3, 1, 8, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim+minglob", 3, 1, 9, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minloc", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minglob", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minloc+minloc", 3, 1, 16, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minglob+minloc", 3, 1, 16, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 3, "trim", 3, 1, 0, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "trim+minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "trim+minglob", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minglob", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minloc+minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minglob+minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
)


def test_pinned_metrics():
    assert len(PINNED) == 3 * 3 * len(VARIANTS)
    for suite, seed in dict.fromkeys((r[0], r[1]) for r in PINNED):
        model = generate_instance(suite, seed)
        solver = flatten(model)
        _, text = solve_with_proof(solver)
        proof = parse_drcp(text, solver)
        for _, _, name, length, maxstep, calls, sizes in (
                r for r in PINNED if r[:2] == (suite, seed)):
            r = run_pipeline(model, proof, name, solver)
            got = (r.sequence.sequence_length, r.sequence.max_stepsize, r.oracle_calls,
                   list(r.stage_sizes().items()))
            assert got == (length, maxstep, calls, list(zip(STAGES, sizes))), (suite, seed, name)


PINNED_PROOFS = (
    ("sudoku4", 1, False, False, "0edbc25b559ee37dd4b48c2096c8e6abe3632d768090dbd30a1454e8500b5fc4"),
    ("sudoku4", 2, False, False, "cbcfcfa3ba5fa8062face983f3bef43f076bf953d4d66e9f78ef87b60a57d751"),
    ("sudoku4", 3, False, False, "9b770420af78f14434818106482f85cf68939ecc3e833c35988cf7f524b59833"),
    ("jobshop", 1, False, False, "923007b15441c1723d57e9f75ff1de6c6f248ee598a0daab25851e34bff5da30"),
    ("jobshop", 2, False, False, "c2bea5c844882ce14c09da2c03963b55db9143ff843d4109e0e5983f94547a88"),
    ("jobshop", 3, False, False, "6dbfeaea787de52aedd0e9249d0e41f3a9ab1abfa29a84dd685bd0a5bcb8e05f"),
    ("mutated", 1, False, False, "06dbb974167dc7bcc6e7d9955c28df8cc01fa3f354b3c2eab46baf3326a7151f"),
    ("mutated", 2, False, False, "c0b72aa971c504d7a850851d2d7600e2c20c1c3944d35397a1652a1aa5486056"),
    ("mutated", 3, False, False, "fb896a241c4d5859aa0bb191682561272885c7a52ff4ea1eabff6096b56b70d8"),
    ("sudoku9", 1, False, False, "5f0d7b86beccafa418b8c2ebb40ed78a82edfbe50b0ab57708b71ce02391a2df"),
    ("sudoku9", 1, True, True, "9507e57ff0463ddb9d10ec163002ff184e4af7ab5a0b167c07f92742736fb7b7"),
)


def test_pinned_proof_text():
    for suite, seed, log_all, decompose, digest in PINNED_PROOFS:
        solver = flatten(generate_instance(suite, seed), decompose_alldiff=decompose)
        _, text = solve_with_proof(solver, log_all=log_all)
        got = hashlib.sha256(text.encode()).hexdigest()
        assert got == digest, (suite, seed, log_all, decompose)


def _random_engine_problem(rng):
    """5-8 variables with small domains (some with interior holes) under a
    mix of clauses, linears and non-decomposed alldifferents."""
    vs = [VarId(i, f"v{i}") for i in range(rng.randint(5, 8))]
    doms = []
    for v in vs:
        hi = rng.randint(2, 5)
        doms.append((v, Domain(0, hi, frozenset(h for h in range(1, hi) if rng.random() < 0.2))))
    ops = ("<=", ">=", "==", "!=")
    cons = []
    for _ in range(rng.randint(6, 14)):
        k = rng.randrange(4)
        if k <= 1:
            cons.append(Clause(tuple(AtomicConstraint(rng.choice(vs), rng.choice(ops), rng.randint(0, 5))
                                     for _ in range(rng.randint(2, 4)))))
        elif k == 2:
            terms = tuple((rng.choice((-2, -1, 1, 2)), v) for v in rng.sample(vs, rng.randint(2, 3)))
            cons.append(Linear(terms, rng.choice(ops), rng.randint(-3, 8)))
        else:
            cons.append(AllDifferent(tuple(rng.sample(vs, rng.randint(3, len(vs))))))
    return doms, cons


def _random_disjunction_problem(rng):
    """4-6 variables with small domains (some with interior holes) under
    disjunctions whose members are atoms, clauses, linears, conjunctions and
    nested disjunctions, plus negated alldifferents and a few plain clauses."""
    vs = [VarId(i, f"v{i}") for i in range(rng.randint(4, 6))]
    doms = []
    for v in vs:
        hi = rng.randint(2, 4)
        doms.append((v, Domain(0, hi, frozenset(h for h in range(1, hi) if rng.random() < 0.2))))
    ops = ("<=", ">=", "==", "!=")

    def atom():
        return AtomicConstraint(rng.choice(vs), rng.choice(ops), rng.randint(0, 4))

    def linear():
        terms = tuple((rng.choice((-2, -1, 1, 2)), v) for v in rng.sample(vs, rng.randint(1, 3)))
        return Linear(terms, rng.choice(ops), rng.randint(-3, 6))

    def member(depth):
        k = rng.randrange(5 if depth == 0 else 3)
        if k == 0:
            return atom()
        if k == 1:
            return Clause(tuple(atom() for _ in range(rng.randint(2, 3))))
        if k == 2:
            return linear()
        if k == 3:
            return Conjunction(tuple(rng.choice((atom, linear))() for _ in range(rng.randint(2, 3))))
        return Disjunction(tuple(member(1) for _ in range(rng.randint(1, 3))))

    cons = []
    for _ in range(rng.randint(5, 10)):
        k = rng.randrange(6)
        if k <= 3:
            cons.append(Disjunction(tuple(member(0) for _ in range(rng.randint(1, 4)))))
        elif k == 4:
            cons.append(negate_expr(AllDifferent(tuple(rng.sample(vs, rng.randint(2, 4))))))
        else:
            cons.append(Clause(tuple(atom() for _ in range(rng.randint(1, 3)))))
    return doms, cons


def _pigeonhole(n):
    """n variables over n - 1 values under one alldifferent: unsat, hundreds of conflicts at n = 8."""
    vs = [VarId(i, f"p{i}") for i in range(n)]
    return [(v, Domain(0, n - 2)) for v in vs], [AllDifferent(tuple(vs))]


def _engine_runs():
    """(name, runs) pairs; each run is (domains, constraints, log_all)."""
    yield "pigeonhole 8 into 7", [(*_pigeonhole(8), False)]
    yield "random seeds 0-199", [(*_random_engine_problem(random.Random(seed)), log_all)
                                 for seed in range(200) for log_all in (False, True)]
    yield "disjunctions seeds 0-299", [(*_random_disjunction_problem(random.Random(seed)), log_all)
                                       for seed in range(300) for log_all in (False, True)]


# sha256 over the sha256 of each run's complete result, in run order
PINNED_ENGINE_RUNS = {
    "pigeonhole 8 into 7": "f0bd17b5016e8fc5f7cb92b17921a30f92706302fadfe519e33aab3f0049d156",
    "random seeds 0-199": "27209512fd5a1c45daa9eb265ba5ba48bcc0e45b824aaa890555df9e5fa28810",
    "disjunctions seeds 0-299": "dd02788bf5c61aa9dc8967553544c1506d43867c9554efb16e0021a982e597af",
}


def _cids_reached(res):
    """The constraint ids that an unsat run's conclusion reaches through its
    steps (none for any other run)."""
    if res.status != "unsat":
        return []
    used, seen, stack = set(), set(), list(res.steps[-1].reasons)
    while stack:
        key = stack.pop()
        if isinstance(key, str):
            used.add(key)
        elif key not in seen:
            seen.add(key)
            stack.extend(res.steps[key - 1].reasons)
    return sorted(used)


def test_pinned_engine_runs():
    """Every engine result (status, assignment, each step's atoms and
    reasons, the constraint ids an unsat conclusion reaches, conflict count)
    on runs that learn long nogoods and run the alldifferent propagator is
    exactly as recorded."""
    longest_nogood = 0
    for name, runs in _engine_runs():
        h = hashlib.sha256()
        for doms, cons, log_all in runs:
            eng = Engine(doms, log_all=log_all)
            for i, c in enumerate(cons):
                eng.add_constraint(f"k{i}", c)
            res = eng.solve()
            record = (res.status, sorted((res.assignment or {}).items()),
                      [(s.atoms, s.reasons) for s in res.steps],
                      _cids_reached(res), res.conflicts)
            h.update(hashlib.sha256(repr(record).encode()).digest())
            # a nogood is a step that cites step ids only
            longest_nogood = max([longest_nogood] + [
                len(s.atoms) for s in res.steps
                if s.atoms and all(isinstance(r, int) for r in s.reasons)])
        assert h.hexdigest() == PINNED_ENGINE_RUNS[name], name
    assert longest_nogood >= 3
