"""Determinism pin: every variant on a few small instances must reproduce the
recorded explanation metrics exactly. A refactor that changes any explanation,
any stage size or the oracle call count fails here.

Each row is (suite, seed, variant, len, maxstep, oracle_calls, stage sizes in
stage order). Regenerate only with a change that means to alter explanations,
and say why in that change.
"""

from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.pipeline import VARIANTS, run_pipeline
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

STAGES = ("proof", "no_aux", "user_cons", "min1", "domain_red", "min2", "merged")

PINNED = (
    ("sudoku4", 1, "trim", 5, 3, 0, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "trim+minloc", 5, 2, 16, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "trim+minglob", 5, 2, 236, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minloc", 5, 3, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minglob", 5, 2, 322, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minloc+minloc", 5, 2, 41, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 1, "minglob+minloc", 5, 2, 337, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim", 5, 2, 0, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim+minloc", 5, 2, 15, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "trim+minglob", 5, 2, 237, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minloc", 5, 2, 25, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minglob", 5, 2, 362, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minloc+minloc", 5, 2, 40, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 2, "minglob+minloc", 5, 2, 377, (9, 9, 9, 9, 5, 5, 5)),
    ("sudoku4", 3, "trim", 8, 5, 0, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "trim+minloc", 6, 4, 23, (21, 21, 21, 21, 8, 6, 6)),
    ("sudoku4", 3, "trim+minglob", 7, 3, 288, (21, 21, 21, 21, 8, 7, 7)),
    ("sudoku4", 3, "minloc", 8, 5, 61, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "minglob", 8, 6, 1031, (21, 21, 21, 21, 8, 8, 8)),
    ("sudoku4", 3, "minloc+minloc", 6, 4, 84, (21, 21, 21, 21, 8, 6, 6)),
    ("sudoku4", 3, "minglob+minloc", 6, 4, 1055, (21, 21, 21, 21, 8, 6, 6)),
    ("jobshop", 1, "trim", 3, 1, 0, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "trim+minloc", 3, 1, 8, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "trim+minglob", 3, 1, 37, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minloc", 3, 1, 8, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minglob", 3, 1, 37, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minloc+minloc", 3, 1, 16, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 1, "minglob+minloc", 3, 1, 45, (5, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 2, "trim", 3, 3, 0, (9, 3, 3, 3, 3, 3, 3)),
    ("jobshop", 2, "trim+minloc", 2, 3, 8, (9, 3, 3, 3, 3, 2, 2)),
    ("jobshop", 2, "trim+minglob", 2, 3, 27, (9, 3, 3, 3, 3, 2, 2)),
    ("jobshop", 2, "minloc", 2, 3, 8, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minglob", 2, 3, 27, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minloc+minloc", 2, 3, 15, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 2, "minglob+minloc", 2, 3, 34, (9, 3, 3, 2, 2, 2, 2)),
    ("jobshop", 3, "trim", 4, 2, 0, (8, 4, 4, 4, 4, 4, 4)),
    ("jobshop", 3, "trim+minloc", 3, 2, 10, (8, 4, 4, 4, 4, 3, 3)),
    ("jobshop", 3, "trim+minglob", 3, 2, 65, (8, 4, 4, 4, 4, 3, 3)),
    ("jobshop", 3, "minloc", 3, 2, 10, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minglob", 3, 2, 65, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minloc+minloc", 3, 2, 19, (8, 4, 4, 3, 3, 3, 3)),
    ("jobshop", 3, "minglob+minloc", 3, 2, 74, (8, 4, 4, 3, 3, 3, 3)),
    ("mutated", 1, "trim", 3, 1, 0, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "trim+minloc", 3, 1, 8, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "trim+minglob", 3, 1, 35, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minloc", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minglob", 3, 1, 43, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minloc+minloc", 3, 1, 18, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 1, "minglob+minloc", 3, 1, 51, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim", 3, 1, 0, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim+minloc", 3, 1, 8, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "trim+minglob", 3, 1, 23, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minloc", 3, 1, 10, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minglob", 3, 1, 27, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minloc+minloc", 3, 1, 18, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 2, "minglob+minloc", 3, 1, 35, (4, 4, 4, 4, 3, 3, 3)),
    ("mutated", 3, "trim", 3, 1, 0, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "trim+minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "trim+minglob", 3, 1, 34, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minloc", 3, 1, 7, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minglob", 3, 1, 34, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minloc+minloc", 3, 1, 14, (3, 3, 3, 3, 3, 3, 3)),
    ("mutated", 3, "minglob+minloc", 3, 1, 41, (3, 3, 3, 3, 3, 3, 3)),
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
