"""Randomized whole-stack property test: model -> flatten -> prove -> parse ->
every pipeline variant with stage-by-stage oracle checking."""

import random

from proofseq.flatten import flatten
from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Constraint,
    Disjunction,
    Domain,
    Linear,
    UserModel,
    VarId,
)
from proofseq.oracle import Sat
from proofseq.pipeline import VARIANTS, run_pipeline
from proofseq.proofcore import check_proof, parse_drcp
from proofseq.prover import solve_with_proof
from proofseq.sequence import validate_sequence

from helpers import check_projection_equivalence


def _random_model(rng):
    nv = rng.randint(2, 4)
    hi = rng.randint(2, 5)
    vars_ = [(VarId(i, f"v{i}"), Domain(0, hi)) for i in range(nv)]
    vs = [v for v, _ in vars_]
    cons = []
    for k in range(rng.randint(2, 6)):
        kind = rng.randrange(5)
        if kind == 0:
            cons.append(Constraint(f"c{k}", AtomicConstraint(
                rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]), rng.randint(-1, hi))))
        elif kind == 1:
            atoms = tuple(AtomicConstraint(rng.choice(vs), rng.choice(["<=", ">=", "==", "!="]),
                                           rng.randint(0, hi)) for _ in range(rng.randint(1, 3)))
            cons.append(Constraint(f"c{k}", Clause(atoms)))
        elif kind == 2:
            sub = rng.sample(vs, rng.randint(1, min(2, nv)))
            terms = tuple((rng.choice([-2, -1, 1, 2]), v) for v in sub)
            cons.append(Constraint(f"c{k}", Linear(
                terms, rng.choice(["<=", ">=", "==", "!="]), rng.randint(-3, 2 * hi))))
        elif kind == 3 and nv >= 2:
            cons.append(Constraint(f"c{k}", AllDifferent(tuple(rng.sample(vs, rng.randint(2, nv))))))
        else:
            a, b = rng.choice(vs), rng.choice(vs)
            m1 = (Linear(((1, a), (-1, b)), "<=", -rng.randint(1, 2)) if a != b
                  else AtomicConstraint(a, "<=", rng.randint(0, hi)))
            m2 = AtomicConstraint(rng.choice(vs), ">=", rng.randint(1, hi))
            cons.append(Constraint(f"c{k}", Disjunction((m1, m2))))
    return UserModel(tuple(vars_), tuple(cons))


def test_whole_stack_on_random_models():
    rng = random.Random(424242)
    n_unsat = 0
    while n_unsat < 40:
        model = _random_model(rng)
        for decomp in (False, True):
            solver = flatten(model, decompose_alldiff=decomp)
            assert check_projection_equivalence(model, solver, cap=10**5)
            res, text = solve_with_proof(solver, log_all=bool(rng.getrandbits(1)))
            if isinstance(res, Sat):
                continue
            n_unsat += 1
            proof = parse_drcp(text, solver)
            assert proof.is_refutation()
            assert check_proof(proof, solver) == []
            for name in VARIANTS:
                result = run_pipeline(model, proof, name, solver, debug=True)
                assert validate_sequence(result.sequence, model) == [], name
                assert result.sequence.derives_false(), name
            if n_unsat >= 40:
                break
