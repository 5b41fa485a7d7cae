"""Proof-logging solver for flattened models.

Runs the engine over a solver-level model and, on unsatisfiability, turns its
logged steps into a parseable, fully checkable proof: every propagation that
participates in a conflict becomes an inference line, conflict analysis
contributes nogood lines, and the root conflict concludes with UNSAT. With
log_all=True every propagation is logged, which leaves plenty of unused
steps for trimming to remove. Each engine step's reason keys (constraint
ids and step ids) are the proof step's reasons as they are.
"""

from __future__ import annotations

from typing import Union

from .engine import DEFAULT_BUDGET, Engine
from .errors import BudgetExceededError, FlattenError
from .flatten import SolverModel
from .model import AtomicConstraint, Conjunction, Disjunction, clause_of, eval_expr
from .oracle import Sat, Unsat
from .proofcore import AbstractProof, ProofStep, serialize_proof


def solve_with_proof(s: SolverModel, budget: int = DEFAULT_BUDGET,
                     log_all: bool = False) -> tuple[Union[Sat, Unsat], str]:
    """Solve a flattened model; returns (Sat(assignment) | Unsat, proof text).

    A satisfiable run returns an empty proof body (header only). Budget
    exhaustion raises BudgetExceededError.
    """
    for c in s.constraints:
        if isinstance(c.expr, (Disjunction, Conjunction)):
            raise FlattenError(f"constraint {c.id} is not solver-level; flatten it first")
    eng = Engine(s.vars, budget=budget, log_all=log_all)
    for c in s.constraints:
        eng.add_constraint(c.id, c.expr)
    res = eng.solve()
    if res.status == "budget":
        raise BudgetExceededError(f"prover budget exhausted after {res.conflicts} conflicts")
    if res.status == "sat":
        for c in s.constraints:
            if not eval_expr(c.expr, res.assignment):
                raise AssertionError(f"prover returned a non-model (violates {c.id})")
        return Sat(res.assignment), serialize_proof(AbstractProof(()))

    # one AtomicConstraint per engine atom; the reason keys are the proof's refs
    by_slot = {eng.slot_of[v]: v for v, _ in s.vars}
    atoms: dict[tuple, AtomicConstraint] = {}

    def atom(a: tuple) -> AtomicConstraint:
        c = atoms[a] = AtomicConstraint(by_slot[a[0]], a[1], a[2])
        return c

    steps = tuple(ProofStep(clause_of([atoms.get(a) or atom(a) for a in st.atoms]), st.reasons)
                  for st in res.steps)
    return Unsat(), serialize_proof(AbstractProof(steps))
