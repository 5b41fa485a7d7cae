"""Proof-logging solver for flattened models.

Runs the engine over a solver-level model and, on unsatisfiability, turns its
logged steps into a parseable, fully checkable proof: every propagation that
participates in a conflict becomes an inference line, conflict analysis
contributes nogood lines, and the root conflict concludes with UNSAT. With
log_all=True every propagation is logged, which leaves plenty of unused
steps for trimming to remove. Each engine step's reason keys (constraint
ids and step ids) are the proof step's reasons as they are.

The text comes straight from the engine steps: each distinct engine atom
gets one token string (`<name><op><value>`), and `proofcore.render_proof`,
the renderer `serialize_proof` uses too, writes the lines. No abstract
proof is built; `parse_drcp` builds it from the text.
"""

from __future__ import annotations

from typing import Union

from .engine import DEFAULT_BUDGET, Engine
from .errors import BudgetExceededError, FlattenError
from .flatten import SolverModel
from .model import Conjunction, Disjunction
from .oracle import BudgetExceeded, Sat, Unsat, _answer
from .proofcore import render_proof


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
    answer = _answer(res, (c.expr for c in s.constraints))
    if isinstance(answer, BudgetExceeded):
        raise BudgetExceededError(f"prover budget exhausted after {answer.conflicts} conflicts")
    if isinstance(answer, Sat):
        return answer, render_proof((), 0)

    # one token per distinct engine atom; the reason keys are the proof's refs
    names = {eng.slot_of[v]: v.name for v, _ in s.vars}
    tokens: dict[tuple, str] = {}

    def token(a: tuple) -> str:
        t = tokens[a] = f"{names[a[0]]}{a[1]}{a[2]}"
        return t

    steps = res.steps
    return Unsat(), render_proof(
        (([tokens.get(a) or token(a) for a in st.atoms], st.reasons) for st in steps), len(steps))
