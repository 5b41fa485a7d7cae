"""Shared test utilities: an independent brute-force interpreter and SAT checker.

These deliberately re-derive constraint semantics from scratch (no calls into
proofseq.model.eval_expr) so that library results are checked against a
second, independent implementation.
"""

from __future__ import annotations

import itertools

from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Constraint,
    Disjunction,
    HalfReified,
    Linear,
)
from proofseq.mus import extract_mus_indices


def brute_eval(expr, assignment) -> bool:
    """Independent recursive evaluator over plain dict assignments."""
    if isinstance(expr, Constraint):
        return brute_eval(expr.expr, assignment)
    if isinstance(expr, AtomicConstraint):
        v = assignment[expr.var]
        return {"<=": v <= expr.value, ">=": v >= expr.value,
                "==": v == expr.value, "!=": v != expr.value}[expr.op]
    if isinstance(expr, Clause):
        for a in expr.atoms:
            if brute_eval(a, assignment):
                return True
        return False
    if isinstance(expr, Linear):
        total = 0
        for coef, var in expr.terms:
            total += coef * assignment[var]
        return {"<=": total <= expr.rhs, ">=": total >= expr.rhs,
                "==": total == expr.rhs, "!=": total != expr.rhs}[expr.op]
    if isinstance(expr, AllDifferent):
        seen = set()
        for var in expr.vars:
            if assignment[var] in seen:
                return False
            seen.add(assignment[var])
        return True
    if isinstance(expr, HalfReified):
        if brute_eval(expr.guard, assignment):
            return brute_eval(expr.then, assignment)
        return True
    if isinstance(expr, Disjunction):
        for m in expr.members:
            if brute_eval(m, assignment):
                return True
        return False
    if isinstance(expr, Conjunction):
        for m in expr.members:
            if not brute_eval(m, assignment):
                return False
        return True
    raise TypeError(type(expr).__name__)


def all_assignments(vars_domains):
    names = [v for v, _ in vars_domains]
    for combo in itertools.product(*(list(d.values()) for _, d in vars_domains)):
        yield dict(zip(names, combo))


def brute_satisfiable(vars_domains, constraints):
    """Exhaustive SAT check; returns a model or None."""
    for alpha in all_assignments(vars_domains):
        if all(brute_eval(c, alpha) for c in constraints):
            return alpha
    return None


def brute_mus_family(vars_domains, soft, hard):
    """All subset-minimal unsatisfiable subsets of `soft` (as index frozensets)."""
    n = len(soft)
    assignments = list(all_assignments(vars_domains))
    hard_ok = [alpha for alpha in assignments if all(brute_eval(h, alpha) for h in hard)]
    # bitmask of satisfying hard-feasible assignments per soft constraint
    masks = []
    for c in soft:
        m = 0
        for bit, alpha in enumerate(hard_ok):
            if brute_eval(c, alpha):
                m |= 1 << bit
        masks.append(m)
    full = (1 << len(hard_ok)) - 1

    def unsat(subset) -> bool:
        m = full
        for i in subset:
            m &= masks[i]
        return m == 0

    minimal = []
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if any(prev <= s for prev in minimal):
                continue
            if unsat(s):
                minimal.append(s)
    return minimal


def check_projection_equivalence(m, s, cap=10**6) -> bool:
    """Decide by enumeration whether solver solutions projected to user variables
    coincide with user-model solutions. The product of user domain sizes must
    stay within cap (auxiliaries are 0-1 and enumerated on top)."""
    count = 1
    for _, d in m.vars:
        count *= len(list(d.values()))
    if count > cap:
        raise ValueError(f"{count} user assignments exceed cap {cap}")
    aux = [(v, d) for v, d in s.vars if v in s.aux_vars]
    for alpha in all_assignments(m.vars):
        user_sat = all(brute_eval(c, alpha) for c in m.constraints)
        solver_sat = any(all(brute_eval(c, {**alpha, **beta}) for c in s.constraints)
                         for beta in all_assignments(aux))
        if user_sat != solver_sat:
            return False
    return True


def extract_mus(soft, hard, oracle, weights=None):
    """The soft members of one MUS of the query."""
    return tuple(soft[i] for i in extract_mus_indices(soft, hard, oracle, weights))


def verify_mus(members, hard, oracle) -> bool:
    """True iff members + hard is unsat and dropping any single member makes it sat."""
    hard, ms = list(hard), list(members)
    if oracle.model_of(hard + ms) is not None:
        return False
    for i in range(len(ms)):
        if oracle.model_of(hard + ms[:i] + ms[i + 1:]) is None:
            return False
    return True
