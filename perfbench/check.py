"""Independent check of explanation sequences.

Shares no code with proofseq's engine, oracle or model.eval_expr: constraint
semantics are re-derived here, and a step is decided by a small
backtracking enumeration of its own scope. For each step, every variable's
domain is pruned by the step's fact reasons; the step is valid only if no
assignment within those domains satisfies all of its user reasons while
violating one of its facts. Fact reasons must have been derived by an earlier
step, and the last step must derive false.

A step whose enumeration exceeds NODE_CAP assignments is left undecided and
falls back to proofseq's own sequence.validate_sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    HalfReified,
    Linear,
)
from proofseq.sequence import Bottom, validate_sequence

NODE_CAP = 10**5

_CMP = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _vars(e) -> set:
    if isinstance(e, AtomicConstraint):
        return {e.var}
    if isinstance(e, Clause):
        return {a.var for a in e.atoms}
    if isinstance(e, Linear):
        return {v for _, v in e.terms}
    if isinstance(e, AllDifferent):
        return set(e.vars)
    if isinstance(e, HalfReified):
        return {e.guard.var} | _vars(e.then)
    if isinstance(e, (Disjunction, Conjunction)):
        out: set = set()
        for m in e.members:
            out |= _vars(m)
        return out
    raise TypeError(f"no scope rule for {type(e).__name__}")


def _holds(e, a: dict) -> bool:
    if isinstance(e, AtomicConstraint):
        return _CMP[e.op](a[e.var], e.value)
    if isinstance(e, Clause):
        return any(_CMP[x.op](a[x.var], x.value) for x in e.atoms)
    if isinstance(e, Linear):
        return _CMP[e.op](sum(c * a[v] for c, v in e.terms), e.rhs)
    if isinstance(e, AllDifferent):
        return len({a[v] for v in e.vars}) == len(e.vars)
    if isinstance(e, HalfReified):
        return not _CMP[e.guard.op](a[e.guard.var], e.guard.value) or _holds(e.then, a)
    if isinstance(e, Disjunction):
        return any(_holds(m, a) for m in e.members)
    if isinstance(e, Conjunction):
        return all(_holds(m, a) for m in e.members)
    raise TypeError(f"no evaluation rule for {type(e).__name__}")


class _CapReached(Exception):
    pass


def _find_model(domains: dict, cons: list, budget: list) -> bool:
    """True iff some assignment from `domains` satisfies every constraint.

    Backtracking with forward checking on alldifferent (an assigned value
    leaves the domains of the other members) and smallest-domain-first
    variable choice; every other constraint is tested once its scope is
    assigned. budget[0] counts down the values tried; _CapReached is raised
    when it runs out.
    """
    dom = {v: set(d) for v, d in domains.items()}
    peers: dict = {v: set() for v in dom}
    watch: dict = {v: [] for v in dom}
    for e in cons:
        if isinstance(e, AllDifferent):
            if len(set(e.vars)) < len(e.vars):
                return False  # a repeated member can never differ from itself
            for v in e.vars:
                peers[v].update(x for x in e.vars if x != v)
            continue
        scope = _vars(e)
        if len(scope) == 1:
            (v,) = scope
            dom[v] = {x for x in dom[v] if _holds(e, {v: x})}
        else:
            for v in scope:
                watch[v].append((e, scope))
    a: dict = {}

    def search() -> bool:
        free = [v for v in dom if v not in a]
        if not free:
            return True
        var = min(free, key=lambda v: (len(dom[v]), v.index))
        for val in sorted(dom[var]):
            budget[0] -= 1
            if budget[0] < 0:
                raise _CapReached
            a[var] = val
            pruned = []
            ok = True
            for p in peers[var]:
                if p not in a and val in dom[p]:
                    dom[p].discard(val)
                    pruned.append(p)
                    if not dom[p]:
                        ok = False
                        break
            if ok:
                ok = all(_holds(e, a) for e, scope in watch[var] if all(v in a for v in scope))
            if ok and search():
                return True
            for p in pruned:
                dom[p].add(val)
            del a[var]
        return False

    return search()


def check_step(step, model_domains: dict, constraints: dict, cap: int = NODE_CAP):
    """True (valid), False (invalid) or None (cap reached) for one step."""
    user = [constraints[cid] for cid in step.reasons_user]
    scope: set = set()
    for e in user:
        scope |= _vars(e)
    scope |= {f.var for f in step.facts if not isinstance(f, Bottom)}
    pruned: dict = {}
    for f in step.reasons_facts:
        pruned[f.var] = pruned.get(f.var, model_domains[f.var]) & f.allowed
    if not all(pruned.values()):
        return True  # the fact reasons alone admit no assignment
    domains = {v: set(pruned.get(v, model_domains[v])) for v in scope}
    budget = [cap]
    try:
        if any(isinstance(f, Bottom) for f in step.facts):
            return not _find_model(domains, user, budget)
        for f in step.facts:
            outside = dict(domains)
            outside[f.var] = domains[f.var] - f.allowed
            if _find_model(outside, user, budget):
                return False
        return True
    except _CapReached:
        return None


@dataclass
class SequenceCheck:
    steps: int = 0
    independent: int = 0      # steps decided by the enumeration
    bad: list[int] = field(default_factory=list)  # 1-based invalid steps
    validate_s: float = 0.0   # time spent in proofseq's validate_sequence

    @property
    def ok(self) -> bool:
        return not self.bad


def check_sequence(seq, model, clock) -> SequenceCheck:
    """Check one sequence independently; undecided steps use validate_sequence.

    validate_sequence runs on every sequence: its verdict must agree with
    every independently decided step, and its time is reported separately.
    """
    model_domains = {v: frozenset(d.values()) for v, d in model.vars}
    constraints = {c.id: c.expr for c in model.constraints}
    out = SequenceCheck(steps=len(seq.steps))
    if not seq.steps or not any(isinstance(f, Bottom) for f in seq.steps[-1].facts):
        out.bad.append(len(seq.steps))
    t0 = clock()
    system_bad = set(validate_sequence(seq, model))
    out.validate_s = clock() - t0
    seen: set = set()
    for i, step in enumerate(seq.steps, start=1):
        known = all(f in seen for f in step.reasons_facts) and \
            all(cid in constraints for cid in step.reasons_user)
        verdict = check_step(step, model_domains, constraints) if known else False
        if verdict is not None:
            out.independent += 1
        if (verdict is False or i in system_bad) and i not in out.bad:
            out.bad.append(i)
        seen.update(f for f in step.facts if not isinstance(f, Bottom))
    return out
