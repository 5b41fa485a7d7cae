"""Explanation sequences: merged steps deriving single-variable facts.

A fact is a domain statement about one variable, normalized to the set of
values it allows within the variable's declared domain; the final step
derives false. Rendering has a human text form and a structured JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .errors import ProofShapeError
from .model import (
    AtomicConstraint,
    Clause,
    Conjunction,
    Domain,
    Expr,
    FALSE,
    UserModel,
    VarId,
    clause_of,
    format_expr,
    negate_expr,
)
from .oracle import Oracle


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "false"


BOT = Bottom()


@dataclass(frozen=True)
class DomainFact:
    """var is restricted to `allowed` (a subset of its declared domain)."""

    var: VarId
    allowed: frozenset[int]

    @staticmethod
    def from_expr(expr: Expr, domain: Domain) -> "DomainFact":
        if isinstance(expr, AtomicConstraint):
            atoms = (expr,)
        elif isinstance(expr, Clause) and expr.atoms:
            atoms = expr.atoms
        else:
            raise ProofShapeError(f"not a single-variable fact: {format_expr(expr)}")
        var = atoms[0].var
        if any(a.var != var for a in atoms):
            raise ProofShapeError(f"fact spans several variables: {format_expr(expr)}")
        allowed = frozenset(v for v in domain.values() if any(a.holds(v) for a in atoms))
        return DomainFact(var, allowed)

    def to_expr(self, domain: Domain) -> Expr:
        values = sorted(domain.values())
        allowed = sorted(self.allowed)
        if not allowed:
            return AtomicConstraint(self.var, "<=", domain.lower - 1)
        if len(allowed) == len(values):
            return AtomicConstraint(self.var, ">=", domain.lower)
        if len(allowed) == 1:
            return AtomicConstraint(self.var, "==", allowed[0])
        if len(allowed) == len(values) - 1:
            (gone,) = set(values) - set(allowed)
            return AtomicConstraint(self.var, "!=", gone)
        if allowed == [v for v in values if v <= allowed[-1]]:
            return AtomicConstraint(self.var, "<=", allowed[-1])
        if allowed == [v for v in values if v >= allowed[0]]:
            return AtomicConstraint(self.var, ">=", allowed[0])
        atoms = []
        for lo, hi in _runs(allowed):
            if lo == values[0]:
                atoms.append(AtomicConstraint(self.var, "<=", hi))
            elif hi == values[-1]:
                atoms.append(AtomicConstraint(self.var, ">=", lo))
            else:
                atoms.extend(AtomicConstraint(self.var, "==", v) for v in range(lo, hi + 1))
        return clause_of(atoms)

    def display(self, domain: Domain) -> str:
        e = self.to_expr(domain)
        if isinstance(e, AtomicConstraint):
            return str(e)
        spans = ", ".join(f"{lo}..{hi}" if hi > lo else str(lo)
                          for lo, hi in _runs(sorted(self.allowed)))
        return f"{self.var.name} in {{{spans}}}"


Fact = Union[DomainFact, Bottom]


def _runs(sorted_vals: list[int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for v in sorted_vals:
        if out and v == out[-1][1] + 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


@dataclass(frozen=True)
class ExplanationStep:
    facts: tuple[Fact, ...]
    reasons_user: tuple[str, ...]          # user constraint ids
    reasons_facts: tuple[DomainFact, ...]  # facts derived by earlier steps


@dataclass(frozen=True)
class ExplanationSequence:
    steps: tuple[ExplanationStep, ...]

    @property
    def sequence_length(self) -> int:
        return len(self.steps)

    @property
    def max_stepsize(self) -> int:
        """Largest number of user-level constraints used in one step
        (derived-fact reasons are shown but not counted)."""
        return max((len(s.reasons_user) for s in self.steps), default=0)

    @property
    def max_reasons(self) -> int:
        return max((len(s.reasons_user) + len(s.reasons_facts) for s in self.steps), default=0)

    def derives_false(self) -> bool:
        return bool(self.steps) and any(isinstance(f, Bottom) for f in self.steps[-1].facts)


def validate_sequence(seq: ExplanationSequence, model: UserModel,
                      oracle: Oracle | None = None) -> list[int]:
    """Oracle-check every step; returns 1-based indices of invalid steps.

    A step is valid when its user constraints plus its fact reasons imply its
    facts; fact reasons must also have been derived earlier. The oracle's
    budget bounds every query (default: `Oracle(model.vars)`).
    """
    if oracle is None:
        oracle = Oracle(model.vars)
    bad: list[int] = []
    seen: set[DomainFact] = set()
    for i, step in enumerate(seq.steps, start=1):
        ok = all(f in seen for f in step.reasons_facts)
        if ok:
            reasons = [model.constraint_by_id(cid).expr for cid in step.reasons_user]
            reasons += [f.to_expr(model.domain_of(f.var)) for f in step.reasons_facts]
            derived = [FALSE if isinstance(f, Bottom) else f.to_expr(model.domain_of(f.var))
                       for f in step.facts]
            ok = oracle.model_of(reasons + [negate_expr(Conjunction(tuple(derived)))]) is None
        if not ok:
            bad.append(i)
        for f in step.facts:
            if isinstance(f, DomainFact):
                seen.add(f)
    return bad


# --- rendering ----------------------------------------------------------------


def render_text(seq: ExplanationSequence, model: UserModel) -> str:
    derived_at: dict[DomainFact, int] = {}
    blocks = []
    for i, step in enumerate(seq.steps, start=1):
        facts = ", ".join(str(f) if isinstance(f, Bottom) else f.display(model.domain_of(f.var))
                          for f in step.facts)
        lines = [f"Step {i}: {facts}", "  because:"]
        for cid in step.reasons_user:
            lines.append(f"    {cid}: {format_expr(model.constraint_by_id(cid).expr)}")
        for f in step.reasons_facts:
            where = f" (step {derived_at[f]})" if f in derived_at else ""
            lines.append(f"    fact{where}: {f.display(model.domain_of(f.var))}")
        blocks.append("\n".join(lines))
        for f in step.facts:
            if isinstance(f, DomainFact) and f not in derived_at:
                derived_at[f] = i
    return "\n".join(blocks) + "\n"


def _fact_to_json(f: Fact):
    if isinstance(f, Bottom):
        return "false"
    return {"var": f.var.name, "allowed": sorted(f.allowed)}


def to_json(seq: ExplanationSequence) -> str:
    doc = {
        "metrics": {
            "sequence_length": seq.sequence_length,
            "max_stepsize": seq.max_stepsize,
            "max_reasons": seq.max_reasons,
        },
        "steps": [
            {
                "facts": [_fact_to_json(f) for f in s.facts],
                "because": {
                    "user": list(s.reasons_user),
                    "facts": [_fact_to_json(f) for f in s.reasons_facts],
                },
            }
            for s in seq.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
