"""Abstract proofs: ordered steps, each deriving one constraint from reasons.

A proof step derives one constraint (a set of constraints is a Conjunction)
from reasons that are either input constraints (by id) or whole earlier
steps. The concrete file format is line-oriented:

    # comment
    i <atom>[|<atom>...] c:<constraint-id>     inference from one constraint
    n <atom>[|<atom>...] s:<id>[,s:<id>...]    nogood from earlier steps
    d s:<id>                                   deletion hint (validated, dropped)
    c UNSAT s:<id>[,s:<id>...][,c:<id>...]     conclusion, derives false

Atoms are written compactly as <var><op><int> with op in {<=, >=, ==, !=}.
Step ids are 1-based in file order; the conclusion is itself a step (the
last one). A deletion hint must cite one earlier step; it is then dropped,
so it never removes a step and serialization writes none. The line tag is
not stored: it follows from the step (false, one input reason, or only step
reasons). Trimming is an explicit backward-reachability pass.

One renderer, `render_proof`, writes every proof text from each step's atom
tokens and reasons: `serialize_proof` gives it an abstract proof's atoms,
and the prover its engine's atoms, so both texts follow one set of rules
and raise the same ProofSerializeErrors.

A reason is the engine's own key (`engine.Key`): a constraint id (`str`,
written `c:<id>`) or a 1-based step id (`int`, written `s:<id>`). A `str`
never equals an `int`, so a numeric-looking constraint id such as `1` stays
apart from step 1.

`parse_drcp` remembers, for one call only, each atom token it has validated,
and reuses the atom it built. An atom token it has not validated before, and
so every malformed one, goes through the checked path with its error class,
message and line number. Every ref token takes the checked path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import Key
from .errors import (
    DanglingReferenceError,
    ForwardReferenceError,
    ProofParseError,
    ProofSerializeError,
    ProofShapeError,
    UnknownConstraintError,
)
from .model import (
    AtomicConstraint,
    Clause,
    Expr,
    FALSE,
    clause_of,
    negate_expr,
    slot_setters,
)
from .oracle import Oracle


ReasonRef = Key


@dataclass(frozen=True, slots=True, init=False)
class ProofStep:
    derived: Expr
    reasons: tuple[ReasonRef, ...]

    def __init__(self, derived: Expr, reasons: tuple[ReasonRef, ...]):
        set_derived, set_reasons = _STEP_SETTERS  # built as `model`'s records are
        set_derived(self, derived)
        set_reasons(self, reasons)


_STEP_SETTERS = slot_setters(ProofStep)


@dataclass(frozen=True)
class AbstractProof:
    steps: tuple[ProofStep, ...]

    def is_refutation(self) -> bool:
        return bool(self.steps) and self.steps[-1].derived == FALSE

    def resolve(self, ref: ReasonRef, model) -> Expr:
        """The constraint a reason reference denotes; model supplies input ids."""
        if isinstance(ref, str):
            return model.constraint_by_id(ref).expr
        return self.steps[ref - 1].derived


# --- concrete syntax -------------------------------------------------------

_ATOM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(<=|>=|==|!=)(-?\d+)$")
_SREF_RE = re.compile(r"^s:(\d+)$")
_CREF_RE = re.compile(r"^c:(\S+)$")


def _parse_atom(tok: str, var_by_name, lineno: int, seen: dict) -> AtomicConstraint:
    """The checked path for an atom token not seen before; a valid one is
    stored in seen."""
    m = _ATOM_RE.match(tok.strip())
    if not m:
        raise ProofParseError(f"malformed atom {tok.strip()!r}", lineno)
    name, op, val = m.group(1), m.group(2), int(m.group(3))
    try:
        var = var_by_name(name)
    except KeyError:
        raise ProofParseError(f"unknown variable {name!r}", lineno) from None
    a = seen[tok] = AtomicConstraint(var, op, val)
    return a


def _parse_refs(text: str, nsteps: int, constraint_ids, lineno: int,
                steps_only: bool) -> tuple[ReasonRef, ...]:
    if not steps_only and "," not in text:
        # one known c: ref, the reason of every inference line; anything
        # else takes the general loop, which also raises its errors
        m = _CREF_RE.match(text)
        if m and m.group(1) in constraint_ids:
            return (m.group(1),)
    refs: list[ReasonRef] = []
    for raw in text.split(","):
        tok = raw.strip()
        m = _SREF_RE.match(tok)
        if m:
            sid = int(m.group(1))
            if sid > nsteps:
                raise ForwardReferenceError(f"reference to step {sid} before it exists", lineno)
            if sid < 1:
                raise DanglingReferenceError(f"reference to step {sid}", lineno)
            refs.append(sid)
            continue
        m = _CREF_RE.match(tok)
        if m and not steps_only:
            cid = m.group(1)
            if cid not in constraint_ids:
                raise UnknownConstraintError(f"unknown constraint id {cid!r}", lineno)
            refs.append(cid)
            continue
        raise ProofParseError(f"malformed reference {tok!r}", lineno)
    return tuple(refs)


def parse_drcp(text: str, solver_model) -> AbstractProof:
    """Parse a proof against a solver model (atoms and c: refs must resolve).

    A proof with no UNSAT conclusion is accepted; is_refutation() is then False.
    """
    var_by_name, cids = solver_model.var_by_name, solver_model.constraint_map
    # validated atom tokens of this parse: atom text -> atom
    seen_atoms: dict[str, AtomicConstraint] = {}
    steps: list[ProofStep] = []
    concluded = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if concluded:
            raise ProofParseError("content after the UNSAT conclusion", lineno)
        tag, _, rest = line.partition(" ")
        rest = rest.strip()
        if tag in ("i", "n"):
            inference = tag == "i"
            atoms_text, _, ref_text = rest.rpartition(" ")
            if not atoms_text:
                raise ProofParseError("inference step needs atoms and a constraint ref" if inference
                                      else "nogood step needs atoms and step refs", lineno)
            atoms = tuple([seen_atoms.get(t) or _parse_atom(t, var_by_name, lineno, seen_atoms)
                           for t in atoms_text.split("|")])
            refs = _parse_refs(ref_text, len(steps), cids, lineno, not inference)
            if inference and (len(refs) != 1 or not isinstance(refs[0], str)):
                raise ProofParseError("inference step needs exactly one c:<id> reason", lineno)
            steps.append(ProofStep(clause_of(atoms), refs))
        elif tag == "d":
            refs = _parse_refs(rest, len(steps), cids, lineno, True)
            if len(refs) != 1:
                raise ProofParseError("deletion hint takes exactly one s:<id>", lineno)
        elif tag == "c":
            kw, _, ref_text = rest.partition(" ")
            if kw != "UNSAT":
                raise ProofParseError(f"unknown conclusion {kw!r}", lineno)
            refs = ()
            if ref_text.strip():
                refs = _parse_refs(ref_text.strip(), len(steps), cids, lineno, False)
            steps.append(ProofStep(FALSE, refs))
            concluded = True
        else:
            raise ProofParseError(f"unknown line tag {tag!r}", lineno)
    return AbstractProof(tuple(steps))


def serialize_proof(p: AbstractProof) -> str:
    """Render a proof in the concrete syntax; parse_drcp(serialize_proof(p)) == p.

    Each derived atom or clause goes to `render_proof` as its atom tokens; a
    step that derives anything else raises ProofSerializeError.
    """
    def steps():
        for i, step in enumerate(p.steps, start=1):
            d = step.derived
            if isinstance(d, AtomicConstraint):
                atoms: tuple[AtomicConstraint, ...] = (d,)
            elif isinstance(d, Clause):
                atoms = d.atoms
            else:
                raise ProofSerializeError(f"step {i} derives a non-clause {type(d).__name__}")
            yield [f"{a.var.name}{a.op}{a.value}" for a in atoms], step.reasons

    return render_proof(steps(), len(p.steps))


def render_proof(steps: Iterable[tuple[Sequence[str], tuple[ReasonRef, ...]]], n: int) -> str:
    """The text of a proof of n steps, each given as (atom tokens, reasons);
    a step with no atom tokens derives false.

    The line tag follows from the step: `c UNSAT` for the final false step,
    `i` for a clause from exactly one input reason, `n` for a clause from
    earlier steps only. Any other step raises ProofSerializeError.
    """
    lines = ["# drcp 1"]
    for i, (tokens, reasons) in enumerate(steps, start=1):
        if tokens and len(reasons) == 1 and isinstance(reasons[0], str):
            lines.append(f"i {'|'.join(tokens)} c:{reasons[0]}")
            continue
        refs = ",".join([f"c:{r}" if isinstance(r, str) else f"s:{r}" for r in reasons])
        if not tokens:
            if i != n:
                raise ProofSerializeError(f"step {i} derives false before the conclusion")
            lines.append(f"c UNSAT {refs}".rstrip())
        elif reasons and all(isinstance(r, int) for r in reasons):
            lines.append(f"n {'|'.join(tokens)} {refs}")
        else:
            raise ProofSerializeError(f"step {i} has neither one c: reason nor only s: reasons")
    return "\n".join(lines) + "\n"


# --- trimming ----------------------------------------------------------------


def trim(p: AbstractProof) -> AbstractProof:
    """Backward reachability from the final false step: keeps exactly the
    steps that feed the conclusion and renumbers their references."""
    if not p.is_refutation():
        raise ProofShapeError("cannot trim: final step does not derive false")
    n = len(p.steps)
    seen = {n}
    stack = [n]
    while stack:
        i = stack.pop()
        for ref in p.steps[i - 1].reasons:
            if isinstance(ref, int) and ref not in seen:
                seen.add(ref)
                stack.append(ref)
    return renumber([(i, p.steps[i - 1]) for i in sorted(seen)])


def renumber(kept: list[tuple[int, ProofStep]]) -> AbstractProof:
    """The proof made of the kept steps, given in order as (old 1-based id,
    step) pairs, with every step reference re-pointed at the new ids."""
    new_id = {old: new for new, (old, _) in enumerate(kept, start=1)}
    return AbstractProof(tuple(
        ProofStep(s.derived, tuple([r if isinstance(r, str) else new_id[r] for r in s.reasons]))
        for _, s in kept))


# --- semantic validity ----------------------------------------------------------


def check_step(p: AbstractProof, index: int, model,
               oracle: Optional[Oracle] = None) -> Optional[dict]:
    """A counter-model of step `index` (1-based) over the model's domains, or
    None when the step is valid.

    The step is valid iff its reasons plus its negated derived constraint have
    no model; otherwise that model is returned: it satisfies every reason and
    violates the derived constraint. Exhausting the oracle's budget (default:
    `Oracle(model.vars)`) raises, it is not a verdict.
    """
    step = p.steps[index - 1]
    if oracle is None:
        oracle = Oracle(model.vars)
    reasons = [p.resolve(r, model) for r in step.reasons]
    return oracle.model_of(reasons + [negate_expr(step.derived)])


def check_proof(p: AbstractProof, model, oracle: Optional[Oracle] = None) -> list[int]:
    """Indices (1-based) of invalid steps; empty means fully valid."""
    if oracle is None:
        oracle = Oracle(model.vars)
    return [i for i in range(1, len(p.steps) + 1)
            if check_step(p, i, model, oracle=oracle) is not None]
