"""Proof-to-explanation pipeline: property-based simplification, user-level
lifting, reason minimization and step merging, plus the seven run variants.

Stage order (the optional minimizations give the variants):

    parse -> simplify_aux_vars -> lift_to_user_level
          -> [trim | minimize_reasons(local|global)]
          -> simplify_to_domain_reductions
          -> [minimize_reasons(local|global)]
          -> merge_steps

Global minimization at the end excludes an earlier minimization (it would
ignore whatever the first pass uncovered), which leaves exactly seven legal
variants. Every stage before merging maps a proof to a proof of one derived
constraint per step; whether its input reasons name solver or user
constraints is known from the stage, not stored in the proof.

`run_pipeline` runs the stages from one table of (name, stage, model) rows:
no_aux, user_cons, min1, domain_red, min2. Each row is timed and recorded as
a `StageStat` with the size of the proof it leaves; a variant without a
second minimization records min2 at 0.0 ms with the proof unchanged. The
leading "proof" entry (the parsed proof's size, 0.0 ms) and the final
"merged" entry (merge_steps, timed) sit outside the table. With debug=True,
every stage that ran is followed by `check_proof` of its output against the
row's model: the solver model after no_aux, the user model after the others.
The checks use the run's budget. A skipped min2 is not re-checked.

Each minimization pass carries what its queries learned to later queries
(see `minimize_reasons`): a global pass keeps the Sat models its queries
return, which seed the correction sets of its later queries, and
`run_pipeline` keeps one memory of proved MUSes for both of its
minimization stages, so that a local query over a MUS that an earlier query
returned keeps its reasons without an oracle call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import DEFAULT_BUDGET
from .errors import ProofShapeError, LiftBeforeSimplifyError, SatInputError
from .flatten import SolverModel
from .model import (
    Expr,
    FALSE,
    UserModel,
    canonical_key,
    negate_expr,
    scope,
)
from .mus import extract_mus_indices
from .oracle import Oracle
from .proofcore import (
    AbstractProof,
    ProofStep,
    ReasonRef,
    check_proof,
    renumber,
    trim,
)
from .sequence import (
    BOT,
    Bottom,
    DomainFact,
    ExplanationSequence,
    ExplanationStep,
)

LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class PipelineVariant:
    name: str
    first_min: Optional[str]   # None | "local" | "global"
    second_min: Optional[str]

    def __post_init__(self):
        if self.second_min == GLOBAL and self.first_min is not None:
            raise ValueError("global minimization at the end excludes a first minimization")


VARIANTS: dict[str, PipelineVariant] = {
    "trim": PipelineVariant("trim", None, None),
    "trim+minloc": PipelineVariant("trim+minloc", None, LOCAL),
    "trim+minglob": PipelineVariant("trim+minglob", None, GLOBAL),
    "minloc": PipelineVariant("minloc", LOCAL, None),
    "minglob": PipelineVariant("minglob", GLOBAL, None),
    "minloc+minloc": PipelineVariant("minloc+minloc", LOCAL, LOCAL),
    "minglob+minloc": PipelineVariant("minglob+minloc", GLOBAL, LOCAL),
}


def variant(name: str) -> PipelineVariant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose one of {', '.join(VARIANTS)}") from None


# --- property-based simplification -------------------------------------------


def simplify(p: AbstractProof, pred: Callable[[ProofStep], bool]) -> AbstractProof:
    """Remove every step violating pred, substituting its reasons into all
    later steps that referenced it (transitively, front to back)."""
    if not p.steps:
        return p
    if not pred(p.steps[-1]):
        raise ProofShapeError("the property fails on the final step")
    subst: dict[int, tuple[ReasonRef, ...]] = {}
    kept: list[tuple[int, ProofStep]] = []
    for i, step in enumerate(p.steps, start=1):
        reasons: list[ReasonRef] = []
        for ref in step.reasons:
            if ref in subst:  # keys are step ids; a str never equals an int
                reasons.extend(subst[ref])
            else:
                reasons.append(ref)
        reasons = list(dict.fromkeys(reasons))
        if pred(step):
            kept.append((i, ProofStep(step.derived, tuple(reasons))))
        else:
            subst[i] = tuple(reasons)
    return renumber(kept)


def simplify_aux_vars(p: AbstractProof, solver_model: SolverModel) -> AbstractProof:
    """Drop every step whose derived constraint mentions auxiliary variables.

    Without auxiliaries, and with no step citing a reason twice, nothing is
    dropped or deduplicated, so the proof is returned as it is."""
    aux = solver_model.aux_vars
    if not aux and all(len(set(s.reasons)) == len(s.reasons) for s in p.steps):
        return p

    def no_aux(step: ProofStep) -> bool:
        return not aux or not (scope(step.derived) & aux)

    return simplify(p, no_aux)


def simplify_to_domain_reductions(p: AbstractProof, model: UserModel) -> AbstractProof:
    """Keep only steps whose derived constraint talks about at most one
    variable, and normalize the surviving unary clauses to canonical domain
    statements over the model's declared domains."""

    def unary(step: ProofStep) -> bool:
        return len(scope(step.derived)) <= 1

    out = simplify(p, unary)
    steps = []
    for step in out.steps:
        steps.append(ProofStep(_normalize_unary(step.derived, model), step.reasons))
    return AbstractProof(tuple(steps))


def _normalize_unary(d: Expr, model: UserModel) -> Expr:
    sc = scope(d)
    if d == FALSE or not sc:
        return d
    (var,) = sc
    return DomainFact.from_expr(d, model.domain_of(var)).to_expr(model.domain_of(var))


# --- lifting -------------------------------------------------------------------


def lift_to_user_level(p: AbstractProof, solver_model: SolverModel) -> AbstractProof:
    """Replace each solver-level input reason with the user constraint it was
    flattened from (duplicates collapse). Sound only once no derived
    constraint mentions auxiliaries: a user constraint restricted to the
    user variables is at least as strong as any constraint flattened from it,
    so implication of aux-free derivations is preserved."""
    aux = solver_model.aux_vars
    for i, step in enumerate(p.steps, start=1):
        bad = aux and scope(step.derived) & aux
        if bad:
            names = ", ".join(sorted(v.name for v in bad))
            raise LiftBeforeSimplifyError(
                f"step {i} derives a constraint over auxiliaries ({names}); simplify first")
    prov = solver_model.provenance
    steps = []
    for step in p.steps:
        reasons = step.reasons
        if len(reasons) != 1:
            reasons = tuple(dict.fromkeys(prov[r] if isinstance(r, str) else r for r in reasons))
        elif isinstance(reasons[0], str):  # most steps: one inference's constraint
            reasons = (prov[reasons[0]],)
        steps.append(ProofStep(step.derived, reasons))
    return AbstractProof(tuple(steps))


# --- reason minimization ----------------------------------------------------------


def minimize_reasons(p: AbstractProof, mode: str, user_model: UserModel,
                     oracle: Oracle, proved: Optional[set] = None) -> AbstractProof:
    """Back-to-front pass: drop steps whose derivation is no longer required,
    and replace each kept step's reasons by a minimal unsatisfiable subset of
    its candidate reasons against the negated derivation.

    local mode: candidates are the step's own reasons, subset-minimal MUS.
    global mode: candidates are all user constraints plus everything derived
    earlier; a smallest-MUS weighted to count user constraints first (weight
    F+1 for a user constraint, 1 for a derived fact, F = number of candidate
    facts) so steps cite as few user constraints as possible. The search is
    seeded from the candidates equal to the step's own reasons, and from the
    Sat models that the pass's earlier queries returned (see `mus`).

    proved remembers, as (canonical_key(hard), frozenset of the members'
    keys), every MUS a query returns: a deletion result is one, since each
    of its trials was Sat, and so is a global result. The pass adds its own
    and reads them, in local mode: a query whose candidates are a known MUS
    keeps them all without an oracle call, which is what its up-front probe
    and deletion pass would return. `run_pipeline` shares one set between
    its two minimization stages. Every candidate's key is computed once per
    pass.
    """
    if mode not in (LOCAL, GLOBAL):
        raise ValueError(f"unknown minimization mode {mode!r}")
    if not p.is_refutation():
        raise ProofShapeError("reason minimization needs a refutation")
    if proved is None:
        proved = set()
    user = [(c.id, c.expr, canonical_key(c.expr)) for c in user_model.constraints]
    user_key = {cid: key for cid, _, key in user}
    derived_key = [canonical_key(s.derived) for s in p.steps]

    def key_of(ref: ReasonRef):
        return user_key[ref] if isinstance(ref, str) else derived_key[ref - 1]

    models: list = []  # the Sat models of the pass's queries (global mode only)
    req = {canonical_key(FALSE)}
    kept_rev: list[tuple[int, ProofStep]] = []
    for i in range(len(p.steps), 0, -1):
        step = p.steps[i - 1]
        if derived_key[i - 1] not in req:
            continue
        cand = _candidates(p, i, mode, user_model, user, key_of)
        hard = negate_expr(step.derived)
        hard_key = canonical_key(hard)
        if mode == LOCAL and (hard_key, frozenset(k for _, _, k in cand)) in proved:
            chosen = tuple(range(len(cand)))
        else:
            soft = tuple(expr for _, expr, _ in cand)
            weights = start = None
            if mode == GLOBAL:
                nfacts = sum(1 for ref, _, _ in cand if isinstance(ref, int))
                weights = tuple(1 if isinstance(ref, int) else nfacts + 1 for ref, _, _ in cand)
                # the step's own reasons are already unsat with its negation
                own = {key_of(r) for r in step.reasons}
                start = [k for k, (_, _, key) in enumerate(cand) if key in own]
            try:
                chosen = extract_mus_indices(soft, (hard,), oracle, weights, start, models=models)
            except SatInputError:
                raise SatInputError(f"step {i} is not implied by its reasons") from None
        keys = frozenset(cand[k][2] for k in chosen)
        proved.add((hard_key, keys))
        req.update(keys)
        kept_rev.append((i, ProofStep(step.derived, tuple(cand[k][0] for k in chosen))))
    # duplicate derivations can leave a kept step unreferenced (the candidate
    # table points every reason at the earliest deriver); a final reachability
    # pass restores the trimmed-proof property without changing anything else
    return trim(renumber(kept_rev[::-1]))


def _candidates(p: AbstractProof, i: int, mode: str, user_model: UserModel,
                user: list[tuple], key_of: Callable) -> list[tuple[ReasonRef, Expr, object]]:
    """(reason, expression, canonical key) of each candidate of step i;
    user holds the (id, expression, key) of every user constraint."""
    out: dict = {}
    if mode == LOCAL:
        for ref in p.steps[i - 1].reasons:
            key = key_of(ref)
            if key not in out:
                out[key] = (ref, p.resolve(ref, user_model), key)
        return list(out.values())
    # global: every user constraint, then every earlier derivation; when the
    # same constraint exists both ways the derived-fact identity wins (it is
    # the cheaper reason under the stepsize objective)
    for cid, expr, key in user:
        out[key] = (cid, expr, key)
    for j in range(1, i):
        key = key_of(j)
        if key not in out or isinstance(out[key][0], str):
            out[key] = (j, p.steps[j - 1].derived, key)
    return list(out.values())


# --- merging ---------------------------------------------------------------------


def merge_steps(p: AbstractProof, user_model: UserModel) -> ExplanationSequence:
    """Merge steps with identical reason sets at the earliest such position.

    Expects a user-level refutation whose non-final steps derive
    single-variable facts. The final false step never merges, so the
    sequence always ends in false.
    """
    if not p.is_refutation():
        raise ProofShapeError("merging needs a refutation")
    facts: list = []
    reasons_of: list[tuple[tuple[str, ...], tuple[DomainFact, ...]]] = []
    for idx, step in enumerate(p.steps, start=1):
        if step.derived == FALSE:
            fact = BOT
        else:
            sc = scope(step.derived)
            if len(sc) != 1:
                raise ProofShapeError(
                    f"step {idx} derives a multi-variable constraint; simplify first")
            (var,) = sc
            fact = DomainFact.from_expr(step.derived, user_model.domain_of(var))
        users: list[str] = []
        fact_reasons: list[DomainFact] = []
        for ref in step.reasons:
            if isinstance(ref, str):
                users.append(ref)
            elif isinstance(facts[ref - 1], Bottom):
                raise ProofShapeError("a step references a false derivation")
            else:
                fact_reasons.append(facts[ref - 1])
        facts.append(fact)
        reasons_of.append((tuple(dict.fromkeys(users)), tuple(dict.fromkeys(fact_reasons))))

    # reason-set key -> (the first member's reasons, the group's facts)
    groups: dict = {}
    for fact, reasons in zip(facts[:-1], reasons_of):
        key = tuple(frozenset(r) for r in reasons)
        groups.setdefault(key, (reasons, []))[1].append(fact)
    steps = [ExplanationStep(tuple(dict.fromkeys(fs)), *reasons)
             for reasons, fs in groups.values()]
    steps.append(ExplanationStep((BOT,), *reasons_of[-1]))
    return ExplanationSequence(tuple(steps))


# --- the full pipeline ---------------------------------------------------------------


@dataclass
class StageStat:
    name: str
    steps: int
    ms: float


@dataclass
class PipelineResult:
    sequence: ExplanationSequence
    stages: list[StageStat] = field(default_factory=list)
    oracle_calls: int = 0

    def stage_sizes(self) -> dict[str, int]:
        return {s.name: s.steps for s in self.stages}


def run_pipeline(user_model: UserModel, proof: AbstractProof, variant_name: str,
                 solver_model: SolverModel, budget: int = DEFAULT_BUDGET,
                 debug: bool = False) -> PipelineResult:
    """Execute one pipeline variant on a parsed solver-level proof.

    With debug=True every intermediate proof is oracle-checked step by step
    (these calls are counted separately from the pipeline's own oracle use).
    """
    var = variant(variant_name)
    oracle = Oracle(user_model.vars, budget=budget)
    proved: set = set()  # the MUSes both minimization stages proved

    def minimize(mode: Optional[str]):
        if mode is None:
            return None
        return lambda q: minimize_reasons(q, mode, user_model, oracle, proved)

    # (name, stage or None when the variant skips it, model to check against)
    table = (
        ("no_aux", lambda q: simplify_aux_vars(q, solver_model), solver_model),
        ("user_cons", lambda q: lift_to_user_level(q, solver_model), user_model),
        ("min1", minimize(var.first_min) or trim, user_model),  # trim without a first min
        ("domain_red", lambda q: simplify_to_domain_reductions(q, user_model), user_model),
        ("min2", minimize(var.second_min), user_model),
    )
    stages = [StageStat("proof", len(proof.steps), 0.0)]
    p = proof
    for name, stage, model in table:
        if stage is None:
            stages.append(StageStat(name, len(p.steps), 0.0))
            continue
        t = time.perf_counter()
        p = stage(p)
        stages.append(StageStat(name, len(p.steps), (time.perf_counter() - t) * 1000.0))
        if debug and (bad := check_proof(p, model, Oracle(model.vars, budget=budget))):
            raise ProofShapeError(f"invalid steps after a pipeline stage: {bad}")
    t = time.perf_counter()
    seq = merge_steps(p, user_model)
    stages.append(StageStat("merged", len(seq.steps), (time.perf_counter() - t) * 1000.0))
    return PipelineResult(seq, stages, oracle.calls)
