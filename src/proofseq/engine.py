"""Finite-domain search engine: propagation, chronological backtracking and
nogood learning over atomic constraints, with optional proof logging.

One Engine instance runs one solve. The trail records every domain event as
an atomic constraint together with the trail entries that premised it, so
conflict analysis can resolve backwards and emit inference/nogood steps on
demand. Only conflict-participating propagations are logged unless log_all
is set.

A reason key is what a proof line cites: the id (a str) of the input
constraint that propagated, or the 1-based step id (an int) of the nogood
whose clause did, since each learned nogood is registered under its own
step. A trail reason is (key, premise entries) and a Conflict carries the
key of the violated clause or constraint. A step is (atoms, reasons): an
inference cites its one constraint id, a nogood the step ids it resolves,
and the conclusion (no atoms) its step ids, then any constraint that is
false on its own.

Bounds are kept per side: side 0 is the lower bound (`lb`), side 1 the upper
bound (`ub`), and one code path serves both sides (`_tighten`,
`justify_bound`, `backtrack_to`). Each side of each variable has an
append-only history, oldest first, that starts with the root bound, so its
last record always holds the current bound and backtracking truncates it. A
("b", value, entry) record means trail entry `entry` applied an atom that
alone entails the bound `value`. A ("s", value, entry) record means the bound
slid one value, past the value that `entry` removed (-1 for a root hole), so
it also rests on the record before it.

One function, `_compile`, lowers every expression; an atom compiles as a
one-atom clause. A disjunction (nested ones spliced in) that is not a plain
clause gets one selector slot per member and a cover clause; each member
compiles under the guard `selector == 1`, where an atom or a clause gains
the negated guard as a literal and a linear becomes half-reified.

Each registered propagator is a tuple whose first item is its plain
`Engine._prop_*` function, called as `p[0](self, p)`. A bound method there
would make every engine a reference cycle that only the cyclic collector
frees. `apply` and every propagator return the Conflict they hit, or None.

Propagation strength: bounds reasoning for linear sums, unit propagation for
clauses, value-based pairwise pruning for alldifferent, guard/body reasoning
for half-reified linears. Search is complete, so weak propagation only costs
nodes, never soundness.

The two hottest propagators skip work whose result is already known.
Alldifferent skips every removal that is already in place (the other slot
excludes the value) and justifies a fixed slot only before its first real
removal. Each clause and nogood keeps two distinct hinted positions (the
two watched literals of Chaff and MiniSat, used here only as a scan
shortcut): if either hinted atom is true, or both are undecided, the clause
can neither propagate nor fail, so the scan is skipped; otherwise the scan
runs as before and refreshes the hint. The hint needs no undo on backtrack.
Wake-ups and queue order are unchanged, so every propagator still runs when
it did, the trail is the same and the logged proofs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import FlattenError
from .model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    Domain,
    Expr,
    HalfReified,
    Linear,
    VarId,
    disjuncts,
)

Atom = tuple  # (var slot, op, value)
Key = Union[str, int]  # a constraint id or a 1-based step id

DEFAULT_BUDGET = 10**6  # conflicts per solve


@dataclass
class EngineStep:
    """One logged proof step: the clause it derives (none for the conclusion)
    and the reason keys it cites."""

    atoms: tuple[Atom, ...]
    reasons: tuple[Key, ...] = ()


@dataclass
class EngineResult:
    status: str                                   # "sat" | "unsat" | "budget"
    assignment: Optional[dict[VarId, int]] = None  # sat only
    steps: list[EngineStep] = field(default_factory=list)
    used_cids: frozenset = frozenset()            # constraint ids reachable from the conclusion
    conflicts: int = 0


class Conflict:
    """A violated clause: `entries` falsify every literal of `step_atoms`."""

    __slots__ = ("entries", "key", "step_atoms")

    def __init__(self, entries, key, step_atoms):
        self.entries = entries          # trail indices
        self.key = key                  # reason key of the violated constraint or nogood
        self.step_atoms = step_atoms    # literals of the violated clause


class Engine:
    def __init__(self, vars_domains: Sequence[tuple[VarId, Domain]],
                 budget: int = DEFAULT_BUDGET, log_all: bool = False):
        self.lb: list[int] = []
        self.ub: list[int] = []
        self.bound = (self.lb, self.ub)
        self.holes: list[dict[int, int]] = []  # value -> entry that removed it (-1: root)
        # per side, per variable: (kind, value, entry) records, see the module docstring
        self.hist: tuple[list[list[tuple[str, int, int]]], ...] = ([], [])
        self.watch: list[list[int]] = []
        self.slot_of: dict[VarId, int] = {}
        for v, d in vars_domains:
            self.slot_of[v] = self._add_slot(d)
        self.budget = budget
        self.log_all = log_all

        self.t_atom: list[Atom] = []
        self.t_level: list[int] = []
        self.t_reason: list[Optional[tuple]] = []  # None: decision, else (key, premise entries)
        self.t_effects: list[list[tuple]] = []
        self.level = 0
        self.level_start: list[int] = [0]

        self.props: list[tuple] = []  # (propagator function, its arguments...)
        self.queue: list[int] = []
        self.qhead = 0
        self.in_queue: list[bool] = []

        self.steps: list[EngineStep] = []
        self.entry_step: dict[int, int] = {}
        self.conflicts = 0

    # --- setup -----------------------------------------------------------

    def _add_slot(self, d: Domain) -> int:
        self.lb.append(d.lower)
        self.ub.append(d.upper)
        self.holes.append(dict.fromkeys(d.holes, -1))
        self.hist[0].append([("b", d.lower, -1)])
        self.hist[1].append([("b", d.upper, -1)])
        self.watch.append([])
        return len(self.lb) - 1

    def atom_of(self, a: AtomicConstraint) -> Atom:
        return (self.slot_of[a.var], a.op, a.value)

    def add_constraint(self, cid: str, e: Expr):
        """Compile an expression into primitive propagators registered under cid."""
        self._compile(cid, e)

    def _register(self, prop: tuple, var_slots):
        idx = len(self.props)
        self.props.append(prop)
        self.in_queue.append(False)
        for s in set(var_slots):
            self.watch[s].append(idx)
        self._enqueue(idx)

    def _add_clause(self, key: Key, atoms):
        atoms = tuple(atoms)
        if len(atoms) > 1:  # skipped for the most frequent clause, a single atom
            atoms = tuple(dict.fromkeys(atoms))
        # two distinct positions to check before scanning, see _prop_clause
        hint = [0, 1] if len(atoms) > 1 else None
        self._register((Engine._prop_clause, key, atoms, hint), [a[0] for a in atoms])

    def _enqueue(self, idx: int):
        if not self.in_queue[idx]:
            self.in_queue[idx] = True
            self.queue.append(idx)

    def _compile(self, cid: str, e: Expr, guard: Optional[Atom] = None):
        """Register e under cid; with a guard atom, register guard => e."""
        if isinstance(e, (AtomicConstraint, Clause)):
            atoms = tuple(map(self.atom_of, e.atoms if isinstance(e, Clause) else (e,)))
            self._add_clause(cid, atoms if guard is None else (_negate_atom(guard),) + atoms)
        elif isinstance(e, Linear):
            self._compile_linear(cid, e, guard)
        elif isinstance(e, Conjunction):
            for m in e.members:
                self._compile(cid, m, guard)
        elif guard is not None:
            raise FlattenError(f"cannot guard {type(e).__name__} inside a disjunction")
        elif isinstance(e, AllDifferent):
            slots = tuple(self.slot_of[v] for v in e.vars)
            self._register((Engine._prop_alldiff, cid, slots), slots)
        elif isinstance(e, HalfReified):
            self._compile_linear(cid, e.then, self.atom_of(e.guard))
        elif isinstance(e, Disjunction):
            self._compile_disjunction(cid, e)
        else:
            raise FlattenError(f"engine cannot compile {type(e).__name__}")

    def _compile_linear(self, cid: str, lin: Linear, guard: Optional[Atom]):
        terms = tuple((coef, self.slot_of[v]) for coef, v in lin.terms if coef != 0)
        slots = [s for _, s in terms] + ([guard[0]] if guard else [])
        if lin.op in ("<=", "=="):
            self._register((Engine._prop_lin, cid, guard, terms, lin.rhs), slots)
        if lin.op in (">=", "=="):
            neg = tuple((-c, s) for c, s in terms)
            self._register((Engine._prop_lin, cid, guard, neg, -lin.rhs), slots)
        if lin.op == "!=":
            self._register((Engine._prop_linne, cid, guard, terms, lin.rhs), slots)

    def _compile_disjunction(self, cid: str, e: Disjunction):
        members = disjuncts(e)
        if len(members) == 1:
            self._compile(cid, members[0])
        elif all(isinstance(m, AtomicConstraint) for m in members):
            self._add_clause(cid, (self.atom_of(m) for m in members))
        else:
            sels = [self._add_slot(Domain(0, 1)) for _ in members]
            for s, m in zip(sels, members):
                self._compile(cid, m, guard=(s, "==", 1))
            self._add_clause(cid, ((s, ">=", 1) for s in sels))

    # --- domain state ------------------------------------------------------

    def status(self, atom: Atom) -> Optional[bool]:
        vi, op, val = atom
        lb, ub = self.lb[vi], self.ub[vi]
        if op == ">=":
            return True if lb >= val else (False if ub < val else None)
        if op == "<=":
            return True if ub <= val else (False if lb > val else None)
        in_dom = lb <= val <= ub and val not in self.holes[vi]
        if op == "==":
            return True if lb == ub == val else (None if in_dom else False)
        return False if lb == ub == val else (True if not in_dom else None)

    def justify_bound(self, side: int, vi: int, t: int) -> list[int]:
        """Entries entailing vi >= t (side 0) or vi <= t (side 1); the bound must hold.

        The oldest record at least as tight as t, then the records its slides rest on.
        """
        hist = self.hist[side][vi]
        k = 0
        if side:
            while hist[k][1] > t:
                k += 1
        else:
            while hist[k][1] < t:
                k += 1
        out = []
        while True:
            kind, _, e = hist[k]
            if e >= 0:
                out.append(e)
            if kind == "b":
                return out
            k -= 1

    def justify_false(self, atom: Atom) -> list[int]:
        """Entries entailing that the atom is false, which it must be."""
        vi, op, val = atom
        if op == "<=" or (op == "==" and val < self.lb[vi]):
            return self.justify_bound(0, vi, val + 1)
        if op == ">=" or (op == "==" and val > self.ub[vi]):
            return self.justify_bound(1, vi, val - 1)
        if op == "==":  # a removed value inside the bounds
            e = self.holes[vi][val]
            return [] if e < 0 else [e]
        return self.justify_bound(0, vi, val) + self.justify_bound(1, vi, val)

    # --- trail -------------------------------------------------------------

    def apply(self, atom: Atom, reason: Optional[tuple]):
        """Apply an atomic domain change; returns the Conflict if the atom is false."""
        vi, op, val = atom
        st = self.status(atom)
        if st is True:
            return None
        if st is False:
            if reason is None:
                raise AssertionError("decision on a falsified atom")
            key, premises = reason
            step_atoms = (atom,) + tuple(
                _negate_atom(self.t_atom[q]) for q in _stable_unique(premises))
            entries = list(premises) + self.justify_false(atom)
            return Conflict(_stable_unique(entries), key, step_atoms)
        e = len(self.t_atom)
        self.t_atom.append(atom)
        self.t_level.append(self.level)
        self.t_reason.append(reason)
        self.t_effects.append([])
        for idx in self.watch[vi]:
            self._enqueue(idx)
        if op == ">=":
            self._tighten(0, vi, val, "b", e)
        elif op == "<=":
            self._tighten(1, vi, val, "b", e)
        elif op == "==":
            self._tighten(0, vi, val, "b", e)
            self._tighten(1, vi, val, "b", e)
        elif val == self.lb[vi]:  # != at a bound slides that bound
            self._tighten(0, vi, val + 1, "s", e)
        elif val == self.ub[vi]:
            self._tighten(1, vi, val - 1, "s", e)
        else:
            self.t_effects[e].append(("hole", vi, val))
            self.holes[vi][val] = e
        if self.log_all and reason is not None:
            self._step_for_entry(e)
        return None

    def _tighten(self, side: int, vi: int, v: int, kind: str, entry: int):
        """Move bound `side` of vi to v as a `kind` record of trail entry
        `entry`, then slide it past every removed value it lands on."""
        hist = self.hist[side][vi]
        self.t_effects[entry].append((side, vi, len(hist)))
        hist.append((kind, v, entry))
        holes = self.holes[vi]
        step = -1 if side else 1
        while v in holes:
            hist.append(("s", v + step, holes[v]))
            v += step
        self.bound[side][vi] = v

    def backtrack_to(self, level: int):
        target = self.level_start[level + 1]
        while len(self.t_atom) > target:
            e = len(self.t_atom) - 1
            for tag, vi, x in reversed(self.t_effects.pop()):
                if tag == "hole":
                    del self.holes[vi][x]
                else:
                    hist = self.hist[tag][vi]
                    del hist[x:]
                    self.bound[tag][vi] = hist[-1][1]
            self.entry_step.pop(e, None)
            self.t_atom.pop()
            self.t_level.pop()
            self.t_reason.pop()
        del self.level_start[level + 1:]
        self.level = level
        # only the unprocessed tail of the queue can still be flagged
        for idx in self.queue[self.qhead:]:
            self.in_queue[idx] = False
        self.queue.clear()
        self.qhead = 0

    # --- propagators ---------------------------------------------------------

    def _propagate(self) -> Optional[Conflict]:
        while self.qhead < len(self.queue):
            idx = self.queue[self.qhead]
            self.qhead += 1
            self.in_queue[idx] = False
            p = self.props[idx]
            conflict = p[0](self, p)
            if conflict is not None:
                return conflict
        self.queue.clear()
        self.qhead = 0
        return None

    def _prop_clause(self, p) -> Optional[Conflict]:
        _, key, atoms, hint = p
        if hint is not None:
            # a true atom or two undecided ones leave nothing to do; only the
            # scan below can find a unit or a conflict
            st0 = self.status(atoms[hint[0]])
            if st0 is True:
                return None
            st1 = self.status(atoms[hint[1]])
            if st1 is True or (st0 is None and st1 is None):
                return None
        unit = None
        for i, a in enumerate(atoms):
            st = self.status(a)
            if st is True:
                if hint is not None:
                    # neither hinted atom is true, so i differs from hint[0]
                    hint[:] = (i, hint[0])
                return None
            if st is None:
                if unit is not None:
                    hint[:] = (unit_at, i)
                    return None
                unit, unit_at = a, i
        if unit is None:
            entries = []
            for a in atoms:
                entries.extend(self.justify_false(a))
            return Conflict(_stable_unique(entries), key, atoms)
        premises = []
        for a in atoms:
            if a != unit:
                premises.extend(self.justify_false(a))
        return self.apply(unit, (key, tuple(_stable_unique(premises)) if premises else ()))

    def _prop_lin(self, p) -> Optional[Conflict]:
        # sum(coef*var) <= rhs, optionally under an atomic guard
        _, cid, guard, terms, rhs = p
        gst = True if guard is None else self.status(guard)
        if gst is False:
            return None
        smin = 0
        for coef, s in terms:
            smin += coef * (self.lb[s] if coef > 0 else self.ub[s])
        if gst is not True:
            if smin <= rhs:
                return None
            premises = self._lin_premises(terms, None)
            return self.apply(_negate_atom(guard), (cid, tuple(_stable_unique(premises))))
        if smin > rhs and not terms:
            # degenerate constant constraint: cite it from the conclusion
            return Conflict((), cid, ())
        # a violated sum makes the first term's bound conflict, so the violated
        # step derives a nonempty clause even with all-root premises
        for coef, s in terms:
            contrib = coef * (self.lb[s] if coef > 0 else self.ub[s])
            slack = rhs - (smin - contrib)
            if coef > 0:
                bound = slack // coef
                if bound < self.ub[s]:
                    r = self.apply((s, "<=", bound), self._lin_reason(cid, guard, terms, s))
                    if r is not None:
                        return r
            else:
                bound = -(slack // -coef)
                if bound > self.lb[s]:
                    r = self.apply((s, ">=", bound), self._lin_reason(cid, guard, terms, s))
                    if r is not None:
                        return r
        return None

    def _lin_reason(self, cid, guard, terms, skip):
        premises = self._lin_premises(terms, skip)
        if guard is not None:
            premises = self.justify_false(_negate_atom(guard)) + premises
        return (cid, tuple(_stable_unique(premises)))

    def _lin_premises(self, terms, skip) -> list[int]:
        out: list[int] = []
        for coef, s in terms:
            if s != skip:
                side = coef < 0
                out.extend(self.justify_bound(side, s, self.bound[side][s]))
        return out

    def _prop_linne(self, p) -> Optional[Conflict]:
        _, cid, guard, terms, rhs = p
        gst = True if guard is None else self.status(guard)
        if gst is False:
            return None
        unfixed = [(coef, s) for coef, s in terms if self.lb[s] != self.ub[s]]
        if len(unfixed) > 1:
            return None
        rem = rhs - sum(coef * self.lb[s] for coef, s in terms if self.lb[s] == self.ub[s])
        cited = terms
        if unfixed:
            coef, s = unfixed[0]
            if gst is not True or rem % coef != 0:
                return None
            target = (s, "!=", rem // coef)
        elif rem != 0:
            return None
        elif gst is not True:
            target = _negate_atom(guard)
        elif not terms:
            return Conflict((), cid, ())
        else:
            # pivot: derive the first variable's exclusion so the violated
            # step is a nonempty clause
            s = terms[0][1]
            target = (s, "!=", self.lb[s])
            cited = terms[1:]
        premises = (self.justify_false(_negate_atom(guard))
                    if gst is True and guard is not None else [])
        for _, s in cited:
            if self.lb[s] == self.ub[s]:
                premises += self.justify_bound(0, s, self.lb[s]) + self.justify_bound(1, s, self.ub[s])
        return self.apply(target, (cid, tuple(_stable_unique(premises))))

    def _prop_alldiff(self, p) -> Optional[Conflict]:
        _, cid, slots = p
        lb, ub, holes = self.lb, self.ub, self.holes
        for s in slots:
            if lb[s] != ub[s]:
                continue
            v = lb[s]
            premises = None
            for t in slots:
                # a slot that already excludes v would make apply do nothing
                if t == s or v < lb[t] or v > ub[t] or v in holes[t]:
                    continue
                if premises is None:
                    premises = tuple(_stable_unique(
                        self.justify_bound(0, s, v) + self.justify_bound(1, s, v)))
                r = self.apply((t, "!=", v), (cid, premises))
                if r is not None:
                    return r
        return None

    # --- proof logging -------------------------------------------------------

    def _step_for_entry(self, e: int) -> int:
        """Emit (once) the inference step justifying trail entry e; returns its 1-based id."""
        if e in self.entry_step:
            return self.entry_step[e]
        reason = self.t_reason[e]
        if reason is None:
            raise AssertionError("decisions have no justifying step")
        key, premises = reason
        if isinstance(key, int):  # propagated by a nogood: its own step
            sid = key
        else:
            atoms = (self.t_atom[e],) + tuple(
                _negate_atom(self.t_atom[q]) for q in _stable_unique(premises))
            self.steps.append(EngineStep(atoms, (key,)))
            sid = len(self.steps)
        self.entry_step[e] = sid
        return sid

    # --- conflict analysis -----------------------------------------------------

    def _analyze(self, conflict: Conflict):
        """(conflict level, entries of the learned nogood, its reasons); at
        level 0 no entries remain and the reasons are the conclusion's."""
        key = conflict.key
        if isinstance(key, str) and conflict.step_atoms:
            # a violated input constraint: its inference is the first reason
            self.steps.append(EngineStep(conflict.step_atoms, (key,)))
            key = len(self.steps)
        # a nogood's key is its own step; an input constraint false on its
        # own is cited by the conclusion directly, not through an empty clause
        reasons: list[Key] = [key]
        cc: dict[int, None] = dict.fromkeys(conflict.entries)

        def expand(e: int):
            del cc[e]
            sid = self._step_for_entry(e)
            if sid not in reasons:
                reasons.append(sid)
            for q in self.t_reason[e][1]:
                cc.setdefault(q)

        clevel = max((self.t_level[e] for e in cc), default=0)
        if clevel == 0:
            expandable = [e for e in cc if self.t_reason[e] is not None]
            while expandable:
                expand(max(expandable))
                expandable = [e for e in cc if self.t_reason[e] is not None]
            if cc:
                raise AssertionError("unexpandable root entries")
        else:
            at_level = [e for e in cc if self.t_level[e] == clevel]
            while len(at_level) > 1:
                expand(max(at_level))
                at_level = [e for e in cc if self.t_level[e] == clevel]
        return clevel, sorted(cc), reasons

    # --- search ------------------------------------------------------------------

    def solve(self) -> EngineResult:
        if any(lo > hi for lo, hi in zip(self.lb, self.ub)):  # an empty domain
            self.steps.append(EngineStep(()))
            return EngineResult("unsat", steps=self.steps, conflicts=self.conflicts)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self.conflicts > self.budget:
                    return EngineResult("budget", conflicts=self.conflicts)
                clevel, cc_entries, reasons = self._analyze(conflict)
                if clevel == 0:
                    # step ids before constraint ids, as `c UNSAT` prints them
                    reasons.sort(key=lambda r: isinstance(r, str))
                    self.steps.append(EngineStep((), tuple(reasons)))
                    return EngineResult("unsat", steps=self.steps,
                                        used_cids=self._used_cids(), conflicts=self.conflicts)
                nogood_atoms = tuple(_negate_atom(self.t_atom[e]) for e in cc_entries)
                self.steps.append(EngineStep(nogood_atoms, tuple(reasons)))
                self.backtrack_to(clevel - 1)
                self._add_clause(len(self.steps), nogood_atoms)
                continue
            vi = self._pick_var()
            if vi is None:
                assignment = {v: self.lb[s] for v, s in self.slot_of.items()}
                return EngineResult("sat", assignment=assignment, steps=self.steps,
                                    conflicts=self.conflicts)
            self.level += 1
            self.level_start.append(len(self.t_atom))
            self.apply((vi, "==", self.lb[vi]), None)

    def _pick_var(self) -> Optional[int]:
        for s in range(len(self.lb)):
            if self.lb[s] != self.ub[s]:
                return s
        return None

    def _used_cids(self) -> frozenset:
        used: set[str] = set()
        seen: set[int] = set()
        stack = list(self.steps[-1].reasons)
        while stack:
            key = stack.pop()
            if isinstance(key, str):
                used.add(key)
            elif key not in seen:
                seen.add(key)
                stack.extend(self.steps[key - 1].reasons)
        return frozenset(used)


def _negate_atom(atom: Atom) -> Atom:
    vi, op, val = atom
    if op == "<=":
        return (vi, ">=", val + 1)
    if op == ">=":
        return (vi, "<=", val - 1)
    return (vi, "!=" if op == "==" else "==", val)


def _stable_unique(seq) -> list:
    return list(dict.fromkeys(seq))
