"""Finite-domain search engine: propagation, chronological backtracking and
nogood learning over atomic constraints, with optional proof logging.

An Engine runs one solve, or a series of proof-free solves from a kept root
(below). The trail records every domain event as an atomic constraint
together with its reason, from which `premises` gives the trail entries
that premised it, so conflict analysis can resolve backwards and emit
inference/nogood steps on demand. Only conflict-participating propagations
are logged unless log_all is set.

With `proof=False`, as in every oracle call (only the prover logs a proof),
the engine logs no proof: conflict analysis computes only the conflict level
and the learned nogood's entries (no steps, no reasons), a root conflict
ends the solve as unsat without being resolved, and the result has no steps.
The learned nogood also leaves out the root entries (trail indices below
`level_start[1]`), as MiniSat drops level-0 literals from a learned clause:
search never backtracks below the root, so the negations of those entries
stay false for the whole solve, and without them the nogood is unit or
violated exactly when it would be with them, while it watches, scans and
justifies fewer atoms. With proof logging they stay: a nogood line must
follow by reverse unit propagation from the steps it cites, and conflict
analysis cites no step for a root entry that it leaves unexpanded. Every
key is still stored but never read, so a nogood is registered under key 0.

Proof-free nogoods also list their atoms newest first, in reverse trail
order. A wake-up reads the atoms in order, and the undecided or true ones
are the newest, as backjumps pop the newest entries first, so the read
stops sooner. The look order never changes the answer (below), and
proof-free analysis reads premises as a set, so only the order of a unit's
premises changes, not the search.

A nogood that watches fewer slots wakes less often, so it can run at
another point of the queue, and that can reorder propagation: the trail,
the nogoods, the model and the conflict count may differ from a
proof-logging run, and only a sat or unsat verdict is sure to match. They
are the same whenever the proof-logging run learns no nogood with a root
entry, because the resolution that picks the nogood's entries does not
depend on the steps.

The root slot state of a variable set is a `RootSlots`, which an engine
copies; `Oracle` builds one per variable set and reuses it on every call.
`add_cached` is `add_constraint` with a compile cache that engines over the
same root slots share: an expression compiled once is registered again from
its cached propagators, in the same order, with the same watches, under the
new constraint id and with fresh alldifferent done sets, so the engine is
the one that compiling it anew would give, keys included. An expression
whose compile adds selector slots is not cached, so slot numbering stays as
it was.

A reason key is what a proof line cites: the id (a str) of the input
constraint that propagated, or the 1-based step id (an int) of the nogood
whose clause did, since each learned nogood is registered under its own
step. A trail reason is (key, premise entries), or a marker (below), and a
Conflict carries the key of the violated clause or constraint. A step is
(atoms, reasons): an inference cites its one constraint id, a nogood the
step ids it resolves, and the conclusion (no atoms) its step ids, then any
constraint that is false on its own.

Two kinds of trail entry keep a marker instead of their premises, in both
proof modes: an alldifferent removal keeps `(_prop_alldiff, key, s)`, s the
slot whose fix it spreads (one marker for all that a run spreads from s), and
a clause or nogood unit keeps its clause's own propagator tuple,
`(_prop_clause, key, atoms)`, so pushing a unit makes no object.
`premises(e)` builds a marker's premises the first time conflict analysis, a
logged step (`_step_for_entry`) or a test reads them, as lazy explanations
do (Gent, Miguel & Moore, PADL 2010), and stores them on the entry as
(key, premises); a Conflict's entries are still built at once. Most are
never read: in one `sudoku9-minloc` benchmark pass, 38,613 of 187,531
marker entries are built, 6,921 of them of 20,677 units.

A late build is exact: while entry e is on the trail, it gives the
premises that its propagator would have built when it pushed e. Domains
only shrink while e stays, and every history record made before e stays.
So the alldifferent's slot s stays fixed at the removed value, and
`justify_bound`, which answers from the oldest record at least as tight as
asked, answers from the same record. `justify_false` tests the current
bounds before the holes, and so answers otherwise in one case only: an `==`
atom that was false at the push through a hole inside the bounds, whose
value a bound has passed since. The bound's `justify_bound` list then holds
the entry that moved the bound, e or a later one, since the walk back from
a slide record reaches the record that began that move; had the bound
passed the value before the push, every entry of the list would be older
than e. So `_justify_false_at` cites the hole's entry, as the push did,
when the list's newest entry is at least e. The list itself would cite an
entry no older than the unit.

The premise entries of every trail reason are duplicate-free: each
propagator, and `premises` for a marker, deduplicates them
(`_stable_unique`), or takes them from one `justify_bound` list, which never
repeats an entry (below). So a logged step (`_step_for_entry`, and the
violated step of `apply`) negates the premises as they are, without a
second pass.

Bounds are kept per side: side 0 is the lower bound (`lb`), side 1 the upper
bound (`ub`), and one code path serves both sides (`_tighten`,
`justify_bound`, `backtrack_to`). Each side of each variable has an
append-only history, oldest first, that starts with the root bound, so its
last record always holds the current bound and backtracking truncates it. A
("b", value, entry) record means trail entry `entry` applied an atom that
alone entails the bound `value`. A ("s", value, entry) record means the bound
slid one value, past the value that `entry` removed (-1 for a root hole), so
it also rests on the record before it. A `justify_bound` list walks such
records back to a "b" record: each "s" record's entry removed another value,
and the "b" record's entry is no removal, so the list repeats no entry. A
fixed slot's premises (`_fixed_premises`) are both its bounds' lists, and
when one `==` entry fixed the slot they are the same one-entry list, cited
once; only lists that differ are deduplicated.

Whatever a trail entry changes is an undo record in one log, `undo`, oldest
first: a history record appended, a value removed inside the bounds, and
the sleeps and done slots below. `t_undo[e]` marks where entry e's records
start, so every record belongs to the newest entry pushed before it.
`_undo_to` pops the records of all the entries it pops in one pass, newest
first, and truncates the log.

One function, `_compile`, lowers every expression; an atom compiles as a
one-atom clause. A disjunction (nested ones spliced in) that is not a plain
clause gets one selector slot per member and a cover clause; each member
compiles under the guard `selector == 1`, where an atom or a clause gains
the negated guard as a literal and a linear becomes half-reified. `_compile`
tests for a `Linear` first, since a decomposed alldifferent is nothing else,
and `_compile_linear` computes the watched slots once (`tuple(set(...))`,
the order `_register` gives) and installs its one or two propagators
directly.

Each registered propagator is a tuple whose first item is its plain
`Engine._prop_*` function, called as `p[0](self, p)`. A bound method there
would make every engine a reference cycle that only the cyclic collector
frees. `apply` and every propagator return the Conflict they hit, or None; a
propagator may also return SLEEP (below).

Propagation strength: bounds reasoning for linear sums, unit propagation for
clauses, value-based pairwise pruning for alldifferent, guard/body reasoning
for half-reified linears. Search is complete, so weak propagation only costs
nodes, never soundness.

One path writes the trail: `_push` puts an undecided atom on it, wakes the
idle watchers of its variable, tightens a bound or removes a value, and
then, if that left the variable fixed, wakes its idle fix watchers (each
a `_prop_ne_pair`, below). `apply` is the status test in front of
it. Only alldifferent skips that test, for a removal that it has checked
lies inside the domain of an unfixed slot.

The two hottest propagators skip work whose result is already known.
Alldifferent skips every removal that is already in place (the other slot
excludes the value) and justifies a fixed slot only before its first real
removal. A clause or nogood reads its atoms in order (a proof-free nogood
newest first, above) and stops at the first true atom or the second
undecided one: either way it can neither propagate nor fail. Only a unit or
a conflict reads every atom: a conflict then collects its entries in a
second in-order pass, and a unit leaves them to `premises`. A clause holds
no state of its own; every variable of it wakes it,
so unlike the two watched literals of Chaff and MiniSat a look order could
only change which atoms are read, never the answer: the clause does nothing
when some atom is true or two are undecided, propagates its one undecided
atom, or fails when all are false, whatever order the atoms are read in.
Sleeping (below) spares most of the reads, and proof-free nogoods are short,
so remembering positions between wake-ups, as MiniSat does, does not pay
here.

A propagator that can do nothing more until the search backtracks returns
SLEEP (the "subsumption" of Schulte and Stuckey's propagation engines): a
clause with a true atom, found or just propagated; a linear whose guard is
false, or made false by it; a linear `!=` whose guard is false, whose fixed
terms already satisfy it (all fixed at another sum, or a last unfixed term
whose coefficient does not divide the rest), whose target value is already
removed, or that it has just enforced. `_propagate` then leaves its
`in_queue` flag set, at 2, so `_push` never queues it, and appends a
("wake", propagator, 0) record to the undo log, where it belongs to the
newest trail entry: popping that entry clears the flag. With an empty trail
no record is made and the propagator sleeps for good (and a done slot,
below, stays done). If it queued itself while it ran (a clause
applying its unit watches that atom's variable), that queue entry is
skipped. In the same way alldifferent marks a fixed slot done once every
other slot excludes its value, with a ("done", done set, slot) record in the
log, and skips done slots; the done set of each alldifferent is per engine,
the only propagator state that is.

Both are exact. What puts a propagator to sleep or a slot in the done set
holds on the trail up to the newest entry, and domains only shrink until
that entry is popped; while it holds, a run would return before it changes
anything (a run of a done slot would find every removal in place). So
every skipped run is one that would have done nothing, the effective runs
come in the same order, and the trail, the learned nogoods, the conflict
count and the logged proofs stay byte-identical.

A kept root serves `oracle.GrowSession`, whose probes each add one
constraint to a fixed set. `switch` turns a range of propagators off or on.
An off propagator has flag 3: `_push` never queues it, and `_propagate`
skips it if it was left in the queue. A wake record clears only a sleeper's
flag (2 to 0), so popping an entry that an off propagator once slept on
leaves it off. `undo_root(mark)` goes back to the root and pops root
entries until `mark` are left, emptying the queue, and `drop_props(n)`
unregisters the nogoods learned since there. A proof-free solve from a root
at its propagation fixpoint returns what a fresh engine over the
switched-on constraints, in the same order, returns: the same status,
assignment and conflict count.

- The root domains are the same whatever order the propagators ran in, and
  so is whether the root fails: the fixpoint of monotone propagators is
  unique.
- At a fixpoint, which propagators sleep and which alldifferent slots are
  done depends only on the domains; and a skipped run would do nothing.
- A proof-free solve never reads a root entry's reason, and its nogoods
  leave root entries out, so how the root entries came about changes no
  search entry, decision or nogood.
- The switched-on propagators keep the relative order a fresh engine gives
  them, in registration and in every watch list, and an off one is never
  queued. `switch` queues a fix watcher even with no slot of it fixed,
  where a fresh engine does not, and that run returns None.
- A fresh engine has no selector slots for an off member, and search skips
  them here (below), as only the member's off propagators watch them.

Only the root trail can differ: its entries, and values outside the bounds
left in `holes`, which every hole test reads only after a bound test.

A linear `!=` can act only once at most one of its terms is unfixed. So
its general pass, `_prop_linne`, makes one pass over its terms, subtracting
each fixed term from the right-hand side as it goes, and returns at the
second unfixed term it meets; the sum it acts on is the one a full pass
would give. `_prop_linne` runs every linear `!=` that is guarded or does
not have two terms.

An unguarded two-term `!=`, `c1*x + c2*y != rhs`, which is what
`decompose_alldiff` emits (972 per sudoku9 model), is a pair: its
propagator, `_prop_ne_pair`, is the flat tuple `(fn, cid, c1, s1, c2, s2,
rhs)`, with no term tuples, so a pair costs two tracked tuples, itself and
its watched slots. `_compile_linear` builds it on its direct path, and on
its general path for the same constraint with a zero term added, with the
same watched slots. `_prop_ne_pair` is the general pass with each slot's
bounds read once. It is exact: with no guard the pass's guard tests all
hold, and with two terms it has four cases, each answered as the pass
answers it. Neither fixed: None. One fixed: SLEEP when the other's
coefficient does not divide what is left, or its value is already
removed; else that value is removed with the fixed slot's bound entries
as premises. Both fixed at another sum: SLEEP. Both fixed at rhs: the
pivot on the first term (`x != x's value`) from the second term's bound
entries. `tests/test_engine_fuzz.py` checks it against an engine that runs
every linear `!=` through the general pass.

So a pair wakes only on a fix, the fix event of Schulte and Stuckey's
propagation engines. `_install` puts it in its slots'
`fix_watch` lists, not in `watch`, and queues it only when one of them is
already fixed; `_push` wakes it only when it has fixed one of its slots,
after the slot's other watchers (`add_cached` registers it the same way).
This is sound: any run with neither slot fixed returns None, and every
other case sleeps or fails, so each wake-up it no longer gets would have
done nothing. A run that acts comes at another point of the queue, though,
so trails and proofs of models with such a constraint change, and only
verdicts are sure to match an engine that wakes it on every event
(`tests/test_engine_fuzz.py` checks both). One pass of the `sudoku9-proof`
benchmark workload runs them 141,435 times, each run acting or sleeping,
against 347,433 runs on every event, 205,373 of which did nothing.

Search decides the first unfixed slot that an idle propagator watches (a
fix watcher too), `slot == lb`, on a level of its own, looking on from the
current level's decision slot, `t_atom[level_start[level]][0]`: every slot
before it was fixed or skipped when that decision was made. A slot that no
idle propagator watches is skipped, with no level or trail entry. This is
sound. Its watchers are asleep, so satisfied by any values left, or off,
so not part of the problem, and a Sat result reads its `lb`; a nogood
learned later follows from the constraints. They sleep on entries no newer
than the level whose scan skipped it, so a backjump that wakes one pops
the decision that scan looked on from, and the next scan looks at the slot
again. Skipping moves levels, and so conflict cuts, nogoods and backjumps:
search is not trail-identical to deciding every slot, and only its
verdicts are the same (`tests/test_skipped_slots.py`).

Levels only grow along the trail, so the conflict level is the level of
the newest conflict entry, `bisect_right(level_start, newest) - 1`, and no
entry stores its level. Conflict analysis expands, while more than one
conflict entry is at the
conflict level (at the root: while any entry has a reason), the latest such
entry. Expanding an entry adds only earlier ones, so this is one descending
walk over the trail, and the steps it logs come in the same order.

Backtracking is chronological: after a conflict at level L the search
goes back to level L - 1 and registers the learned nogood there, where it
propagates its unit and sleeps on that entry, though its other atoms may
have been false since a lower level. A later, deeper backtrack that keeps
them false pops the unit and the wake record with it: the nogood is idle
and unit again, but popping queues nothing, so it stays idle until an
event on one of its variables wakes it. That misses a propagation, which
is sound (the search stays complete, and the nogood still fails any
assignment it forbids), but the search can then repeat the conflict it
learned the nogood from.
"""

from __future__ import annotations

from bisect import bisect_right
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
Key = Union[str, int]  # a constraint id or a 1-based step id; also the proof's ReasonRef

DEFAULT_BUDGET = 10**6  # conflicts per solve

# a propagator's answer "nothing to do until a backtrack below this point"
SLEEP = object()


@dataclass(slots=True)
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
    conflicts: int = 0


class Conflict:
    """A violated clause: `entries` falsify every literal of `step_atoms`."""

    __slots__ = ("entries", "key", "step_atoms")

    def __init__(self, entries, key, step_atoms):
        self.entries = entries          # trail indices
        self.key = key                  # reason key of the violated constraint or nogood
        self.step_atoms = step_atoms    # literals of the violated clause (None: no proof logging)


class RootSlots:
    """The root slot state of a variable set: one slot per variable, in order.

    Built once and copied into each `Engine` over the same variables; only
    `slot_of` is shared, since no engine changes it."""

    __slots__ = ("slot_of", "lb", "ub", "holes", "roots")

    def __init__(self, vars_domains: Sequence[tuple[VarId, Domain]]):
        self.slot_of: dict[VarId, int] = {v: s for s, (v, _) in enumerate(vars_domains)}
        doms = [d for _, d in vars_domains]
        self.lb: list[int] = [d.lower for d in doms]
        self.ub: list[int] = [d.upper for d in doms]
        self.holes: list[dict[int, int]] = [dict.fromkeys(d.holes, -1) for d in doms]
        # the first history record of each side of each slot
        self.roots = tuple([("b", x, -1) for x in bound] for bound in (self.lb, self.ub))


class Engine:
    def __init__(self, vars_domains: Union[RootSlots, Sequence[tuple[VarId, Domain]]],
                 budget: int = DEFAULT_BUDGET, log_all: bool = False, proof: bool = True):
        root = vars_domains if isinstance(vars_domains, RootSlots) else RootSlots(vars_domains)
        self.lb: list[int] = root.lb.copy()
        self.ub: list[int] = root.ub.copy()
        self.bound = (self.lb, self.ub)
        # value -> entry that removed it (-1: root)
        self.holes: list[dict[int, int]] = [h.copy() for h in root.holes]
        # per side, per variable: (kind, value, entry) records, see the module docstring
        self.hist: tuple[list[list[tuple[str, int, int]]], ...] = tuple(
            [[r] for r in side] for side in root.roots)
        self.watch: list[list[int]] = [[] for _ in root.lb]
        # per slot: the pairs (`_prop_ne_pair`), woken only when it is fixed
        self.fix_watch: list[list[int]] = [[] for _ in root.lb]
        self.slot_of: dict[VarId, int] = root.slot_of
        self.budget = budget
        self.log_all = log_all
        self.proof = proof  # False: no steps at all, so no log_all either

        self.t_atom: list[Atom] = []
        # None: a decision; else (key, premise entries), or a marker whose
        # premises `premises` builds when they are first read
        self.t_reason: list[Optional[tuple]] = []
        self.t_undo: list[int] = []  # per entry: where its records start in `undo`
        self.undo: list[tuple] = []  # the undo records of every entry, oldest first
        self.level = 0
        self.level_start: list[int] = [0]

        self.props: list[tuple] = []  # (propagator function, its key, its arguments...)
        self.prop_slots: list[tuple[int, ...]] = []  # the slots each propagator watches
        self.queue: list[int] = []
        self.qhead = 0
        self.in_queue: list[int] = []  # per propagator: 0 idle, 1 queued, 2 asleep, 3 off

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
        self.fix_watch.append([])
        return len(self.lb) - 1

    def atom_of(self, a: AtomicConstraint) -> Atom:
        return (self.slot_of[a.var], a.op, a.value)

    def add_constraint(self, cid: str, e: Expr):
        """Compile an expression into primitive propagators registered under cid."""
        self._compile(cid, e)

    def add_cached(self, cache: dict[int, tuple], cid: str, e: Expr):
        """`add_constraint(cid, e)`, registering the propagators in `cache`
        when an engine over the same root slots compiled e before. The cache
        maps id(e) to (e, its (propagator, watched slots, woken only on a
        fix) triples); the entry pins e, so that its id is not reused. Each
        propagator is registered under cid, and each alldifferent with a
        fresh done set, the only mutable part of any propagator."""
        hit = cache.get(id(e))
        if hit is None:
            n_props, n_slots = len(self.props), len(self.lb)
            self.add_constraint(cid, e)
            if len(self.lb) == n_slots:
                cache[id(e)] = (e, [(p, slots, _on_fix(p)) for p, slots in
                                    zip(self.props[n_props:], self.prop_slots[n_props:])])
            return
        for prop, slots, on_fix in hit[1]:
            if prop[0] is Engine._prop_alldiff:
                prop = (prop[0], cid, prop[2], set())
            else:
                prop = (prop[0], cid) + prop[2:]
            self._install(prop, slots, on_fix)

    def switch(self, props: range, on: bool):
        """Switch the propagators in props on (queued, in order) or off. An
        off propagator is never queued or woken."""
        self.in_queue[props.start:props.stop] = [1 if on else 3] * len(props)
        if on:
            self.queue.extend(props)

    def drop_props(self, n: int):
        """Unregister the propagators from index n on, all of them learned
        nogoods; no queue entry or trail entry may refer to them."""
        for idx in range(len(self.props) - 1, n - 1, -1):
            for s in self.prop_slots[idx]:
                self.watch[s].pop()  # the last one registered, so the last watch
        del self.props[n:], self.prop_slots[n:], self.in_queue[n:]

    def _register(self, prop: tuple, var_slots):
        self._install(prop, tuple(set(var_slots)))

    def _install(self, prop: tuple, slots: tuple, on_fix: bool = False):
        """Register prop over its watched slots and queue it; with on_fix,
        it watches them for a fix only, and is queued only when one is
        already fixed (see the module docstring)."""
        idx = len(self.props)
        self.props.append(prop)
        self.prop_slots.append(slots)
        queued = 1
        if on_fix:
            lb, ub, fix_watch = self.lb, self.ub, self.fix_watch
            queued = 0
            for s in slots:
                fix_watch[s].append(idx)
                if lb[s] == ub[s]:
                    queued = 1
        else:
            watch = self.watch
            for s in slots:
                watch[s].append(idx)
        self.in_queue.append(queued)
        if queued:
            self.queue.append(idx)

    def _add_clause(self, key: Key, atoms):
        atoms = tuple(atoms)
        if len(atoms) > 1:  # skipped for the most frequent clause, a single atom
            atoms = tuple(dict.fromkeys(atoms))
        self._register((Engine._prop_clause, key, atoms), [a[0] for a in atoms])

    def _compile(self, cid: str, e: Expr, guard: Optional[Atom] = None):
        """Register e under cid; with a guard atom, register guard => e."""
        if isinstance(e, Linear):  # first: a decomposed alldifferent is all linears
            self._compile_linear(cid, e, guard)
        elif isinstance(e, (AtomicConstraint, Clause)):
            atoms = tuple(map(self.atom_of, e.atoms if isinstance(e, Clause) else (e,)))
            self._add_clause(cid, atoms if guard is None else (_negate_atom(guard),) + atoms)
        elif isinstance(e, Conjunction):
            for m in e.members:
                self._compile(cid, m, guard)
        elif guard is not None:
            raise FlattenError(f"cannot guard {type(e).__name__} inside a disjunction")
        elif isinstance(e, AllDifferent):
            slots = tuple(self.slot_of[v] for v in e.vars)
            self._register((Engine._prop_alldiff, cid, slots, set()), slots)
        elif isinstance(e, HalfReified):
            self._compile_linear(cid, e.then, self.atom_of(e.guard))
        elif isinstance(e, Disjunction):
            self._compile_disjunction(cid, e)
        else:
            raise FlattenError(f"engine cannot compile {type(e).__name__}")

    def _compile_linear(self, cid: str, lin: Linear, guard: Optional[Atom]):
        slot_of = self.slot_of
        if guard is None and lin.op == "!=" and len(lin.terms) == 2:
            # all that `decompose_alldiff` emits: what the general path below
            # registers for it, built directly
            (c1, x), (c2, y) = lin.terms
            if c1 and c2:
                s1, s2 = slot_of[x], slot_of[y]
                self._install((Engine._prop_ne_pair, cid, c1, s1, c2, s2, lin.rhs),
                              tuple({s1, s2}), True)
                return
        terms, slots = [], []
        for coef, v in lin.terms:
            if coef != 0:
                s = slot_of[v]
                terms.append((coef, s))
                slots.append(s)
        terms = tuple(terms)
        if guard:
            slots.append(guard[0])
        # the watch order `_register` gives, computed once for both sides of ==
        slots = tuple(set(slots))
        if lin.op in ("<=", "=="):
            self._install((Engine._prop_lin, cid, guard, terms, lin.rhs), slots)
        if lin.op in (">=", "=="):
            neg = tuple((-c, s) for c, s in terms)
            self._install((Engine._prop_lin, cid, guard, neg, -lin.rhs), slots)
        if lin.op == "!=":
            if guard is None and len(terms) == 2:
                (c1, s1), (c2, s2) = terms
                self._install((Engine._prop_ne_pair, cid, c1, s1, c2, s2, lin.rhs), slots, True)
            else:
                self._install((Engine._prop_linne, cid, guard, terms, lin.rhs), slots)

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

    def _justify_false_at(self, atom: Atom, e: int) -> list[int]:
        """What `justify_false(atom)` answered just before trail entry e was
        pushed, for an atom false since then; e must still be on the trail.
        Only an `==` atom that was false through a hole, and whose value a
        bound has passed since (at entry e or later), gets another answer
        now: the hole's entry (see the module docstring)."""
        out = self.justify_false(atom)
        vi, op, val = atom
        if op == "==" and out and max(out) >= e:
            hole = self.holes[vi].get(val)
            if hole is not None:
                return [] if hole < 0 else [hole]
        return out

    def _fixed_premises(self, s: int, v: int) -> tuple[int, ...]:
        """The entries that fixed slot s at v: both its bounds' lists, cited
        once when they are the same (see the module docstring)."""
        below, above = self.justify_bound(0, s, v), self.justify_bound(1, s, v)
        return tuple(below) if below == above else tuple(_stable_unique(below + above))

    def premises(self, e: int) -> tuple[int, ...]:
        """The premise entries of trail entry e, which must have a reason.
        A marker's are built on the first read, as its propagator would have
        built them when it pushed e, and stored on the entry."""
        reason = self.t_reason[e]
        if len(reason) == 2:
            return reason[1]
        fn, key, x = reason
        if fn is Engine._prop_alldiff:  # x is the fixed slot the removal spreads
            premises = self._fixed_premises(x, self.t_atom[e][2])
        else:  # a clause unit: x is the clause's atoms, all others false
            unit = self.t_atom[e]
            entries = []
            for a in x:
                if a != unit:
                    entries.extend(self._justify_false_at(a, e))
            premises = tuple(_stable_unique(entries)) if entries else ()
        self.t_reason[e] = (key, premises)
        return premises

    # --- trail -------------------------------------------------------------

    def apply(self, atom: Atom, reason: Optional[tuple]):
        """Apply an atomic domain change; returns the Conflict if the atom is false."""
        st = self.status(atom)
        if st is True:
            return None
        if st is False:
            if reason is None:
                raise AssertionError("decision on a falsified atom")
            key, premises = reason
            step_atoms = None
            if self.proof:
                # premises are duplicate-free (see the module docstring)
                step_atoms = (atom, *[_negate_atom(self.t_atom[q]) for q in premises])
            entries = list(premises) + self.justify_false(atom)
            return Conflict(_stable_unique(entries), key, step_atoms)
        self._push(atom, reason)
        return None

    def _push(self, atom: Atom, reason: Optional[tuple]):
        """Put an atom on the trail: wake its variable's idle watchers,
        tighten its bound or remove its value, and then, if that fixed the
        variable, wake its idle fix watchers. The caller must know the atom
        is undecided: nothing here checks it, and a true or false atom would
        corrupt the domain (a second hole record, or crossed bounds)."""
        vi, op, val = atom
        e = len(self.t_atom)
        self.t_atom.append(atom)
        self.t_reason.append(reason)
        self.t_undo.append(len(self.undo))
        in_queue, queue = self.in_queue, self.queue
        for idx in self.watch[vi]:
            if not in_queue[idx]:
                in_queue[idx] = 1
                queue.append(idx)
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
            self.undo.append(("hole", vi, val))
            self.holes[vi][val] = e
        fix_watch = self.fix_watch[vi]
        if fix_watch and self.lb[vi] == self.ub[vi]:
            for idx in fix_watch:
                if not in_queue[idx]:
                    in_queue[idx] = 1
                    queue.append(idx)
        if self.log_all and reason is not None:
            self._step_for_entry(e)

    def _tighten(self, side: int, vi: int, v: int, kind: str, entry: int):
        """Move bound `side` of vi to v as a `kind` record of trail entry
        `entry`, then slide it past every removed value it lands on."""
        hist = self.hist[side][vi]
        self.undo.append((side, vi, len(hist)))
        hist.append((kind, v, entry))
        holes = self.holes[vi]
        step = -1 if side else 1
        while v in holes:
            hist.append(("s", v + step, holes[v]))
            v += step
        self.bound[side][vi] = v

    def backtrack_to(self, level: int):
        self._undo_to(self.level_start[level + 1])
        del self.level_start[level + 1:]
        self.level = level

    def undo_root(self, mark: int):
        """Back to the root, then pop root entries until `mark` are left."""
        del self.level_start[1:]
        self.level = 0
        self._undo_to(mark)

    def _undo_to(self, target: int):
        """Pop trail entries until `target` are left, then empty the queue."""
        in_queue, undo, t_atom = self.in_queue, self.undo, self.t_atom
        # the popped entries' records, newest first
        start = self.t_undo[target] if target < len(t_atom) else len(undo)
        for tag, a, x in reversed(undo[start:]):
            if tag == "hole":
                del self.holes[a][x]
            elif tag == "wake":
                if in_queue[a] == 2:  # an off propagator stays off
                    in_queue[a] = 0
            elif tag == "done":
                a.discard(x)
            else:
                hist = self.hist[tag][a]
                del hist[x:]
                self.bound[tag][a] = hist[-1][1]
        if self.entry_step:
            for e in range(target, len(t_atom)):
                self.entry_step.pop(e, None)
        del undo[start:], t_atom[target:], self.t_reason[target:], self.t_undo[target:]
        # only the unprocessed tail of the queue can still be flagged queued;
        # a sleeper there queued itself and sleeps on its wake record
        for idx in self.queue[self.qhead:]:
            if in_queue[idx] == 1:
                in_queue[idx] = 0
        self.queue.clear()
        self.qhead = 0

    # --- propagators ---------------------------------------------------------

    def _propagate(self) -> Optional[Conflict]:
        queue, in_queue, props, t_atom = self.queue, self.in_queue, self.props, self.t_atom
        qhead = self.qhead
        while qhead < len(queue):
            idx = queue[qhead]
            qhead += 1
            if in_queue[idx] >= 2:  # it queued itself, then went to sleep; or it is off
                continue
            in_queue[idx] = 0
            p = props[idx]
            r = p[0](self, p)
            if r is None:
                continue
            if r is SLEEP:
                in_queue[idx] = 2
                if t_atom:  # on the newest entry; else asleep for good
                    self.undo.append(("wake", idx, 0))
                continue
            self.qhead = qhead
            return r
        queue.clear()
        self.qhead = 0
        return None

    def _prop_clause(self, p):
        _, key, atoms = p
        lb, ub, holes = self.lb, self.ub, self.holes
        unit = None
        # the atoms in order until a true atom or a second undecided one,
        # which leave nothing to do
        for a in atoms:
            vi, op, val = a
            lo, hi = lb[vi], ub[vi]
            # status(a), inline: skip a false atom, else `true` tells true
            # from undecided; a nogood's atoms are mostly == and !=
            if op == "==":
                if val < lo or val > hi or val in holes[vi]:
                    continue
                true = lo == hi
            elif op == "!=":
                if lo == hi == val:
                    continue
                true = val < lo or val > hi or val in holes[vi]
            elif op == ">=":
                if hi < val:
                    continue
                true = lo >= val
            else:
                if lo > val:
                    continue
                true = hi <= val
            if true:
                return SLEEP
            if unit is not None:
                return None
            unit = a
        if unit is None:  # every atom is false
            entries = []
            for a in atoms:
                entries.extend(self.justify_false(a))
            return Conflict(_stable_unique(entries), key, atoms)
        # an undecided atom always applies; p is its marker (see `premises`)
        self._push(unit, p)
        return SLEEP

    def _prop_lin(self, p):
        # sum(coef*var) <= rhs, optionally under an atomic guard
        _, cid, guard, terms, rhs = p
        gst = True if guard is None else self.status(guard)
        if gst is False:
            return SLEEP
        smin = 0
        for coef, s in terms:
            smin += coef * (self.lb[s] if coef > 0 else self.ub[s])
        if gst is not True:
            if smin <= rhs:
                return None
            premises = self._lin_premises(terms, None)
            # the guard is undecided, so it always applies
            self.apply(_negate_atom(guard), (cid, tuple(_stable_unique(premises))))
            return SLEEP
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

    def _prop_ne_pair(self, p):
        # c1*x + c2*y != rhs, unguarded: `_prop_linne`'s pass, each slot read once
        _, cid, c1, s1, c2, s2, rhs = p
        lb, ub = self.lb, self.ub
        lo1, hi1, lo2, hi2 = lb[s1], ub[s1], lb[s2], ub[s2]
        if lo1 == hi1:
            if lo2 == hi2:
                if c1 * lo1 + c2 * lo2 != rhs:  # entailed
                    return SLEEP
                # violated: the pivot on x, from y's value
                s, v, fixed, lo = s1, lo1, s2, lo2
            else:  # y != (rhs - c1*x) / c2, from x's value
                rem = rhs - c1 * lo1
                if rem % c2 != 0:  # entailed
                    return SLEEP
                s, v, fixed, lo = s2, rem // c2, s1, lo1
                if v < lo2 or v > hi2 or v in self.holes[s2]:  # already removed
                    return SLEEP
        elif lo2 == hi2:  # x != (rhs - c2*y) / c1, from y's value
            rem = rhs - c2 * lo2
            if rem % c1 != 0:
                return SLEEP
            s, v, fixed, lo = s1, rem // c1, s2, lo2
            if v < lo1 or v > hi1 or v in self.holes[s1]:
                return SLEEP
        else:
            return None
        r = self.apply((s, "!=", v), (cid, self._fixed_premises(fixed, lo)))
        return SLEEP if r is None else r

    def _prop_linne(self, p):
        # the general pass of a linear `!=` that is guarded or not of two terms
        _, cid, guard, terms, rhs = p
        gst = True if guard is None else self.status(guard)
        if gst is False:
            return SLEEP
        lb, ub = self.lb, self.ub
        rem, unfixed = rhs, None
        for coef, s in terms:
            if lb[s] == ub[s]:
                rem -= coef * lb[s]
            elif unfixed is None:
                unfixed = (coef, s)
            else:
                return None
        cited = terms
        if unfixed is not None:
            coef, s = unfixed
            if rem % coef != 0:  # no value of s meets rhs: entailed
                return SLEEP
            if gst is not True:
                return None
            target = (s, "!=", rem // coef)
            if self.status(target) is True:  # apply would do nothing
                return SLEEP
        elif rem != 0:  # entailed
            return SLEEP
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
        r = self.apply(target, (cid, tuple(_stable_unique(premises))))
        return SLEEP if r is None else r

    def _prop_alldiff(self, p) -> Optional[Conflict]:
        _, cid, slots, done = p
        lb, ub, holes = self.lb, self.ub, self.holes
        for s in slots:
            if lb[s] != ub[s] or s in done:
                continue
            v = lb[s]
            marker = None
            for t in slots:
                # a slot that already excludes v would make apply do nothing
                if t == s or v < lb[t] or v > ub[t] or v in holes[t]:
                    continue
                if lb[t] == ub[t]:  # t is fixed at v: the removal fails
                    return self.apply((t, "!=", v), (cid, self._fixed_premises(s, v)))
                if marker is None:  # s's premises wait for `premises`
                    marker = (Engine._prop_alldiff, cid, s)
                # v lies inside the domain of the unfixed t: undecided
                self._push((t, "!=", v), marker)
            # every other slot excludes v now: done until the newest trail
            # entry is undone (with none, for good)
            done.add(s)
            if self.t_atom:
                self.undo.append(("done", done, s))
        return None

    # --- proof logging -------------------------------------------------------

    def _step_for_entry(self, e: int) -> int:
        """Emit (once) the inference step justifying trail entry e; returns its 1-based id."""
        if e in self.entry_step:
            return self.entry_step[e]
        reason = self.t_reason[e]
        if reason is None:
            raise AssertionError("decisions have no justifying step")
        key = reason[0] if len(reason) == 2 else reason[1]  # a marker's key is second
        if isinstance(key, int):  # propagated by a nogood: its own step
            sid = key
        else:
            t_atom = self.t_atom
            atoms = (t_atom[e], *[_negate_atom(t_atom[q]) for q in self.premises(e)])
            self.steps.append(EngineStep(atoms, (key,)))
            sid = len(self.steps)
        self.entry_step[e] = sid
        return sid

    # --- conflict analysis -----------------------------------------------------

    def _analyze(self, conflict: Conflict):
        """(conflict level, entries of the learned nogood, its reasons); at
        level 0 no entries remain and the reasons are the conclusion's.
        Without proof logging the reasons are None, the entries leave out
        the root ones and a root conflict is not resolved at all."""
        reasons: Optional[list[Key]] = None
        if self.proof:
            key = conflict.key
            if isinstance(key, str) and conflict.step_atoms:
                # a violated input constraint: its inference is the first reason
                self.steps.append(EngineStep(conflict.step_atoms, (key,)))
                key = len(self.steps)
            # a nogood's key is its own step; an input constraint false on its
            # own is cited by the conclusion directly, not through an empty clause
            reasons = [key]
        cc: dict[int, None] = dict.fromkeys(conflict.entries)
        # levels only grow along the trail, so the newest entry has the
        # conflict level, and the entries from lo on are the ones at it (see
        # the module docstring for the walk)
        newest = max(cc, default=-1)
        clevel = bisect_right(self.level_start, newest) - 1 if cc else 0
        if clevel == 0 and reasons is None:
            return 0, [], None
        lo = self.level_start[clevel]
        at_level = sum(1 for e in cc if e >= lo)
        t_reason = self.t_reason
        for e in range(newest, -1, -1):
            if clevel and at_level <= 1:
                break
            # at the root every entry with a reason is expanded
            if e not in cc or t_reason[e] is None:
                continue
            del cc[e]
            at_level -= 1
            if reasons is not None:
                sid = self._step_for_entry(e)
                if sid not in reasons:
                    reasons.append(sid)
            for q in self.premises(e):
                if q not in cc:
                    cc[q] = None
                    at_level += q >= lo
        if clevel == 0 and cc:
            raise AssertionError("unexpandable root entries")
        if reasons is None:  # no proof to check (see the module docstring)
            root_end = self.level_start[1]
            return clevel, sorted(e for e in cc if e >= root_end), None
        return clevel, sorted(cc), reasons

    # --- search ------------------------------------------------------------------

    def solve(self) -> EngineResult:
        if any(lo > hi for lo, hi in zip(self.lb, self.ub)):  # an empty domain
            if self.proof:
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
                    if reasons is None:
                        return EngineResult("unsat", conflicts=self.conflicts)
                    # step ids before constraint ids, as `c UNSAT` prints them
                    reasons.sort(key=lambda r: isinstance(r, str))
                    self.steps.append(EngineStep((), tuple(reasons)))
                    return EngineResult("unsat", steps=self.steps, conflicts=self.conflicts)
                if reasons is None:  # no proof to cite it: key 0, newest atom first
                    key = 0
                    nogood_atoms = tuple(_negate_atom(self.t_atom[e]) for e in reversed(cc_entries))
                else:
                    nogood_atoms = tuple(_negate_atom(self.t_atom[e]) for e in cc_entries)
                    self.steps.append(EngineStep(nogood_atoms, tuple(reasons)))
                    key = len(self.steps)  # its own step id
                self.backtrack_to(clevel - 1)
                self._add_clause(key, nogood_atoms)
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
        """The first unfixed slot that an idle propagator watches, or None
        when every slot is fixed or skipped (see the module docstring)."""
        # every slot before the current level's decision slot was fixed or
        # skipped when that decision was made
        lb, ub, in_queue = self.lb, self.ub, self.in_queue
        watch, fix_watch = self.watch, self.fix_watch
        start = self.t_atom[self.level_start[self.level]][0] if self.level else 0
        for s in range(start, len(lb)):
            if lb[s] != ub[s]:
                for idx in watch[s]:
                    if not in_queue[idx]:
                        return s
                for idx in fix_watch[s]:
                    if not in_queue[idx]:
                        return s
        return None


def _on_fix(prop: tuple) -> bool:
    """Whether prop is a pair (`_prop_ne_pair`), which wakes only on a fix."""
    return prop[0] is Engine._prop_ne_pair


def _negate_atom(atom: Atom) -> Atom:
    vi, op, val = atom
    if op == "<=":
        return (vi, ">=", val + 1)
    if op == ">=":
        return (vi, "<=", val - 1)
    return (vi, "!=" if op == "==" else "==", val)


def _stable_unique(seq) -> list:
    return list(dict.fromkeys(seq))
