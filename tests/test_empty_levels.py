"""Empty decision levels, against an engine that decides every unfixed slot.

`Engine._pick_var` pushes a level with no trail entry for an unfixed slot
that no idle propagator watches, since deciding it would queue nothing. The
reference below is the engine with the `_pick_var` it had before: the first
unfixed slot, always decided. Both must give the same status, assignment,
conflict count, learned nogoods and proof steps, and the same slot at every
level; the trail must be the reference trail without its skipped decisions,
with every entry at the same level and every premise pointing at the same
entry. Checked at the end of every solve, proof-free, proof-logging and
with `log_all`, under small budgets too, and on the grow probes of a
`GrowSession`, which solve from a kept root (drawn as in
`test_grow_session`). The models are the small ones of `test_engine_fuzz`
and its searching models with a few more variables that often need no
decision (a searching model alone has none: its alldifferent watches every
variable).

The check must catch a wrong variant: one that pushes a single level for a
run of skipped slots, which moves the levels of the entries after it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import oracle as oracle_module
from proofseq.engine import DEFAULT_BUDGET, Engine
from proofseq.model import AtomicConstraint, Clause, Domain, VarId
from proofseq.oracle import GrowSession, Oracle

from test_engine_fuzz import OPS, searching_models, small_models
from test_grow_session import draw_kept

BUDGETS = (None, 1, 2, 4)
# (proof, log_all) of the engines compared
MODES = ((False, False), (True, False), (True, True))


@st.composite
def skipping_models(draw):
    """A searching model with 1 to 4 more variables of domain 0..3 among its
    own, which only drawn clauses over all the variables constrain: once
    those clauses are true, and so asleep, or when there are none, deciding
    such a variable queues nothing. An alldifferent over every variable
    watches each of them, so a searching model alone skips no decision."""
    doms, cons = draw(searching_models())
    n = len(doms)
    for i in range(draw(st.integers(1, 4))):
        doms.insert(draw(st.integers(0, len(doms))), (VarId(n + i, f"y{i}"), Domain(0, 3)))
    vs = [v for v, _ in doms]

    def atom():
        return AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                draw(st.integers(0, 4)))

    clauses = [Clause(tuple(atom() for _ in range(draw(st.integers(2, 3)))))
               for _ in range(draw(st.integers(0, len(doms) - n + 2)))]
    return doms, cons + clauses


MODELS = st.one_of(small_models(), skipping_models())


class _Recorded(Engine):
    """An engine that keeps its state at the end of every solve."""

    def solve(self):
        res = super().solve()
        self.states = getattr(self, "states", []) + [_state(self, res)]
        return res


class _Engine(_Recorded):
    """The engine under test, keeping its states and counting the decisions
    it skips."""

    skipped = 0

    def _pick_var(self):
        level = self.level
        s = super()._pick_var()
        self.skipped += self.level - level
        return s


class DecidesEverySlot(_Recorded):
    """The reference: every unfixed slot is decided, on a level of its own."""

    def _pick_var(self):
        lb, ub = self.lb, self.ub
        start = self.t_atom[self.level_start[self.level]][0] if self.level else 0
        for s in range(start, len(lb)):
            if lb[s] != ub[s]:
                return s
        return None


class CollapsesEmptyLevels(_Recorded):
    """Wrong on purpose: one empty level for consecutive skipped slots."""

    def _pick_var(self):
        lb, ub, watch, in_queue = self.lb, self.ub, self.watch, self.in_queue
        pushed = False
        for s in range(self.level_slot[self.level] + 1, len(lb)):
            if lb[s] != ub[s]:
                if any(not in_queue[idx] for idx in watch[s]):
                    return s
                if pushed:
                    self.level_slot[-1] = s
                    continue
                pushed = True
                self.level += 1
                self.level_start.append(len(self.t_atom))
                self.level_slot.append(s)
        return None


def _state(eng, res):
    """What the two engines must agree on, at the end of a solve."""
    return {
        "result": (res.status, res.assignment, res.conflicts),
        "steps": [(s.atoms, s.reasons) for s in res.steps],
        # learned nogoods included; alldifferent done sets copied
        "props": [tuple(set(x) if isinstance(x, set) else x for x in p) for p in eng.props],
        "watch": [list(w) for w in eng.watch],
        "level_slot": list(eng.level_slot),
        "trail": list(zip(eng.t_atom, eng.t_level, eng.t_reason)),
    }


def _mismatch(got, ref):
    """The first thing in which the state got differs from the reference
    state ref, or None; ref's trail loses its skipped decisions first."""
    for key in ("result", "steps", "props", "watch", "level_slot"):
        if got[key] != ref[key]:
            return key
    # a skipped decision leaves its level without a decision entry, though
    # a backjump to that level may propagate onto it later
    decided = {level for _, level, reason in got["trail"] if reason is None}
    skipped = {e for e, (_, level, reason) in enumerate(ref["trail"])
               if reason is None and level not in decided}
    kept = [e for e in range(len(ref["trail"])) if e not in skipped]
    new_index = {e: k for k, e in enumerate(kept)}
    expected = []
    for e in kept:
        atom, level, reason = ref["trail"][e]
        if reason is not None:
            key, premises = reason
            if skipped & set(premises):
                return "a skipped decision as a premise"
            reason = (key, tuple(new_index[q] for q in premises))
        expected.append((atom, level, reason))
    return None if got["trail"] == expected else "trail"


def _solve(cls, doms, cons, budget, proof, log_all):
    eng = cls(doms, proof=proof, log_all=log_all, **({} if budget is None else {"budget": budget}))
    for i, c in enumerate(cons):
        eng.add_constraint(f"h{i}", c)
    eng.solve()
    return eng


def _runs(engine_cls):
    """Solve every example with engine_cls and with the reference; the
    tally of examples, mismatches, and examples that skipped a decision
    and then met a conflict."""
    tally = dict.fromkeys(("examples", "mismatches", "skipped, then conflicts"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(MODELS, st.sampled_from(BUDGETS), st.sampled_from(MODES))
    def run(model, budget, mode):
        doms, cons = model
        eng = _solve(engine_cls, doms, cons, budget, *mode)
        (got,), (ref,) = eng.states, _solve(DecidesEverySlot, doms, cons, budget, *mode).states
        tally["examples"] += 1
        tally["mismatches"] += _mismatch(got, ref) is not None
        tally["skipped, then conflicts"] += bool(getattr(eng, "skipped", 0) and eng.conflicts)

    run()
    return tally




def test_empty_levels_match_deciding_every_slot():
    tally = _runs(_Engine)
    assert tally["mismatches"] == 0, tally
    # and the search often goes on past a skipped decision
    assert tally["skipped, then conflicts"] >= 50, tally


def test_the_check_catches_collapsed_empty_levels():
    tally = _runs(CollapsesEmptyLevels)
    assert tally["mismatches"] > 0, tally


def _sessions(doms, hard, soft):
    """A grow session over the engine under test and one over the reference."""
    sessions = []
    for cls in (_Engine, DecidesEverySlot):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "Engine", cls)
            sessions.append(GrowSession(Oracle(doms), hard, soft))
    return sessions


def test_grow_probes_match_deciding_every_slot():
    seen = dict.fromkeys(("probes", "skipped"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(MODELS, st.data())
    def run(model, data):
        doms, cons = model
        cut = data.draw(st.integers(0, min(2, len(cons) - 1)))
        hard, soft = cons[:cut], cons[cut:]
        members = st.integers(0, len(soft) - 1)
        if Oracle(doms).model_of(hard) is None:
            return
        session, reference = _sessions(doms, hard, soft)
        for _ in range(data.draw(st.integers(1, 3))):
            kept = draw_kept(data, doms, hard, soft)
            session.keep(kept)
            reference.keep(kept)
            for i in data.draw(st.lists(members, max_size=len(soft) + 2)):
                if i in session.kept:
                    continue
                budget = data.draw(st.sampled_from(BUDGETS))
                budget = DEFAULT_BUDGET if budget is None else budget
                got, ref = session.probe(i, budget), reference.probe(i, budget)
                assert type(got) is type(ref) and got == ref
                assert session.kept == reference.kept
                seen["probes"] += 1
            session.clear()
            reference.clear()
        states = getattr(session.engine, "states", [])
        ref_states = getattr(reference.engine, "states", [])
        assert len(states) == len(ref_states)
        for got, ref in zip(states, ref_states):
            assert _mismatch(got, ref) is None
        seen["skipped"] += session.engine.skipped

    run()
    assert min(seen.values()) >= 100, seen
