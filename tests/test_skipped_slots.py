"""Skipped slots, against an engine that decides every unfixed slot.

`Engine._pick_var` passes over an unfixed slot that no idle propagator
watches (each watcher asleep or off), with no decision and no level of its
own. The reference below decides every unfixed slot. Skipping moves levels,
so conflict cuts, nogoods and the whole search may differ, and only the
verdict must match. On the small and skipping models of `test_engine_fuzz`
and the rejoining models below, proof-free, proof-logging and with
`log_all`, under budgets None/1/2/4, and on the grow probes of a
`GrowSession` (kept sets drawn as in `test_grow_session`):

- the engine reaches the reference's verdict whenever neither runs out of
  budget;
- every Sat assignment, the engine's and the reference's, lies in the
  domains and satisfies each constraint under `helpers.brute_eval`;
- every decision is on a slot that an idle propagator watches, and when
  the search finds none to decide, no idle constraint propagator (a
  learned nogood aside) watches an unfixed slot.

A counter shows that the search decides slots that an earlier pick of the
same solve passed over, as it does when a backjump sends the scan back;
the rejoining models make that less rare. The checks must catch a wrong
variant whose scan never goes back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import oracle as oracle_module
from proofseq.engine import DEFAULT_BUDGET, Engine
from proofseq.model import AtomicConstraint, Clause, Domain, VarId
from proofseq.oracle import GrowSession, Oracle, Sat

from helpers import brute_eval
from test_engine_fuzz import push_only_undecided  # noqa: F401 (autouse)
from test_engine_fuzz import searching_models, skipping_models, small_models
from test_grow_session import draw_kept

BUDGETS = (None, 1, 2, 4)
# (proof, log_all) of the engines compared
MODES = ((False, False), (True, False), (True, True))


@st.composite
def rejoining_models(draw):
    """A searching model with 1 to 3 more variables y of domain 0..3, each
    right after a searching variable x and constrained only by the clause
    `x == v or y == a or y == a + 1`. While x == v the clause is true and
    asleep, so the search skips y; a backtrack over x == v wakes the clause
    with two undecided atoms, so once x takes another value y is decided,
    right after x."""
    doms, cons = draw(searching_models())
    n, k = len(doms), doms[0][1].upper
    xs = draw(st.lists(st.sampled_from([v for v, _ in doms]), min_size=1, max_size=3, unique=True))
    for i, x in enumerate(xs):
        y = VarId(n + i, f"y{i}")
        doms.insert([v for v, _ in doms].index(x) + 1, (y, Domain(0, 3)))
        a = draw(st.integers(0, 2))
        cons.append(Clause((AtomicConstraint(x, "==", draw(st.integers(0, k))),
                            AtomicConstraint(y, "==", a), AtomicConstraint(y, "==", a + 1))))
    return doms, cons


MODELS = st.one_of(small_models(), skipping_models(), rejoining_models())


class _Checked(Engine):
    """An engine whose every pick is checked: `faults` lists what went
    wrong, and `redecided` counts decisions on a slot that an earlier pick
    of the same solve passed over, unfixed with no idle watcher."""

    pick = Engine._pick_var  # the pick under test
    redecided = 0

    def solve(self):
        self.faults, self.passed = getattr(self, "faults", []), set()
        return super().solve()

    def _idle(self, s, constraints_only=False):
        """Whether an idle propagator watches slot s; with constraints_only,
        learned nogoods aside."""
        watchers = self.watch[s]
        if constraints_only:
            watchers = [idx for idx in watchers if isinstance(self.props[idx][1], str)]
        return any(not self.in_queue[idx] for idx in watchers)

    def _pick_var(self):
        s = self.pick()
        unfixed = [t for t in range(len(self.lb)) if self.lb[t] != self.ub[t]]
        if s is None:
            if any(self._idle(t, constraints_only=True) for t in unfixed):
                self.faults.append("no pick, but an idle constraint watches an unfixed slot")
        elif self.lb[s] == self.ub[s] or not self._idle(s):
            self.faults.append(f"decision on slot {s}, which no idle propagator watches")
        else:
            self.redecided += s in self.passed
        self.passed.update(t for t in unfixed if t != s and not self._idle(t))
        return s


class DecidesEverySlot(Engine):
    """The reference: every unfixed slot is decided, on a level of its own."""

    def _pick_var(self):
        lb, ub = self.lb, self.ub
        start = self.t_atom[self.level_start[self.level]][0] if self.level else 0
        for s in range(start, len(lb)):
            if lb[s] != ub[s]:
                return s
        return None


def _looks_only_forward(eng):
    """Wrong on purpose: the scan goes on from the slot of the solve's
    previous pick, whatever the level, so a backjump never sends it back."""
    lb, ub = eng.lb, eng.ub
    for s in range(eng.last_pick, len(lb)):
        if lb[s] != ub[s] and eng._idle(s):
            eng.last_pick = s
            return s
    return None


class LooksOnlyForward(_Checked):
    pick = _looks_only_forward

    def solve(self):
        self.last_pick = 0
        return super().solve()


def _model_faults(doms, constraints, assignment):
    """What is wrong with a Sat assignment: values outside the domains, and
    constraints that it violates under the independent evaluator."""
    faults = [f"{v} = {assignment[v]} outside its domain" for v, d in doms if assignment[v] not in d]
    return faults + [f"violates {c}" for c in constraints if not brute_eval(c, assignment)]


def _solve(cls, doms, cons, budget, proof, log_all):
    eng = cls(doms, proof=proof, log_all=log_all, **({} if budget is None else {"budget": budget}))
    for i, c in enumerate(cons):
        eng.add_constraint(f"h{i}", c)
    return eng, eng.solve()


def _runs(engine_cls):
    """Solve every example with engine_cls and with the reference; the tally
    of examples, examples with a fault, and decisions on slots passed over."""
    tally = dict.fromkeys(("examples", "faulty", "redecided"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(MODELS, st.sampled_from(BUDGETS), st.sampled_from(MODES))
    def run(model, budget, mode):
        doms, cons = model
        eng, got = _solve(engine_cls, doms, cons, budget, *mode)
        _, ref = _solve(DecidesEverySlot, doms, cons, budget, *mode)
        faults = list(eng.faults)
        if "budget" not in (got.status, ref.status) and got.status != ref.status:
            faults.append(f"verdict {got.status}, the reference's {ref.status}")
        for res in (got, ref):
            if res.status == "sat":
                faults += _model_faults(doms, cons, res.assignment)
        tally["examples"] += 1
        tally["faulty"] += bool(faults)
        tally["redecided"] += eng.redecided
        if engine_cls is _Checked:
            assert not faults, faults

    run()
    return tally


def test_skipping_slots_keeps_every_verdict():
    tally = _runs(_Checked)
    assert tally["faulty"] == 0, tally
    # and the search decides slots that it passed over earlier
    assert tally["redecided"] >= 10, tally


def test_the_checks_catch_a_scan_that_never_goes_back():
    tally = _runs(LooksOnlyForward)
    assert tally["faulty"] > 0, tally


def _sessions(doms, hard, soft):
    """A grow session over the engine under test and one over the reference."""
    sessions = []
    for cls in (_Checked, DecidesEverySlot):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "Engine", cls)
            sessions.append(GrowSession(Oracle(doms), hard, soft))
    return sessions


def test_grow_probes_keep_every_verdict():
    seen = dict.fromkeys(("probes", "sat", "redecided"), 0)

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
                probed = hard + [soft[j] for j in sorted(session.kept | {i})]
                got, ref = session.probe(i, budget), reference.probe(i, budget)
                seen["probes"] += 1
                assert not session.engine.faults, session.engine.faults
                for res in (got, ref):
                    if isinstance(res, Sat):
                        seen["sat"] += 1
                        assert not _model_faults(doms, probed, res.assignment)
                if session.kept != reference.kept:
                    # one ran out of budget, the other did not
                    assert budget < DEFAULT_BUDGET
                    return
                assert type(got) is type(ref)
            session.clear()
            reference.clear()
        seen["redecided"] += session.engine.redecided

    run()
    assert seen["probes"] >= 100 and seen["sat"] >= 100, seen
    # and probes decide slots that they passed over earlier
    assert seen["redecided"] >= 5, seen
