"""Proof-free search learns each nogood once, against an engine that
registers every learned nogood, copies included.

When conflict analysis derives a nogood over the atom set of one it already
registered, `Engine.solve` queues that one again instead of registering a
copy. The reference below registers every nogood, in learning order, as
the engine did before. On the searching and skipping models of
`test_engine_fuzz`, proof-free, under budgets None/1/2/4, in plain solves
and in the grow probes of a `GrowSession` (kept sets drawn as in
`test_grow_session`), each solve must:

- reach the reference's verdict whenever neither runs out of budget;
- search exactly as the reference, with the same status, assignment,
  conflict count, final trail and learned nogoods, whenever the reference
  learns no copy;
- end with no two learned nogoods over the same atom set.

A copy sleeps and wakes apart from its original, so once the reference
learns one only the verdict is sure to match. Counters show that solves
and grow probes with copies are reached, and grow probes that learn again
a nogood that an earlier probe learned and dropped (`drop_props` must
forget it). Every `Engine._push` is checked to put an undecided atom on the
trail, by the fixture of `test_engine_fuzz`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq import oracle as oracle_module
from proofseq.engine import DEFAULT_BUDGET, Engine
from proofseq.oracle import GrowSession, Oracle

from test_engine_fuzz import push_only_undecided  # noqa: F401 (autouse)
from test_engine_fuzz import searching_models, skipping_models
from test_grow_session import draw_kept

BUDGETS = (None, 1, 2, 4)
MODELS = st.one_of(searching_models(), skipping_models())


class _Recorded(Engine):
    """An engine that keeps what each of its solves ended with."""

    copies = 0

    def solve(self):
        copies, before = self.copies, getattr(self, "ever_learned", set())
        res = super().solve()
        learned = [frozenset(p[2]) for p in self.props if not isinstance(p[1], str)]
        self.ever_learned = before | set(learned)
        self.ends = getattr(self, "ends", []) + [{
            "result": (res.status, res.assignment, res.conflicts),
            "trail": list(self.t_atom),
            "learned": learned,
            "copies": self.copies - copies,
            # nogoods that an earlier solve of this engine learned too; in a
            # grow session those went with the earlier probe's `drop_props`
            "relearned": len(before.intersection(learned)),
        }]
        return res


class LearnsCopies(_Recorded):
    """The reference: every proof-free nogood is registered, also when a
    registered one has the same atoms; `copies` counts those."""

    def _learn(self, atoms):
        registered = {frozenset(p[2]) for p in self.props if not isinstance(p[1], str)}
        self.copies += frozenset(atoms) in registered
        self._add_clause(0, atoms)


def _compare(got, ref, seen):
    """Check the ends of two solves, the engine's and the reference's, and
    count what they reached."""
    assert len(set(got["learned"])) == len(got["learned"])
    statuses = (got["result"][0], ref["result"][0])
    if "budget" not in statuses:
        assert statuses[0] == statuses[1]
    if ref["copies"]:
        seen["with copies"] += 1
        return
    for key in ("result", "trail", "learned"):
        assert got[key] == ref[key], key
    seen["learned, no copy"] += bool(got["learned"])


def _solve(cls, doms, cons, budget):
    eng = cls(doms, proof=False, **({} if budget is None else {"budget": budget}))
    for i, c in enumerate(cons):
        eng.add_constraint(f"h{i}", c)
    eng.solve()
    return eng


def test_solves_match_an_engine_that_learns_copies():
    seen = dict.fromkeys(("with copies", "learned, no copy"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(MODELS)
    def run(model):
        doms, cons = model
        for budget in BUDGETS:
            (got,) = _solve(_Recorded, doms, cons, budget).ends
            (ref,) = _solve(LearnsCopies, doms, cons, budget).ends
            _compare(got, ref, seen)

    run()
    # copies are rare in models this small: about one solve in 200
    assert seen["with copies"] >= 4 and seen["learned, no copy"] >= 500, seen


def _sessions(doms, hard, soft):
    """A grow session over the engine under test and one over the reference."""
    sessions = []
    for cls in (_Recorded, LearnsCopies):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "Engine", cls)
            sessions.append(GrowSession(Oracle(doms), hard, soft))
    return sessions


def test_grow_probes_match_an_engine_that_learns_copies():
    seen = dict.fromkeys(("probes", "with copies", "learned, no copy", "relearned"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(MODELS, st.data())
    def run(model, data):
        doms, cons = model
        # a hard part of any size: the more every probe shares, the longer it
        # searches, and the more often it learns a copy
        cut = data.draw(st.integers(0, len(cons) - 1))
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
                session.probe(i, budget)
                reference.probe(i, budget)
                seen["probes"] += 1
                got = session.engine.ends[-1]
                _compare(got, reference.engine.ends[-1], seen)
                seen["relearned"] += bool(got["relearned"])
                if session.kept != reference.kept:
                    return  # one ran out of budget, the other did not
            session.clear()
            reference.clear()

    run()
    assert seen["probes"] >= 200 and seen["with copies"] >= 4, seen
    # and probes relearn what an earlier probe learned and dropped
    assert seen["learned, no copy"] >= 40 and seen["relearned"] >= 20, seen
