"""Property test of the engine against brute force: on small random models
(at most 5 variables, at most 6 values per domain, interior holes, atoms,
clauses of up to 5 atoms, alldifferents, linears and disjunctions),
`Oracle.solve` must give the brute-force verdict, and every model it returns
must satisfy every constraint by the independent evaluator in `helpers`.
Disjunctions draw atoms, clauses, linears, conjunctions and nested
disjunctions as members, so the engine's selector compilation is checked as
well."""

from hypothesis import given, settings
from hypothesis import strategies as st

from proofseq.model import (
    AllDifferent,
    AtomicConstraint,
    Clause,
    Conjunction,
    Disjunction,
    Domain,
    Linear,
    VarId,
)
from proofseq.oracle import Oracle, Sat, Unsat

from helpers import brute_eval, brute_satisfiable

OPS = ("<=", ">=", "==", "!=")


@st.composite
def small_models(draw):
    vs = [VarId(i, f"x{i}") for i in range(draw(st.integers(1, 5)))]
    doms = []
    for v in vs:
        lo = draw(st.integers(-2, 2))
        hi = lo + draw(st.integers(0, 5))
        holes = draw(st.frozensets(st.integers(lo + 1, hi - 1))) if hi - lo > 1 else frozenset()
        doms.append((v, Domain(lo, hi, holes)))

    def atom():
        return AtomicConstraint(draw(st.sampled_from(vs)), draw(st.sampled_from(OPS)),
                                draw(st.integers(-3, 8)))

    def linear():
        xs = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3, unique=True))
        terms = tuple((draw(st.sampled_from((-2, -1, 1, 2))), x) for x in xs)
        return Linear(terms, draw(st.sampled_from(OPS)), draw(st.integers(-6, 10)))

    def member(nested):
        kinds = ("atom", "clause", "linear", "and") + (() if nested else ("or",))
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            return atom()
        if kind == "clause":
            return Clause(tuple(atom() for _ in range(draw(st.integers(1, 3)))))
        if kind == "linear":
            return linear()
        if kind == "and":
            return Conjunction(tuple(draw(st.sampled_from((atom, linear)))() for _ in range(2)))
        return Disjunction(tuple(member(True) for _ in range(draw(st.integers(1, 2)))))

    cons = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("atom", "clause", "linear", "alldiff", "disjunction")))
        if kind == "atom":
            cons.append(atom())
        elif kind == "clause":
            cons.append(Clause(tuple(atom() for _ in range(draw(st.integers(1, 5))))))
        elif kind == "disjunction":
            cons.append(Disjunction(tuple(member(False) for _ in range(draw(st.integers(1, 3))))))
        elif kind == "linear" or len(vs) < 2:
            cons.append(linear())
        else:
            xs = draw(st.lists(st.sampled_from(vs), min_size=2, max_size=len(vs), unique=True))
            cons.append(AllDifferent(tuple(xs)))
    return doms, cons


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_models())
def test_oracle_agrees_with_brute_force(model):
    doms, cons = model
    expected = brute_satisfiable(doms, cons)
    res = Oracle(doms).solve(cons)
    if expected is None:
        assert isinstance(res, Unsat)
    else:
        assert isinstance(res, Sat)
        assert all(res.assignment[v] in d for v, d in doms)
        assert all(brute_eval(c, res.assignment) for c in cons)
