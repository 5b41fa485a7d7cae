"""Deterministic generators for unsatisfiable desk-scale benchmark models.

Kinds:

* sudoku4 / sudoku9 - latin squares with block constraints, hints taken from
  a random full grid with one hint changed to a wrong value that still looks
  locally consistent (no duplicate among the given hints of any row, column
  or block), re-rolled until the puzzle is unsatisfiable;
* jobshop - a few jobs of chained tasks on alternating machines with
  pairwise no-overlap disjunctions; every start-time domain is capped one
  below the smallest feasible bound found by the oracle;
* mutated - a satisfiable mixed model (precedences, alldifferent, windows,
  one disjunctive pair) with one comparison tightened or swapped, re-rolled
  until the model is unsatisfiable while every single constraint stays
  satisfiable on its own.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import GenerationError
from .model import (
    AllDifferent,
    AtomicConstraint,
    Constraint,
    Disjunction,
    Domain,
    Linear,
    UserModel,
    VarId,
)
from .oracle import Oracle

KINDS = ("sudoku4", "sudoku9", "jobshop", "mutated")


def generate_instance(kind: str, seed: int) -> UserModel:
    """Deterministic in (kind, seed); the result is oracle-verified unsatisfiable."""
    rng = random.Random(f"{kind}-{seed}")
    if kind == "sudoku4":
        return _sudoku(rng, 4)
    if kind == "sudoku9":
        return _sudoku(rng, 9)
    if kind == "jobshop":
        return _jobshop(rng)
    if kind == "mutated":
        return _mutated(rng)
    raise ValueError(f"unknown instance kind {kind!r}; choose one of {', '.join(KINDS)}")


def _model_of(model: UserModel) -> Optional[dict[VarId, int]]:
    """A model of the user model, or None when it is unsatisfiable. The
    engine compiles or() itself, so no flattening is needed. An exhausted
    oracle budget raises BudgetExceededError."""
    return Oracle(model.vars).model_of([c.expr for c in model.constraints])


def _is_unsat(model: UserModel) -> bool:
    return _model_of(model) is None


# --- sudoku -------------------------------------------------------------------


def _full_grid(rng: random.Random, n: int, block: int) -> Optional[list[list[int]]]:
    grid = [[0] * n for _ in range(n)]

    def candidates(i: int, j: int) -> list[int]:
        used = set(grid[i]) | {grid[r][j] for r in range(n)}
        bi, bj = (i // block) * block, (j // block) * block
        for r in range(bi, bi + block):
            for c in range(bj, bj + block):
                used.add(grid[r][c])
        vals = [v for v in range(1, n + 1) if v not in used]
        rng.shuffle(vals)
        return vals

    def fill(pos: int) -> bool:
        if pos == n * n:
            return True
        i, j = divmod(pos, n)
        for v in candidates(i, j):
            grid[i][j] = v
            if fill(pos + 1):
                return True
            grid[i][j] = 0
        return False

    filled = fill(0)
    # fill refers to itself through its closure cell; without this the cycle
    # would keep it, candidates, grid and rng alive until a cyclic collection
    del fill
    return grid if filled else None


def _sudoku_model(n: int, block: int, hints: dict[tuple[int, int], int]) -> UserModel:
    vars_: list[tuple[VarId, Domain]] = []
    cell: dict[tuple[int, int], VarId] = {}
    for i in range(n):
        for j in range(n):
            v = VarId(len(vars_), f"r{i + 1}c{j + 1}")
            cell[(i, j)] = v
            vars_.append((v, Domain(1, n)))
    cons: list[Constraint] = []
    for i in range(n):
        cons.append(Constraint(f"row{i + 1}", AllDifferent(tuple(cell[(i, j)] for j in range(n)))))
    for j in range(n):
        cons.append(Constraint(f"col{j + 1}", AllDifferent(tuple(cell[(i, j)] for i in range(n)))))
    k = 0
    for bi in range(0, n, block):
        for bj in range(0, n, block):
            k += 1
            members = tuple(cell[(i, j)] for i in range(bi, bi + block)
                            for j in range(bj, bj + block))
            cons.append(Constraint(f"blk{k}", AllDifferent(members)))
    for t, ((i, j), v) in enumerate(sorted(hints.items()), start=1):
        cons.append(Constraint(f"h{t}", AtomicConstraint(cell[(i, j)], "==", v)))
    return UserModel(tuple(vars_), tuple(cons))


def _sudoku(rng: random.Random, n: int) -> UserModel:
    block = 2 if n == 4 else 3
    n_hints = rng.randint(6, 9) if n == 4 else rng.randint(36, 44)
    for _ in range(300):
        grid = _full_grid(rng, n, block)
        if grid is None:
            continue
        cells = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(cells)
        hints = {c: grid[c[0]][c[1]] for c in cells[:n_hints]}
        mistake_order = list(hints)
        rng.shuffle(mistake_order)
        for (mi, mj) in mistake_order:
            truth = grid[mi][mj]
            peers = {hints[(i, j)] for (i, j) in hints
                     if (i, j) != (mi, mj) and _same_unit(i, j, mi, mj, block)}
            wrong = [v for v in range(1, n + 1) if v != truth and v not in peers]
            rng.shuffle(wrong)
            for v in wrong:
                broken = dict(hints)
                broken[(mi, mj)] = v
                model = _sudoku_model(n, block, broken)
                if _is_unsat(model):
                    return model
    raise GenerationError(f"no unsatisfiable sudoku{n} found in budget")


def _same_unit(i: int, j: int, mi: int, mj: int, block: int) -> bool:
    return i == mi or j == mj or (i // block == mi // block and j // block == mj // block)


# --- jobshop ------------------------------------------------------------------


def _jobshop(rng: random.Random, n_jobs: int = 3, n_machines: int = 2) -> UserModel:
    """Start-time bound set one below the smallest feasible bound, so the
    conflict usually threads one precedence/no-overlap chain (the domains
    carry the deadline, as in the hand-worked two-machine example)."""
    durations = [[rng.randint(1, 5) for _ in range(n_machines)] for _ in range(n_jobs)]
    orders = []
    for _ in range(n_jobs):
        order = list(range(n_machines))
        rng.shuffle(order)
        orders.append(order)

    def build(bound: int) -> UserModel:
        vars_: list[tuple[VarId, Domain]] = []
        start: dict[tuple[int, int], VarId] = {}  # (job, position)
        for j in range(n_jobs):
            for t in range(n_machines):
                v = VarId(len(vars_), f"s{j + 1}_{t + 1}")
                start[(j, t)] = v
                vars_.append((v, Domain(0, bound)))
        cons: list[Constraint] = []
        for j in range(n_jobs):
            for t in range(n_machines - 1):
                a, b = start[(j, t)], start[(j, t + 1)]
                cons.append(Constraint(
                    f"prec{j + 1}_{t + 1}",
                    Linear(((1, a), (-1, b)), "<=", -durations[j][orders[j][t]])))
        for m in range(n_machines):
            on_m = [(j, orders[j].index(m)) for j in range(n_jobs)]
            k = 0
            for x in range(len(on_m)):
                for y in range(x + 1, len(on_m)):
                    k += 1
                    (j1, t1), (j2, t2) = on_m[x], on_m[y]
                    a, da = start[(j1, t1)], durations[j1][m]
                    b, db = start[(j2, t2)], durations[j2][m]
                    cons.append(Constraint(
                        f"no{m + 1}_{k}",
                        Disjunction((Linear(((1, a), (-1, b)), "<=", -da),
                                     Linear(((1, b), (-1, a)), "<=", -db)))))
        return UserModel(tuple(vars_), tuple(cons))

    bound = 1
    while _is_unsat(build(bound)):
        bound += 1
        if bound > sum(sum(d) for d in durations):
            raise GenerationError("no feasible start-time bound found")
    tight = build(bound - 1)
    if not _is_unsat(tight):
        raise GenerationError("bound - 1 unexpectedly satisfiable")
    return tight


# --- mutated modeling examples ----------------------------------------------------


def _sat_template(rng: random.Random) -> Optional[UserModel]:
    nv = rng.randint(3, 6)
    hi = rng.randint(4, 8)
    vars_ = [(VarId(i, f"x{i + 1}"), Domain(0, hi)) for i in range(nv)]
    vs = [v for v, _ in vars_]
    cons: list[Constraint] = []
    k = 0
    for _ in range(rng.randint(1, 2)):
        chain = rng.sample(vs, rng.randint(2, min(4, nv)))
        for a, b in zip(chain, chain[1:]):
            k += 1
            cons.append(Constraint(f"c{k}", Linear(((1, a), (-1, b)), "<=", -rng.randint(1, 3))))
    if rng.random() < 0.8 and nv >= 2:
        k += 1
        cons.append(Constraint(f"c{k}", AllDifferent(tuple(rng.sample(vs, rng.randint(2, min(4, nv)))))))
    for _ in range(rng.randint(1, 3)):
        k += 1
        v = rng.choice(vs)
        cons.append(Constraint(f"c{k}", AtomicConstraint(v, rng.choice(["<=", ">="]),
                                                         rng.randint(1, hi - 1))))
    for _ in range(rng.randint(0, 2)):
        k += 1
        a, b = rng.sample(vs, 2)
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        cons.append(Constraint(f"c{k}", Disjunction((Linear(((1, a), (-1, b)), "<=", -da),
                                                     Linear(((1, b), (-1, a)), "<=", -db)))))
    model = UserModel(tuple(vars_), tuple(cons))
    return model if _model_of(model) is not None else None


def _each_constraint_satisfiable(model: UserModel) -> bool:
    oracle = Oracle(model.vars)
    return all(oracle.model_of([c.expr]) is not None for c in model.constraints)


def _tighten(c: Constraint, rng: random.Random) -> Optional[Constraint]:
    e = c.expr
    if isinstance(e, Linear) and e.op in ("<=", ">="):
        if rng.random() < 0.7:
            # off-by-one: <= becomes <, i.e. the bound tightens by one
            rhs = e.rhs - 1 if e.op == "<=" else e.rhs + 1
            return Constraint(c.id, Linear(e.terms, e.op, rhs))
        return Constraint(c.id, Linear(e.terms, ">=" if e.op == "<=" else "<=", e.rhs))
    if isinstance(e, AtomicConstraint) and e.op in ("<=", ">="):
        val = e.value - 1 if e.op == "<=" else e.value + 1
        return Constraint(c.id, AtomicConstraint(e.var, e.op, val))
    return None


def _mutated(rng: random.Random) -> UserModel:
    for _ in range(400):
        base = _sat_template(rng)
        if base is None:
            continue
        order = list(range(len(base.constraints)))
        rng.shuffle(order)
        for idx in order:
            replaced = _tighten(base.constraints[idx], rng)
            if replaced is None:
                continue
            cons = list(base.constraints)
            cons[idx] = replaced
            model = UserModel(base.vars, tuple(cons))
            if _is_unsat(model) and _each_constraint_satisfiable(model):
                return model
    raise GenerationError("no unsatisfiable mutated model found in budget")
