"""Command-line interface: explain, bench and proof subcommands.

Exit codes: 0 success, 2 parse error (model, proof or option value) or
usage error, 3 semantic failure (invalid proof, failed validation, unusable
input), 4 oracle budget exhausted. The oracle budget defaults to 10^6
conflicts and can be set to any integer >= 0 with --budget or the P2S_BUDGET
environment variable; it also bounds the step checks of `explain --check`,
`bench --check` and `proof check`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import statistics
import sys
import time
from pathlib import Path

from .engine import DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    ModelParseError,
    ProofParseError,
    ProofseqError,
)
from .flatten import flatten
from .instances import KINDS, generate_instance
from .model import parse_model, serialize_model
from .oracle import Oracle, Sat
from .pipeline import VARIANTS, run_pipeline, variant
from .proofcore import check_proof, parse_drcp, serialize_proof, trim
from .prover import solve_with_proof
from .sequence import render_text, to_json, validate_sequence


def _non_negative(text: str) -> int:
    """The argparse type of --budget and of bench -n, which also reads
    P2S_BUDGET: an integer >= 0 (a budget of 0 allows no conflict)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("P2S_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return _non_negative(env)
    except argparse.ArgumentTypeError as e:
        raise ModelParseError(f"P2S_BUDGET {e}") from None


def _comma_list(convert):
    """argparse type: a comma-separated list, each item through convert; a
    repeated item is kept once, at its first position."""

    def parse(text: str) -> list:
        try:
            return list(dict.fromkeys(convert(item) for item in text.split(",")))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


def _load_model(path: str):
    return parse_model(Path(path).read_text(encoding="utf-8"))


def _stage_times(stages, solve_ms: float | None) -> str:
    parts = [] if solve_ms is None else [f"solve={solve_ms:.1f}"]
    parts += [f"{s.name}={s.ms:.1f}" for s in stages if s.name != "proof"]
    return ";".join(parts)


# --- explain ----------------------------------------------------------------


def cmd_explain(args) -> int:
    if args.solve == (args.proof is not None):
        print("error: give a proof file or --solve, not both", file=sys.stderr)
        return 2
    if args.log_all and not args.solve:
        print("error: --log-all needs --solve", file=sys.stderr)
        return 2
    model = _load_model(args.model)
    solver = flatten(model, decompose_alldiff=args.decompose_alldiff)
    budget = _budget(args)
    solve_ms = None
    if args.solve:
        t0 = time.perf_counter()
        res, text = solve_with_proof(solver, budget=budget, log_all=args.log_all)
        solve_ms = (time.perf_counter() - t0) * 1000.0
        if isinstance(res, Sat):
            print("model is satisfiable")
            return 0
    else:
        text = Path(args.proof).read_text(encoding="utf-8")
    proof = parse_drcp(text, solver)
    if not proof.is_refutation():
        print("error: proof is not a refutation (no UNSAT conclusion)", file=sys.stderr)
        return 3
    result = run_pipeline(model, proof, args.variant, solver, budget=budget)
    seq = result.sequence
    if args.check:
        bad = validate_sequence(seq, model, Oracle(model.vars, budget=budget))
        if bad or not seq.derives_false():
            print(f"check failed: invalid steps {bad}", file=sys.stderr)
            return 3
    if args.format == "structured":
        sys.stdout.write(to_json(seq))
    else:
        sys.stdout.write(render_text(seq, model))
    print(f"len={seq.sequence_length} maxstep={seq.max_stepsize}")
    return 0


# --- bench ------------------------------------------------------------------


def cmd_bench(args) -> int:
    suites = [args.suite] if args.suite else ["sudoku4", "jobshop", "mutated"]
    names = args.variants or list(VARIANTS)
    seeds = args.seeds or list(range(args.seed, args.seed + args.n))
    budget = _budget(args)

    agg: dict[tuple[str, str], list[tuple[int, int]]] = {}
    failures = []
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.writer(out)
        writer.writerow(["suite", "seed", "variant", "len", "maxstep",
                         "stage_times_ms", "oracle_calls"])
        for suite in suites:
            for seed in seeds:
                try:
                    model = generate_instance(suite, seed)
                    solver = flatten(model, decompose_alldiff=args.decompose_alldiff)
                    t0 = time.perf_counter()
                    res, text = solve_with_proof(solver, budget=budget, log_all=args.log_all)
                    solve_ms = (time.perf_counter() - t0) * 1000.0
                    proof = parse_drcp(text, solver)
                except ProofseqError as e:
                    failures.append((suite, seed, "-", str(e)))
                    continue
                for name in names:
                    try:
                        r = run_pipeline(model, proof, name, solver, budget=budget)
                        if args.check and (
                                validate_sequence(r.sequence, model,
                                                  Oracle(model.vars, budget=budget))
                                or not r.sequence.derives_false()):
                            raise ProofseqError("sequence validation failed")
                    except ProofseqError as e:
                        failures.append((suite, seed, name, str(e)))
                        continue
                    seq = r.sequence
                    writer.writerow([suite, seed, name, seq.sequence_length, seq.max_stepsize,
                                     _stage_times(r.stages, solve_ms), r.oracle_calls])
                    agg.setdefault((suite, name), []).append(
                        (seq.sequence_length, seq.max_stepsize))
    for (suite, name), rows in agg.items():
        lens = [a for a, _ in rows]
        steps = [b for _, b in rows]
        print(f"# {suite:8s} {name:14s} n={len(rows):3d} "
              f"len avg {statistics.mean(lens):6.2f} (±{statistics.pstdev(lens):.2f}) "
              f"med {statistics.median(lens):5.1f} | "
              f"maxstep avg {statistics.mean(steps):5.2f} (±{statistics.pstdev(steps):.2f}) "
              f"med {statistics.median(steps):4.1f}")
    for suite, seed, name, msg in failures:
        print(f"# FAILED {suite} seed={seed} variant={name}: {msg}")
    return 0


# --- proof tools ------------------------------------------------------------


def cmd_proof(args) -> int:
    model = _load_model(args.model)
    solver = flatten(model, decompose_alldiff=args.decompose_alldiff)
    proof = parse_drcp(Path(args.proof).read_text(encoding="utf-8"), solver)
    if args.action == "check":
        bad = check_proof(proof, solver, Oracle(solver.vars, budget=_budget(args)))
        total = len(proof.steps)
        print(f"{total - len(bad)}/{total} steps valid")
        if bad:
            print(f"invalid steps: {', '.join(map(str, bad))}", file=sys.stderr)
            return 3
        return 0
    if args.action == "trim":
        sys.stdout.write(serialize_proof(trim(proof)))
        return 0
    # stats: proof sizes after each pipeline stage
    result = run_pipeline(model, proof, args.variant, solver, budget=_budget(args))
    sizes = result.stage_sizes()
    print("variant," + ",".join(sizes))
    print(args.variant + "," + ",".join(map(str, sizes.values())))
    return 0


# --- generate (convenience for inspecting benchmark models) -------------------


def cmd_generate(args) -> int:
    model = generate_instance(args.kind, args.seed)
    sys.stdout.write(serialize_model(model))
    return 0


# --- dispatch ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="proofseq",
                                 description="turn unsatisfiability proofs into step-wise explanations")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("explain", help="explain an unsatisfiable model from a proof")
    pe.add_argument("model", help="model file")
    pe.add_argument("proof", nargs="?", help="proof file (omit with --solve)")
    pe.add_argument("--solve", action="store_true",
                    help="run the embedded prover instead of reading a proof file")
    pe.add_argument("--log-all", action="store_true",
                    help="with --solve: log every propagation, not just conflict ones")
    pe.add_argument("--variant", default="trim+minglob", choices=list(VARIANTS))
    pe.add_argument("--decompose-alldiff", action="store_true",
                    help="flatten alldifferent into pairwise disequalities")
    pe.add_argument("--format", default="text", choices=["text", "structured"])
    pe.add_argument("--check", action="store_true",
                    help="oracle-validate every explanation step")
    pe.add_argument("--budget", type=_non_negative, default=None)
    pe.set_defaults(func=cmd_explain)

    pb = sub.add_parser("bench", help="run generated suites and report metrics")
    pb.add_argument("--suite", choices=list(KINDS), default=None,
                    help="one suite (default: sudoku4, jobshop and mutated)")
    pb.add_argument("-n", type=_non_negative, default=5,
                    help="number of seeds (with --seed start)")
    pb.add_argument("--seed", type=int, default=1, help="first seed")
    pb.add_argument("--seeds", type=_comma_list(int), default=None,
                    help="explicit comma-separated seed list")
    pb.add_argument("--variants", type=_comma_list(lambda name: variant(name).name),
                    default=None, help="comma-separated variant names")
    pb.add_argument("--check", action="store_true")
    pb.add_argument("--log-all", action="store_true",
                    help="log every propagation in the generated proofs")
    pb.add_argument("--decompose-alldiff", action="store_true")
    pb.add_argument("--out", default=None, help="write CSV rows to a file")
    pb.add_argument("--budget", type=_non_negative, default=None)
    pb.set_defaults(func=cmd_bench)

    pp = sub.add_parser("proof", help="inspect, validate or trim a proof")
    pp.add_argument("action", choices=["check", "trim", "stats"])
    pp.add_argument("proof", help="proof file")
    pp.add_argument("model", help="model file")
    pp.add_argument("--variant", default="trim+minglob", choices=list(VARIANTS),
                    help="pipeline used for the stats action")
    pp.add_argument("--decompose-alldiff", action="store_true")
    pp.add_argument("--budget", type=_non_negative, default=None)
    pp.set_defaults(func=cmd_proof)

    pg = sub.add_parser("generate", help="emit a generated benchmark model")
    pg.add_argument("kind", choices=list(KINDS))
    pg.add_argument("--seed", type=int, default=1)
    pg.set_defaults(func=cmd_generate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelParseError, ProofParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    except ProofseqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
