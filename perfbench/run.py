"""proofseq benchmark: end-to-end explain metrics and a traced per-layer breakdown.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

One operation is one explanation (see workloads.explain). A run generates
the workload's instances (set-up), then runs whole passes over the
workload's operations, each in a new order drawn from --seed, until the
passes add up to about --seconds of timed work, and at least MIN_PASSES.
Set-up is timed again before every further pass, and at least SETUP_REPEATS
times. --offset shifts every workload's instance seed range; 0 gives the
reference ranges. Outputs of the first pass are checked independently
(check.py) outside the timed region; every later pass must reproduce them
exactly. A fixed probe loop timed between operations and around set-up
(calibrate.py) gives the machine's slowness around each timed piece of
work; the reported times are divided by it.

--trace 0 reports the end-to-end metrics. --trace 1 follows the first pass
with one pass that runs every operation untraced and then traced, reports
the per-layer metrics and writes the spans to .perfbench_out/. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "proofseq").is_dir():
    sys.exit(f"error: no proofseq sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from proofseq.errors import ProofseqError  # noqa: E402
from proofseq.sequence import to_json  # noqa: E402

from calibrate import Calibration  # noqa: E402
from check import check_sequence  # noqa: E402
from spans import Tracer, installed, layer_metrics  # noqa: E402
from workloads import WORKLOADS, explain, no_span  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPEATS = 5
MIN_PASSES = 2
STAGES = ("no_aux", "user_cons", "min1", "domain_red", "min2", "merged")
clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="orders the operations of every pass")
    ap.add_argument("--seconds", type=float, default=30.0, help="timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--offset", type=int, default=0,
                    help="shift of every instance seed range (0: reference ranges)")
    return ap.parse_args(argv)


@dataclass(slots=True)
class Op:
    """Outcome of one run of one operation."""

    key: tuple
    seconds: float
    result: object = None      # PipelineResult
    proof_steps: int = 0
    error: Optional[str] = None
    start: float = 0.0

    def signature(self) -> tuple:
        """Deterministic outputs: every later sample and run must reproduce them exactly."""
        if self.error is not None:
            return self.key + (self.error,)
        r, seq = self.result, self.result.sequence
        content = hashlib.sha256(to_json(seq).encode()).hexdigest()[:16]
        return self.key + ("ok", seq.sequence_length, seq.max_stepsize, r.oracle_calls,
                           self.proof_steps, tuple(s.steps for s in r.stages), content)


def run_op(key, models, w, span=no_span) -> Op:
    suite, seed, variant = key
    t0 = clock()
    try:
        result, steps = explain(models[(suite, seed)], variant, w, span)
        op = Op(key, 0.0, result, steps)
    except ProofseqError as e:
        op = Op(key, 0.0, error=type(e).__name__)
    except Exception as e:  # a crash is a failed operation and an incorrect run
        op = Op(key, 0.0, error="crash:" + type(e).__name__)
    op.start, op.seconds = t0, clock() - t0
    return op


def run_pass(order, models, w, cal) -> dict:
    ops = {}
    for key in order:
        cal.tick()
        ops[key] = run_op(key, models, w)
    return ops


def run_traced(order, models, w, tracer):
    """Run each operation untraced and at once traced, so that both see the
    same state of the machine; (traced outcomes, untraced seconds by key)."""
    ops, untraced = {}, {}
    for n, key in enumerate(order):
        untraced[key] = run_op(key, models, w).seconds
        tracer.op = n
        with installed(tracer):
            root = tracer.begin("op")
            ops[key] = run_op(key, models, w, tracer.span)
            tracer.end(root)
    return ops, untraced


def timed_build(w, offset, cal):
    """Generate the workload's instances; (models, (start, seconds))."""
    cal.tick(force=True)
    t0 = clock()
    models = w.build(offset)
    t1 = clock()
    cal.tick(force=True)
    return models, (t0, t1 - t0)


def freeze_retained():
    """Move everything the benchmark keeps (models, first-pass results) out of
    the garbage collector's reach. Otherwise every full collection during an
    operation scans them, which charges the operation for the benchmark's
    own heap: a process explaining one model holds only that model."""
    gc.collect()
    gc.freeze()


def check_pass(first, models) -> dict:
    """Independent check of every successful operation of the first pass."""
    bad, steps, independent, validate_s = set(), 0, 0, 0.0
    for key, op in first.items():
        if op.error is not None:
            if op.error.startswith("crash:"):
                bad.add(key)
            continue
        try:
            res = check_sequence(op.result.sequence, models[key[:2]], clock)
        except Exception as e:  # an unreadable sequence fails its check
            print(f"# check error {key}: {type(e).__name__}: {e}")
            bad.add(key)
            continue
        steps += res.steps
        independent += res.independent
        validate_s += res.validate_s
        if not res.ok:
            print(f"# check failed {key}: invalid steps {res.bad}")
            bad.add(key)
    return {"bad": bad, "independent_frac": independent / steps if steps else 0.0,
            "validate_ms": 1000.0 * validate_s}


def digest(first, operations) -> str:
    h = hashlib.sha256()
    for key in operations:
        h.update(repr(first[key].signature()).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def end_to_end(first, samples, bad, setup_s, cal) -> dict:
    """Every time is in reference seconds (calibrate.py), which keeps slow
    windows of the machine out of the figures. Latencies are each
    operation's median over the passes, and throughput is one pass's
    successful operations over the median pass time: both keep a slow
    moment out as well. samples[key][j] is (start, seconds) of pass j."""
    ref = {key: [cal.reference_s(*s) for s in samples[key]] for key in first}
    lat = [1000.0 * statistics.median(ref[key]) for key in first]
    passes = len(next(iter(ref.values())))
    pass_s = [sum(ref[key][j] for key in first) for j in range(passes)]
    good = [op for op in first.values() if op.error is None and op.key not in bad]
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else [lat[0]] * 9
    return {
        "explain_per_s": (len(good) / statistics.median(pass_s), "1/s"),
        "explain_ms.p50": (statistics.median(lat), "ms"),
        "explain_ms.p90": (deciles[8], "ms"),
        "ok_frac": (len(good) / len(first), "ratio"),
        "len_mean": (statistics.mean(op.result.sequence.sequence_length for op in good)
                     if good else 0.0, "steps"),
        "maxstep_mean": (statistics.mean(op.result.sequence.max_stepsize for op in good)
                         if good else 0.0, "constraints"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(first, traced_ops, tracer, checked, untraced_s, traced_s) -> dict:
    out = layer_metrics(tracer.spans)
    # stage figures are the program's own timers, read from the untraced pass
    out["prover.proof_steps"] = (sum(op.proof_steps for op in traced_ops.values()), "count")
    for stage in STAGES:
        stats = [s for op in first.values() if op.error is None
                 for s in op.result.stages if s.name == stage]
        out[f"pipeline.{stage}.ms"] = (sum(s.ms for s in stats), "ms")
        out[f"pipeline.{stage}.steps"] = (sum(s.steps for s in stats), "count")
    out["sequence.validate_ms"] = (checked["validate_ms"], "ms")
    out["check.independent_frac"] = (checked["independent_frac"], "ratio")
    out["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cal = Calibration(clock)
    models, timing = timed_build(w, args.offset, cal)
    build_s, repeatable = [timing], True

    def rebuild():
        # set-up is timed again between passes, so that its median spans the
        # run as the operations' medians do; every repeat must generate the
        # same models
        nonlocal repeatable
        built, timing = timed_build(w, args.offset, cal)
        build_s.append(timing)
        repeatable = repeatable and built == models

    freeze_retained()
    operations = w.operations(args.offset)
    rng = random.Random(args.seed)

    def shuffled():
        order = list(operations)
        rng.shuffle(order)
        return order

    first = run_pass(shuffled(), models, w, cal)
    checked = check_pass(first, models)
    freeze_retained()
    bad = checked["bad"]  # includes first-pass crashes; a later crash breaks `repeated`
    reference = {k: op.signature() for k, op in first.items()}
    samples = {k: [(op.start, op.seconds)] for k, op in first.items()}
    pass_s = [sum(op.seconds for op in first.values())]
    repeated = True
    tracer = traced = None
    if args.trace:
        tracer = Tracer(clock)
        traced, untraced = run_traced(shuffled(), models, w, tracer)
        repeated = all(op.signature() == reference[k] for k, op in traced.items())
        for k, op in traced.items():
            samples[k] += [(None, untraced[k]), (op.start, op.seconds)]
    else:
        # at least MIN_PASSES, so that every operation has a repeat; then stop
        # at the number of whole passes whose total is nearest --seconds
        while len(pass_s) < MIN_PASSES or sum(pass_s) + pass_s[-1] / 2 < args.seconds:
            rebuild()
            gc.collect()
            ops = run_pass(shuffled(), models, w, cal)
            repeated = repeated and all(op.signature() == reference[k] for k, op in ops.items())
            for k, op in ops.items():
                samples[k].append((op.start, op.seconds))
            pass_s.append(sum(op.seconds for op in ops.values()))
    while len(build_s) < SETUP_REPEATS:
        rebuild()
    correct = repeatable and repeated and not bad
    attempted = sum(len(v) for v in samples.values())
    failed = sum(len(samples[k]) for k, op in first.items() if op.error or k in bad)

    print(f"# workload {w.name}  offset {args.offset}  seed {args.seed}  "
          f"operations {len(operations)}  samples {attempted}  passes {len(pass_s)}  "
          f"timed {sum(pass_s):.2f} s")
    print(f"# digest {w.name} offset {args.offset} {digest(first, operations)}")
    print(f"# setup: generation repeatable {repeatable}; samples repeat the first pass {repeated}; "
          f"operations failing their check {len(bad)}; failed_frac "
          f"{sum(1 for k, op in first.items() if op.error or k in bad) / len(first):.6f}")
    if args.trace:
        traced_s = sum(op.seconds for op in traced.values())
        metrics = per_layer(first, traced, tracer, checked, sum(untraced.values()), traced_s)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{w.name}-offset{args.offset}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        setup_s = (cal.reference_s(T_START, IMPORT_S)
                   + statistics.median(cal.reference_s(*b) for b in build_s))
        print(f"# mean slowness {cal.mean_slowness():.4f} over {len(cal.times)} probe ticks; "
              f"as measured: setup {IMPORT_S + statistics.median(s for _, s in build_s):.4f} s, "
              f"median pass {statistics.median(pass_s):.4f} s")
        metrics = end_to_end(first, samples, bad, setup_s, cal)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
