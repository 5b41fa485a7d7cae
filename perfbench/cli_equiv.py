"""Show that the benchmark's operation is the shipped code path.

    python3 perfbench/cli_equiv.py

Runs one untimed pass of the small-mix workload in-process and
`proofseq bench --suite S -n 20` for each of its suites, and
compares len, maxstep and oracle_calls row by row. Exits 0 when all rows
agree, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from proofseq.cli import main as proofseq_main  # noqa: E402

from workloads import WORKLOADS, explain  # noqa: E402


def main() -> int:
    w = WORKLOADS["small-mix"]
    models = w.build(0)
    ours = {}
    for suite, seed, variant in w.operations(0):
        result, _ = explain(models[(suite, seed)], variant, w)
        seq = result.sequence
        ours[(suite, str(seed), variant)] = (str(seq.sequence_length), str(seq.max_stepsize),
                                             str(result.oracle_calls))
    theirs = {}
    for suite in w.suites:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = proofseq_main(["bench", "--suite", suite, "-n", str(w.n_seeds)])
        if code != 0:
            print(f"proofseq bench --suite {suite} exited {code}")
            return 1
        rows = csv.DictReader(line for line in buf.getvalue().splitlines()
                              if not line.startswith("#"))
        for r in rows:
            theirs[(r["suite"], r["seed"], r["variant"])] = (r["len"], r["maxstep"],
                                                             r["oracle_calls"])
    differing = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    for k in differing:
        print(f"differs {k}: benchmark {ours.get(k)} cli {theirs.get(k)}")
    print(f"{len(ours)} benchmark rows, {len(theirs)} cli rows, {len(differing)} differ")
    return 1 if differing or not ours else 0


if __name__ == "__main__":
    sys.exit(main())
