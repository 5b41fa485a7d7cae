"""Workloads and the benchmark's unit of work.

One operation is one explanation: what `proofseq explain MODEL --solve
--variant V` does in-process, namely flatten -> solve_with_proof ->
parse_drcp -> run_pipeline. Generating the instances is set-up.

The reasons for each workload are recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from proofseq import flatten as _flatten
from proofseq import pipeline as _pipeline
from proofseq import proofcore as _proofcore
from proofseq import prover as _prover
from proofseq.cli import DEFAULT_BUDGET
from proofseq.errors import ProofseqError
from proofseq.instances import generate_instance
from proofseq.oracle import Sat
from proofseq.pipeline import VARIANTS


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    first_seed: int
    n_seeds: int
    variants: tuple[str, ...]
    budget: int = DEFAULT_BUDGET
    log_all: bool = False
    decompose_alldiff: bool = False

    def instance_seeds(self, offset: int) -> range:
        return range(self.first_seed + offset, self.first_seed + offset + self.n_seeds)

    def build(self, offset: int) -> dict:
        """(suite, seed) -> generated model, in suite-major order."""
        return {(suite, seed): generate_instance(suite, seed)
                for suite in self.suites for seed in self.instance_seeds(offset)}

    def operations(self, offset: int) -> list[tuple[str, int, str]]:
        """(suite, seed, variant) in the row order of `proofseq bench`."""
        return [(suite, seed, v) for suite in self.suites
                for seed in self.instance_seeds(offset) for v in self.variants]


WORKLOADS = {w.name: w for w in (
    Workload("small-mix", ("sudoku4", "jobshop", "mutated"), 1, 20, tuple(VARIANTS)),
    # seeds 13 and 15 exhaust this budget; seed 15 does not finish at 2000
    # conflicts within 140 s, so a larger budget would make the run unbounded
    Workload("sudoku9-minloc", ("sudoku9",), 1, 20, ("trim+minloc",), budget=500),
    Workload("sudoku9-proof", ("sudoku9",), 1, 200, ("trim",),
             log_all=True, decompose_alldiff=True),
)}


class OperationFailed(ProofseqError):
    """The model has no refutation to explain."""


def no_span(name: str):
    return nullcontext()


def explain(model, variant: str, w: Workload, span=no_span):
    """One operation; returns (PipelineResult, number of proof steps).

    Raises ProofseqError subclasses on failure, as the CLI would. `span(name)`
    gives a context manager around each layer call, for tracing.
    """
    with span("flatten"):
        solver = _flatten.flatten(model, decompose_alldiff=w.decompose_alldiff)
    with span("prover"):
        res, text = _prover.solve_with_proof(solver, budget=w.budget, log_all=w.log_all)
    if isinstance(res, Sat):
        raise OperationFailed("model is satisfiable")
    with span("proofcore.parse"):
        proof = _proofcore.parse_drcp(text, solver)
    if not proof.is_refutation():
        raise OperationFailed("proof is not a refutation")
    with span("pipeline"):
        result = _pipeline.run_pipeline(model, proof, variant, solver, budget=w.budget)
    return result, len(proof.steps)
