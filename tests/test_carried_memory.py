"""What a minimization pass carries from one query to the next.

A global pass keeps the Sat models of its queries, and each later query
seeds a correction set from every kept model that satisfies its hard
constraints, after those of its own deletion models: the soft members that
the model violates. On sudoku4, jobshop and mutated seeds 1-3, the seeded
sets of each query of the three `minglob` variants must be these
complements, by `eval_expr`, in order and each set once.

`run_pipeline` remembers every MUS its two minimization stages return, and
a local query whose candidates are one keeps them all without an oracle
call. On sudoku4, jobshop and mutated seeds 1-20, `minloc+minloc` and
`minglob+minloc` must give every minimization stage the same output as a
run whose memory finds nothing, with no more oracle calls.
"""

import pytest

from proofseq import mus, pipeline
from proofseq.flatten import flatten
from proofseq.instances import generate_instance
from proofseq.model import eval_expr
from proofseq.proofcore import parse_drcp
from proofseq.prover import solve_with_proof

SUITES = ("sudoku4", "jobshop", "mutated")


def _instance(suite, seed):
    model = generate_instance(suite, seed)
    solver = flatten(model)
    return model, solver, parse_drcp(solve_with_proof(solver)[1], solver)


def test_seeded_correction_sets_are_the_complements_of_kept_models():
    seen = dict.fromkeys(("queries with models", "seeded sets"), 0)
    seed_sets = mus._model_correction_sets

    def checked(soft, hard, models):
        out = seed_sets(soft, hard, models)
        complements = [frozenset(j for j, c in enumerate(soft) if not eval_expr(c, m))
                       for m in models if all(eval_expr(h, m) for h in hard)]
        assert out == list(dict.fromkeys(complements))
        seen["queries with models"] += bool(models)
        seen["seeded sets"] += len(out)
        return out

    for suite in SUITES:
        for seed in (1, 2, 3):
            model, solver, proof = _instance(suite, seed)
            for variant in ("trim+minglob", "minglob", "minglob+minloc"):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mus, "_model_correction_sets", checked)
                    pipeline.run_pipeline(model, proof, variant, solver)
    assert min(seen.values()) >= 50, seen


class _Forgetful(set):
    """A memory that finds nothing."""

    def __contains__(self, item):
        return False


def _stage_outputs(model, solver, proof, variant, forget):
    """The output of each minimization stage, and the run's oracle calls."""
    outputs = []
    minimize = pipeline.minimize_reasons

    def recorded(p, mode, user_model, oracle, proved=None):
        out = minimize(p, mode, user_model, oracle, _Forgetful() if forget else proved)
        outputs.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "minimize_reasons", recorded)
        result = pipeline.run_pipeline(model, proof, variant, solver)
    return outputs, result.oracle_calls


def test_remembered_muses_keep_every_reason_and_save_calls():
    saved = 0
    for suite in SUITES:
        for seed in range(1, 21):
            model, solver, proof = _instance(suite, seed)
            for variant in ("minloc+minloc", "minglob+minloc"):
                got, calls = _stage_outputs(model, solver, proof, variant, forget=False)
                expected, ref_calls = _stage_outputs(model, solver, proof, variant, forget=True)
                assert got == expected, (suite, seed, variant)
                assert calls <= ref_calls, (suite, seed, variant)
                saved += ref_calls - calls
    assert saved >= 100, saved
