"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py

* A corrupted answer (a flipped verdict, a perturbed coefficient, a wrong
  printed value) must be counted as failed by the oracle.
* Every count metric of a traced run must repeat exactly for the same seed.
"""

import dataclasses
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import microdiff as md  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _flip_verdict(outcomes):
    i = next(i for i, o in enumerate(outcomes) if isinstance(o, md.UnitVerdict))
    outcomes[i] = dataclasses.replace(outcomes[i], invertible=not outcomes[i].invertible)


def _scale_coefficient(outcomes):
    """Multiply one stored coefficient of the first operator answer by 3."""
    i = next(i for i, o in enumerate(outcomes) if isinstance(o, md.MicroOp))
    S = outcomes[i]
    terms = dict(S.terms)
    alpha = next(iter(terms))
    terms[alpha] = terms[alpha].scale(md.PadicScalar.from_int(3, S.prime))
    outcomes[i] = md.MicroOp(S.dim, S.prime, terms, S.tail, S.neg_tail)


def _shift_constant(outcomes):
    """Add 1 to the constant coefficient of the first inverse."""
    i = next(i for i, o in enumerate(outcomes) if isinstance(o, md.MicroOp))
    outcomes[i] = outcomes[i] + md.MicroOp.identity(1, outcomes[i].prime)


def _wrong_printed_norm(outcomes):
    i = next(i for i, o in enumerate(outcomes)
             if isinstance(o, tuple) and o[0] == 0 and o[1].startswith("norm = p^"))
    code, text, err = outcomes[i]
    outcomes[i] = (code, re.sub(r"p\^(-?\d+)", lambda m: f"p^{int(m.group(1)) + 1}", text), err)


CORRUPTIONS = {"products": _scale_coefficient, "verdicts": _flip_verdict,
               "inversion": _shift_constant, "cli": _wrong_printed_norm}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracle_counts_a_corrupted_answer(name):
    wl = workloads.BUILDERS[name](SEED)
    outcomes, _, _ = run.run_pass(wl)
    before, after = Counter(), Counter()
    seen = {}
    run.classify(wl, outcomes, before, Counter(), seen)
    CORRUPTIONS[name](outcomes)
    run.classify(wl, outcomes, after, Counter(), seen)
    assert after[workloads.FAILED] == before[workloads.FAILED] + 1


def _traced_counts(name):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(SEED), "--trace", "1"],
                         capture_output=True, text=True, check=True, timeout=600,
                         cwd=HERE.parent)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if metrics[k]["unit"] == "count" or k == "diffop.fold.dropped_ratio"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name):
    first, second = _traced_counts(name), _traced_counts(name)
    assert set(first) >= {f"{layer}.calls" for layer in tracing.LAYERS}
    assert first == second
