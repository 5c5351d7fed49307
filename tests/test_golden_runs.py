"""Golden training runs, pinned so that they hold on any BLAS kernel.

Each case trains in-process on a small ``synth.directional_corpus`` split
and is checked against the record ``golden_runs.json`` beside this file:

- exactly: the test labels by id, every epoch's dev macro-F1, the kept
  epoch and the epoch count;
- to a relative 1e-10: every epoch's mean loss, and every parameter, each
  entry relative to the largest magnitude in its block.

No bytes are pinned: another OpenBLAS kernel (``OPENBLAS_CORETYPE``) sums
in another order and moves the last bits of every parameter.  A label pin
means something only away from a tie, so every comparison a test label
rests on must be won by more than ``MIN_MARGIN``.

A deliberate numeric change rewrites the record:

    PYTHONPATH=src python tests/test_golden_runs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from sdprel.corpus import align_corpus
from sdprel.infer_eval import predict_corpus
from sdprel.network import BLOCKS
from sdprel.training import config_from_mapping, run_training
from synth import SYNTH_LABELS, directional_corpus

RECORD = Path(__file__).with_name("golden_runs.json")
RTOL = 1e-10
MIN_MARGIN = 1e-6

#: Split name: (instances, corpus seed, first id).
SPLITS = {"train": (120, 1, 1), "dev": (40, 1001, 1001), "test": (40, 2001, 2001)}
SIZES = {"d": "6", "n1": "8", "n2": "6", "max_epochs": "4", "learning_rate": "0.1"}
#: Case name: regime, negatives and path mode.
CASES = {
    "blind, labeled": {"regime": "blind", "negatives": "none"},
    "sighted, labeled": {"regime": "sighted", "negatives": "none"},
    "sighted-ns, labeled": {"regime": "sighted-ns"},
    "sighted-ns, directions-only": {"regime": "sighted-ns", "mode": "directions-only"},
}


def split(name):
    n, seed, start = SPLITS[name]
    return align_corpus(*directional_corpus(n, seed=seed, start_id=start))


def gap(probs):
    """How far the largest probability leads the next."""
    second, first = np.sort(probs)[-2:]
    return first - second


def margin(prediction):
    """The smallest lead among the comparisons that decide the label: one
    argmax, or for two directions both argmaxes, both best relations and
    the contest between them (``combine``)."""
    fwd, rev = prediction.fwd_probs, prediction.rev_probs
    if rev is None:
        return gap(fwd)
    other = len(fwd) - 1
    best = abs(fwd[:other].max() - rev[:other].max())
    return min(gap(fwd), gap(rev), gap(fwd[:other]), gap(rev[:other]), best)


def run(case):
    """Train one case and return its record fields and the test predictions."""
    config = config_from_mapping({**SIZES, **CASES[case]})
    model, history, _ = run_training(config, split("train"), split("dev"), SYNTH_LABELS)
    predictions, _ = predict_corpus(model, split("test"))
    dev_f1 = [h.dev_f1 for h in history]
    fields = {
        "labels": {str(p.id): str(p.final) for p in predictions},
        "dev_f1": dev_f1,
        "kept_epoch": history[dev_f1.index(max(dev_f1))].epoch,
        "epochs": len(history),
        "mean_loss": [h.mean_loss for h in history],
        **{name: getattr(model.params, name).tolist() for name in BLOCKS},
    }
    return fields, predictions


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_holds_every_case(record):
    assert list(record) == list(CASES)


@pytest.mark.parametrize("case", CASES)
def test_training_reproduces_the_golden_run(record, case):
    got, predictions = run(case)
    want = record[case]
    for key in ("labels", "dev_f1", "kept_epoch", "epochs"):
        assert got[key] == want[key], key
    assert len(got["mean_loss"]) == len(want["mean_loss"])
    assert np.allclose(got["mean_loss"], want["mean_loss"], rtol=RTOL, atol=0)
    for name in BLOCKS:
        block, pinned = np.array(got[name]), np.array(want[name])
        assert block.shape == pinned.shape, name
        assert np.abs(block - pinned).max() <= RTOL * np.abs(pinned).max(), name
    margins = {p.id: margin(p) for p in predictions}
    assert min(margins.values()) > MIN_MARGIN, f"a label within {MIN_MARGIN} of a tie: {margins}"


def write_record() -> None:
    """Rewrite the record, one line per case field."""
    cases = []
    for case in CASES:
        fields, _ = run(case)
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in fields.items())
        cases.append(f" {json.dumps(case)}: {{\n{body}\n }}")
    RECORD.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
    print(f"wrote {RECORD}")


if __name__ == "__main__":
    write_record()
