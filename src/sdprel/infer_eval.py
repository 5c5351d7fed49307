"""Dual-direction inference and macro-averaged F1 scoring.

Network output k decodes through ``model.class_labels``.  Under SIGHTED_NS
blind test instances are classified by scoring both path directions: the
label is Other only when both directions predict Other, otherwise the
most probable non-Other prediction wins and fixes the direction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import AlignedInstance, DirectedLabel, LabelSet, OTHER_LABEL, parse_decimal, parse_lines
from .deppath import PathError, instance_path, reverse_path, subject_first_path
from .model import Regime, TrainedModel, class_labels
from .network import ConvTable, forward


@dataclass(slots=True)
class Prediction:
    """Per-instance outcome; probability vectors kept for inspection."""

    id: int
    fwd_probs: np.ndarray | None
    rev_probs: np.ndarray | None
    final: DirectedLabel

    @property
    def failed(self) -> bool:
        """Whether the path could not be extracted, so Other was predicted."""
        return self.fwd_probs is None


def combine(fwd_probs: np.ndarray, rev_probs: np.ndarray, labels: LabelSet) -> DirectedLabel:
    """Merge the two direction-wise base-class distributions into one label.

    Other wins only when it is the argmax of both directions; otherwise the
    best non-Other class across both directions decides base and direction,
    ties broken toward the forward (e1→e2) path.
    """
    classes = class_labels(Regime.SIGHTED_NS, labels)
    k = len(classes)
    if fwd_probs.shape != (k,) or rev_probs.shape != (k,):
        raise ValueError(
            f"expected two distributions of length {k}, got "
            f"{fwd_probs.shape} and {rev_probs.shape}"
        )
    other = k - 1
    if fwd_probs.argmax() == other and rev_probs.argmax() == other:
        return classes[other]
    best_fwd = int(fwd_probs[:other].argmax())
    best_rev = int(rev_probs[:other].argmax())
    if fwd_probs[best_fwd] >= rev_probs[best_rev]:
        return classes[best_fwd]
    return class_labels(Regime.SIGHTED_NS, labels, True)[best_rev]


def lexfeat_for(
    inst_id: int, f: int, lexfeats: Mapping[int, np.ndarray] | None
) -> np.ndarray | None:
    """An instance's length-f lexical features; zeros when it has none listed,
    None when the network takes none (f == 0)."""
    if f == 0:
        return None
    if lexfeats is not None and inst_id in lexfeats:
        return lexfeats[inst_id]
    return np.zeros(f)


#: Instances per projection table in ``predict_corpus``.  The table takes
#: ``w · U · n1 · 8`` bytes for the chunk's U distinct ids, whatever the
#: vocabulary size: on 20-30 token sentences a chunk holds about 110 ids
#: (at most 127 seen), about 0.5 MB at the paper's sizes.
PREDICT_CHUNK = 64


def _indexed_paths(
    model: TrainedModel, inst: AlignedInstance
) -> tuple[np.ndarray, np.ndarray | None, bool] | None:
    """The instance's path as an index array, for sighted-ns its reverse, and
    whether the path starts at e2; None when the path cannot be extracted."""
    try:
        if model.regime is Regime.SIGHTED:
            seq, from_e2 = subject_first_path(inst.raw, inst.parse, model.mode)
        else:
            seq, from_e2 = instance_path(inst.raw, inst.parse, model.mode), False
    except PathError:
        return None
    fwd = np.array(model.vocab.indexify(seq), dtype=np.intp)
    if model.regime is not Regime.SIGHTED_NS:
        return fwd, None, from_e2
    return fwd, np.array(model.vocab.indexify(reverse_path(seq)), dtype=np.intp), from_e2


def predict_corpus(
    model: TrainedModel,
    instances: Sequence[AlignedInstance],
    lexfeats: Mapping[int, np.ndarray] | None = None,
) -> tuple[list[Prediction], int]:
    """Classify every instance under the model's regime.

    ``load_model`` and ``run_training`` guarantee that the model's class
    count fits its regime.  Instances whose path cannot be extracted are
    predicted Other; the count of such failures is returned alongside.

    The instances are classified in chunks of PREDICT_CHUNK.  A first pass
    extracts each instance's path once and keeps only its index arrays; a
    ``ConvTable`` over the chunk's distinct ids then serves every forward
    pass of the chunk, so the table's memory is bounded by the chunk, not
    by the vocabulary.  The probabilities match the matmul ``forward`` to
    within 1e-12 (in practice about 1e-16), not bit for bit.
    """
    predictions: list[Prediction] = []
    for start in range(0, len(instances), PREDICT_CHUNK):
        predictions += _predict_chunk(model, instances[start : start + PREDICT_CHUNK], lexfeats)
    return predictions, sum(p.failed for p in predictions)


def _predict_chunk(
    model: TrainedModel,
    chunk: Sequence[AlignedInstance],
    lexfeats: Mapping[int, np.ndarray] | None,
) -> list[Prediction]:
    """Predict one chunk through one projection table.

    The table is freed on return, so only one is alive at a time.
    """
    paths = [_indexed_paths(model, inst) for inst in chunk]
    ids = [a for p in paths if p is not None for a in p[:2] if a is not None]
    table = ConvTable(model.params, model.hp, np.concatenate(ids) if ids else ())
    out = []
    for inst, path in zip(chunk, paths):
        if path is None:
            out.append(Prediction(inst.raw.id, None, None, OTHER_LABEL))
            continue
        fwd, rev, from_e2 = path
        lex = lexfeat_for(inst.raw.id, model.hp.f, lexfeats)
        fwd_probs, _ = forward(model.params, model.hp, fwd, lex, table)
        if rev is None:
            rev_probs = None
            final = class_labels(model.regime, model.labels, from_e2)[int(np.argmax(fwd_probs))]
        else:
            rev_probs, _ = forward(model.params, model.hp, rev, lex, table)
            final = combine(fwd_probs, rev_probs, model.labels)
        out.append(Prediction(inst.raw.id, fwd_probs, rev_probs, final))
    return out


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


@dataclass
class RelationScore:
    precision: float
    recall: float
    f1: float
    tp: int
    n_gold: int
    n_pred: int


@dataclass
class ScoreReport:
    """Per-relation P/R/F1 with direction counted, plus the macro average.

    Relations absent from both gold and predictions are excluded from the
    macro mean (tracked in ``scored_relations``).
    """

    per_relation: dict[str, RelationScore]
    macro_f1: float
    accuracy: float
    confusion: Counter
    n: int
    scored_relations: tuple[str, ...]

    def render(self) -> str:
        width = max((len(r) for r in self.per_relation), default=8)
        lines = [
            f"{'relation':<{width}}  {'P':>7}  {'R':>7}  {'F1':>7}  {'TP':>5}  {'gold':>5}  {'pred':>5}"
        ]
        for name, s in self.per_relation.items():
            mark = "" if name in self.scored_relations else "  (absent)"
            lines.append(
                f"{name:<{width}}  {s.precision:7.4f}  {s.recall:7.4f}  {s.f1:7.4f}"
                f"  {s.tp:5d}  {s.n_gold:5d}  {s.n_pred:5d}{mark}"
            )
        lines.append("")
        lines.append(f"macro_f1\t{self.macro_f1!r}")
        lines.append(f"accuracy\t{self.accuracy!r}")
        lines.append(f"n\t{self.n}")
        for name, s in self.per_relation.items():
            lines.append(f"precision_{name}\t{s.precision!r}")
            lines.append(f"recall_{name}\t{s.recall!r}")
            lines.append(f"f1_{name}\t{s.f1!r}")
        return "\n".join(lines)


def macro_f1(
    gold: Sequence[DirectedLabel],
    pred: Sequence[DirectedLabel],
    labels: LabelSet,
) -> ScoreReport:
    """Directionality-aware macro-averaged F1 over the base relations.

    A true positive needs base and direction both right; precision and
    recall denominators count base matches regardless of direction.  Other
    never enters the macro average.
    """
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    confusion = Counter(zip(map(str, gold), map(str, pred)))
    hits = Counter(g.base for g, p in zip(gold, pred) if g == p)
    n_gold = Counter(g.base for g in gold)
    n_pred = Counter(p.base for p in pred)

    per_relation: dict[str, RelationScore] = {}
    scored: list[str] = []
    f1_sum = 0.0  # added in order: sum() rounds floats differently from Python 3.12 on
    for base in labels.bases:
        tp, in_gold, in_pred = hits[base], n_gold[base], n_pred[base]
        precision = tp / in_pred if in_pred else 0.0
        recall = tp / in_gold if in_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_relation[base] = RelationScore(precision, recall, f1, tp, in_gold, in_pred)
        if in_gold or in_pred:
            scored.append(base)
            f1_sum += f1

    macro = f1_sum / len(scored) if scored else 0.0
    accuracy = hits.total() / len(gold) if gold else 0.0
    return ScoreReport(per_relation, macro, accuracy, confusion, len(gold), tuple(scored))


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------


def write_predictions(predictions: Sequence[Prediction], path: str | Path) -> None:
    """One ``ID<TAB>label`` line per instance, ascending id."""
    rows = sorted(predictions, key=lambda p: p.id)
    text = "".join(f"{p.id}\t{p.final}\n" for p in rows)
    Path(path).write_text(text, encoding="utf-8")


def read_predictions(
    path: str | Path, labels: LabelSet
) -> list[tuple[int, DirectedLabel]]:
    """Read ``ID<TAB>label`` lines, ended by ``\\n`` or ``\\r\\n``, one per instance
    ID; blank lines are skipped, the ID must be ASCII digits alone and the label
    is stripped of surrounding whitespace.  Errors name the file and line."""
    seen: set[int] = set()

    def parse(line: str) -> tuple[int, DirectedLabel]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected 'ID<TAB>label'")
        inst_id = parse_decimal(parts[0], "instance id")
        if inst_id in seen:
            raise ValueError(f"duplicate instance id {inst_id}")
        seen.add(inst_id)
        return inst_id, labels.parse(parts[1])

    return parse_lines(path, parse)
