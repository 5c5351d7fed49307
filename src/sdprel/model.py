"""The trained-model artifact: everything needed to classify new instances.

Saved as a single JSON document.  Floats survive the round trip bit-exactly
(shortest round-trip decimal representation), so save/load/save is stable.
``hyperparams.train_pad`` is a fixed ``false``, kept so the file format does
not change; the pad column is never trained, and loading ignores the key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .corpus import LabelSet
from .deppath import PathMode
from .embeddings import Vocab
from .network import BLOCKS, Hyperparams, NetworkParams

FORMAT_TAG = "sdprel-model/1"


class Regime(Enum):
    """How subject/object assignments are used in training and inference.

    BLIND trains and predicts over the doubled directed class space on the
    e1→e2 path.  SIGHTED trains on the gold subject→object path over base
    classes and is scored with the assignment given.  SIGHTED_NS adds
    negative examples in training and classifies blind inputs by running
    both path directions and combining.
    """

    BLIND = "blind"
    SIGHTED = "sighted"
    SIGHTED_NS = "sighted-ns"


def class_space_size(regime: Regime, labels: LabelSet) -> int:
    """The network's output size: both directions of every relation plus
    Other under BLIND, the base relations plus Other otherwise."""
    if regime is Regime.BLIND:
        return 2 * labels.n_relations + 1
    return labels.n_relations + 1


@dataclass
class TrainedModel:
    hp: Hyperparams
    vocab: Vocab
    labels: LabelSet
    mode: PathMode
    regime: Regime
    params: NetworkParams


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format": FORMAT_TAG,
        "hyperparams": {**asdict(model.hp), "train_pad": False},
        "mode": model.mode.value,
        "regime": model.regime.value,
        "labels": list(model.labels.bases),
        "vocab": {
            "items": list(model.vocab.items),
            "word_strings": sorted(model.vocab.word_strings),
        },
        "params": {name: getattr(model.params, name).tolist() for name in BLOCKS},
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; a file that is not a model raises a ValueError
    naming the path and, when a key is missing, the key.  So does a class
    count K that does not fit the file's regime and labels."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSON syntax or text encoding
        raise ValueError(f"model file {path}: not valid JSON: {e}") from None
    tag = doc.get("format") if isinstance(doc, dict) else None
    if tag != FORMAT_TAG:
        raise ValueError(
            f"model file {path}: unsupported model format {tag!r} (expected {FORMAT_TAG!r})"
        )
    try:
        hyperparams = dict(doc["hyperparams"])
        hyperparams.pop("train_pad", None)
        hp = Hyperparams(**hyperparams)
        params = NetworkParams(
            **{name: np.array(doc["params"][name], dtype=np.float64) for name in BLOCKS}
        )
        params.check_shapes(hp)
        vocab = Vocab(tuple(doc["vocab"]["items"]), frozenset(doc["vocab"]["word_strings"]))
        labels = LabelSet(tuple(doc["labels"]))
        regime = Regime(doc["regime"])
        need_k = class_space_size(regime, labels)
        if hp.K != need_k:
            raise ValueError(
                f"model has {hp.K} classes but regime {regime.value} needs {need_k}"
            )
        return TrainedModel(hp, vocab, labels, PathMode(doc["mode"]), regime, params)
    except KeyError as e:
        raise ValueError(f"model file {path}: missing key {e.args[0]!r}") from None
    except (IndexError, TypeError, ValueError) as e:  # wrong types or shapes
        raise ValueError(f"model file {path}: {e}") from None
