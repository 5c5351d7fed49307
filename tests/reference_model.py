"""The whole-document model writer and reader that ``sdprel.model.save_model``
and ``load_model`` replaced, kept as references.

``model_json`` builds the document as one dict, with every parameter block
turned into nested Python lists, and writes one ``json.dumps`` of it.
``save_model`` streams the same text one parameter row at a time; its bytes
must equal this function's (see ``test_model.py``).

``load_model`` parses the whole file with one ``json.loads`` and builds each
block from nested lists.  ``sdprel.model.load_model`` reads ``save_model``'s
layout one piece and one parameter row at a time, and any other layout or
text whole with ``json.loads``; it must give the same parameter bytes and
fields, or the same error, for every file (see ``test_piece_readers.py``).
This module is not used outside the tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from sdprel.corpus import LabelSet
from sdprel.deppath import PathMode
from sdprel.embeddings import Vocab
from sdprel.model import FORMAT_TAG, Regime, TrainedModel, _strings, class_labels
from sdprel.network import BLOCKS, Hyperparams, NetworkParams


def model_json(model: TrainedModel) -> str:
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
    return json.dumps(doc)


def load_model(path: str | Path) -> TrainedModel:
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
        for name, block in zip(BLOCKS, params.blocks()):
            if not np.isfinite(block).all():
                raise ValueError(f"block {name} holds a non-finite value")
        vocab = Vocab(
            tuple(_strings(doc["vocab"]["items"], "vocab.items")),
            frozenset(_strings(doc["vocab"]["word_strings"], "vocab.word_strings")),
        )
        if params.We.shape[1] != len(vocab):
            raise ValueError(
                f"We has {params.We.shape[1]} columns but the vocabulary has {len(vocab)} items"
            )
        labels = LabelSet(tuple(_strings(doc["labels"], "labels")))
        regime = Regime(doc["regime"])
        need_k = len(class_labels(regime, labels))
        if hp.K != need_k:
            raise ValueError(
                f"model has {hp.K} classes but regime {regime.value} needs {need_k}"
            )
        return TrainedModel(hp, vocab, labels, PathMode(doc["mode"]), regime, params)
    except KeyError as e:
        raise ValueError(f"model file {path}: missing key {e.args[0]!r}") from None
    except (IndexError, OverflowError, TypeError, ValueError) as e:  # wrong types or shapes
        raise ValueError(f"model file {path}: {e}") from None
