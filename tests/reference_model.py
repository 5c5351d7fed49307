"""The whole-document model writer that ``sdprel.model.save_model`` replaced,
kept as a reference.

This version builds the document as one dict, with every parameter block
turned into nested Python lists, and writes one ``json.dumps`` of it.
``save_model`` streams the same text one parameter row at a time; its bytes
must equal this function's (see ``test_model.py``).  This module is not used
outside the tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from sdprel.model import FORMAT_TAG, TrainedModel
from sdprel.network import BLOCKS


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
