"""Projection-table prediction that pools through argmax plus a gather, kept
as a reference.

``network.forward`` with a table pools with ``ZT.max(axis=0)`` and records
no positions.  This is the earlier form of that branch: it finds each
filter's argmax position and gathers the value there.  A max returns the
value its argmax points at, ties included, so ``predict_corpus`` must give
the same probabilities bit for bit (see ``test_infer_eval.py``).  It is not
used outside the tests.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from sdprel.corpus import AlignedInstance
from sdprel.deppath import instance_path, reverse_path, subject_first_path
from sdprel.infer_eval import PREDICT_CHUNK, lexfeat_for
from sdprel.model import Regime, TrainedModel
from sdprel.network import ConvTable, Hyperparams, NetworkParams, softmax


def table_forward(
    params: NetworkParams,
    hp: Hyperparams,
    indices: Sequence[int],
    lexfeat: np.ndarray | None,
    table: ConvTable,
) -> np.ndarray:
    """Class probabilities of one indexed path through ``table``."""
    ZT = table.convolve(indices, params.b1)
    argmax = ZT.argmax(axis=0)  # ties resolve to the lowest position
    pooled = ZT.T[np.arange(hp.n1), argmax]
    hidden = np.tanh(params.W2 @ pooled + params.b2)
    combined = hidden if lexfeat is None else np.concatenate([hidden, lexfeat])
    return softmax(params.W3 @ combined + params.b3)


def indexed_paths(model: TrainedModel, inst: AlignedInstance) -> list[tuple[int, ...]]:
    """The instance's indexed path, and under SIGHTED_NS its reverse."""
    if model.regime is Regime.SIGHTED:
        seq, _ = subject_first_path(inst.raw, inst.parse, model.mode)
    else:
        seq = instance_path(inst.raw, inst.parse, model.mode)
    seqs = [seq, reverse_path(seq)] if model.regime is Regime.SIGHTED_NS else [seq]
    return [model.vocab.indexify(s) for s in seqs]


def predict_probs(
    model: TrainedModel,
    instances: Sequence[AlignedInstance],
    lexfeats: Mapping[int, np.ndarray] | None = None,
) -> list[list[np.ndarray]]:
    """Each instance's probabilities, one vector per path direction, from one
    table per PREDICT_CHUNK instances over the chunk's ids.  Every path must
    be extractable."""
    out = []
    for start in range(0, len(instances), PREDICT_CHUNK):
        chunk = instances[start : start + PREDICT_CHUNK]
        paths = [indexed_paths(model, inst) for inst in chunk]
        table = ConvTable(model.params, model.hp, [i for p in paths for s in p for i in s])
        for inst, p in zip(chunk, paths):
            lex = lexfeat_for(inst.raw.id, model.hp.f, lexfeats)
            out.append([table_forward(model.params, model.hp, s, lex, table) for s in p])
    return out
