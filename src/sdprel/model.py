"""The trained-model artifact: everything needed to classify new instances.

Saved as a single JSON document.  Floats survive the round trip bit-exactly
(shortest round-trip decimal representation), so save/load/save is stable.
``save_model`` streams the document one parameter row at a time, so it never
holds the whole text or the parameters as Python lists; the bytes equal one
``json.dumps`` of the whole document.  It writes a temporary file next to
the target and renames it over the target only once every row is written,
so a failed save leaves an earlier model file as it was.  ``load_model``
reads that layout back one piece of ``PIECE_CHARS`` characters and one
parameter row at a time, so neither the whole text nor the parameters as
Python lists exist at once; any other layout or text is read whole by
``json.loads``.  ``hyperparams.train_pad`` is a fixed ``false``, kept so the
file format does not change; the pad column is never trained, and loading
ignores the key.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .corpus import OTHER_LABEL, DirectedLabel, Direction, LabelSet
from .deppath import PathMode
from .embeddings import Vocab
from .network import BLOCKS, Hyperparams, NetworkParams

FORMAT_TAG = "sdprel-model/1"

#: Characters of a model file that ``load_model`` reads at a time.
PIECE_CHARS = 1 << 16


class Regime(Enum):
    """How subject/object assignments are used in training and inference.

    BLIND trains and predicts on the e1→e2 path.  SIGHTED trains on the gold
    subject→object path and is scored with the assignment given.  SIGHTED_NS
    adds negative examples in training and classifies blind inputs by running
    both path directions and combining.  ``class_labels`` says what each
    network output means under each regime.
    """

    BLIND = "blind"
    SIGHTED = "sighted"
    SIGHTED_NS = "sighted-ns"


@functools.cache
def class_labels(
    regime: Regime, labels: LabelSet, from_e2: bool = False
) -> tuple[DirectedLabel, ...]:
    """The label of network output k for a path read from its first word.

    Under BLIND it is ``labels.all_directed()``; otherwise output k means
    relation k with the path's first word as subject, so the table is each
    base relation as ``(e1,e2)``, then Other.  Its length is the class count K.

    Reading a path from the other nominal swaps subject and object: for a
    path that starts at e2 (``from_e2``) the table holds each entry's
    ``reversed()``.  Training targets, single-path decoding and the reverse
    half of ``combine`` all go through this table.
    """
    if from_e2:
        return tuple(label.reversed() for label in class_labels(regime, labels))
    if regime is Regime.BLIND:
        return tuple(labels.all_directed())
    return (*(DirectedLabel(b, Direction.E1_TO_E2) for b in labels.bases), OTHER_LABEL)


@dataclass
class TrainedModel:
    hp: Hyperparams
    vocab: Vocab
    labels: LabelSet
    mode: PathMode
    regime: Regime
    params: NetworkParams


def save_model(model: TrainedModel, path: str | Path) -> None:
    head = json.dumps({
        "format": FORMAT_TAG,
        "hyperparams": {**asdict(model.hp), "train_pad": False},
        "mode": model.mode.value,
        "regime": model.regime.value,
        "labels": list(model.labels.bases),
        "vocab": {
            "items": list(model.vocab.items),
            "word_strings": sorted(model.vocab.word_strings),
        },
    })
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(head[:-1] + ', "params": {')
            for i, name in enumerate(BLOCKS):
                f.write(f'{", " if i else ""}"{name}": ')
                f.writelines(_block_json(getattr(model.params, name)))
            f.write("}}")
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):  # name the target instead
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def _block_json(block: np.ndarray) -> Iterator[str]:
    """``json.dumps(block.tolist())`` in pieces of at most one row."""
    if block.ndim == 1:
        yield json.dumps(block.tolist())
        return
    yield "["
    for i, row in enumerate(block):
        yield (", " if i else "") + json.dumps(row.tolist())
    yield "]"


def _strings(value: object, key: str) -> list[str]:
    """``value`` if it is a list of strings, else a ValueError naming key."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{key} must be a list of strings")
    return value


class _Layout:
    """A model file read one piece of ``PIECE_CHARS`` characters at a time:
    ``text[at:]`` is read but not yet used.  ``document`` reads
    ``save_model``'s layout and raises ValueError on any other text."""

    def __init__(self, f: TextIO) -> None:
        self.f, self.text, self.at = f, "", 0

    def ahead(self, n: int) -> str:
        """The next ``n`` characters, fewer at the end of the file."""
        while len(self.text) - self.at < n and (piece := self.f.read(PIECE_CHARS)):
            self.text, self.at = self.text[self.at:] + piece, 0
        return self.text[self.at:self.at + n]

    def take(self, expected: str) -> None:
        if self.ahead(len(expected)) != expected:
            raise ValueError(f"expected {expected!r}")
        self.at += len(expected)

    def through(self, sep: str) -> str:
        """The text up to and with the next ``sep``, walked past.  Each piece
        is searched once, from the ``len(sep)`` characters before it."""
        parts = [self.text[self.at:]]
        end, size, window = parts[0].find(sep), len(parts[0]), parts[0][-len(sep):]
        while end < 0:
            if not (piece := self.f.read(PIECE_CHARS)):
                raise ValueError(f"the file ends before {sep!r}")
            parts.append(piece)
            size, window = size + len(piece), window + piece
            if (found := window.find(sep)) >= 0:
                end = size - len(window) + found
            window = window[-len(sep):]
        self.text, self.at = "".join(parts), end + len(sep)
        return self.text[:self.at]

    def block(self) -> object:
        """A list of numbers as ``json`` decodes it, or a list of rows, each
        read through its ``]`` and decoded once into a float64 array whose
        room doubles as rows come."""
        if self.ahead(2) != "[[":
            return json.loads(self.through("]"))
        self.at += 1
        out, n = np.empty((0, 0)), 0
        while not n or self.ahead(1) != "]":
            self.take(", " if n else "")
            row = np.array(json.loads(self.through("]")), dtype=np.float64)
            if n and row.shape != out.shape[1:]:
                raise ValueError("the rows differ in length")
            if n == len(out):  # no other reference to out, so resize may move it
                out.resize((2 * n or 1, len(row)), refcheck=False)
            out[n] = row
            n += 1
        self.at += 1
        out.resize((n, out.shape[1]), refcheck=False)
        return out

    def document(self) -> dict:
        """The head object, decoded once with an empty ``params`` so that a
        head without members fails as in the whole file, then each block in
        ``BLOCKS`` order, then ``}}`` and the end of the file."""
        sep = ', "params": {'
        doc = json.loads(self.through(sep) + "}}")
        for i, name in enumerate(BLOCKS):
            self.take(f'{", " if i else ""}"{name}": ')
            doc["params"][name] = self.block()
        if self.ahead(3) != "}}":
            raise ValueError("expected '}}' and the end of the file")
        return doc


def _read_document(path: str | Path) -> object:
    """The JSON document of a model file, its blocks of rows as float64
    arrays.  ``save_model``'s layout is read one piece and one row at a
    time; any other layout or text (a syntax error, an indented or
    reordered file, a row unlike the first) is read again whole with
    ``json.loads``, so the document, or the error with its line and
    column, is ``json.loads``'s."""
    try:
        with open(path, encoding="utf-8") as f:
            return _Layout(f).document()
    except (OverflowError, TypeError, ValueError):  # JSON syntax, text encoding, another layout
        pass  # outside the handler, so the text read so far is freed first
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; a file that is not a model raises a ValueError
    naming the path and, when a key is missing, the key.  So do a class
    count K unfit for the file's regime and labels, a ``We`` whose column
    count is not the vocabulary size, and a NaN or infinity.  A size that
    is not an integer, a weight that is not a number, and a label or vocab
    entry that is not a string are errors naming the key."""
    try:
        doc = _read_document(path)
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
            **{name: np.asarray(doc["params"][name], dtype=np.float64) for name in BLOCKS}
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
