"""The trained-model artifact: everything needed to classify new instances.

Saved as a single JSON document.  Floats survive the round trip bit-exactly
(shortest round-trip decimal representation), so save/load/save is stable.
``save_model`` streams the document one parameter row at a time, so it never
holds the whole text or the parameters as Python lists; the bytes equal one
``json.dumps`` of the whole document.  It writes a temporary file next to
the target and renames it over the target only once every row is written,
so a failed save leaves an earlier model file as it was.  ``load_model``
reads the file back the same way: it holds one piece of ``PIECE_CHARS``
characters, or one value of the document, and one parameter row at a time,
so neither the whole text nor the parameters as Python lists exist at once.
``hyperparams.train_pad`` is a fixed ``false``, kept so the file format does
not change; the pad column is never trained, and loading ignores the key.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, TextIO

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


_DECODER = json.JSONDecoder()
_BLANKS = re.compile(r"[ \t\n\r]*")  # JSON's whitespace


class _Walk:
    """A walk over the text of a model file: ``text[at:]`` is read but not
    yet walked.  It reads any JSON that keeps ``save_model``'s nesting,
    whatever its whitespace and key order, and raises ValueError on any
    other text."""

    def __init__(self, f: TextIO) -> None:
        self.f = f
        self.text = ""
        self.at = 0

    def _more(self, least: int) -> bool:
        """Drop the walked text and read pieces until ``least`` characters
        are added or the file ends; False if nothing was left to read."""
        parts = [self.text[self.at:]]
        added = 0
        while added < least and (piece := self.f.read(PIECE_CHARS)):
            parts.append(piece)
            added += len(piece)
        self.text, self.at = "".join(parts), 0
        return added > 0

    def peek(self) -> str:
        """The next character after whitespace, with ``at`` moved to it;
        '' at the end of the file."""
        self.at = _BLANKS.match(self.text, self.at).end()
        while self.at == len(self.text) and self._more(1):
            self.at = _BLANKS.match(self.text).end()
        return self.text[self.at:self.at + 1]

    def take(self, char: str) -> None:
        """Walk past ``char``, the next character after whitespace."""
        if self.peek() != char:
            raise ValueError(f"expected {char!r}")
        self.at += 1

    def value(self) -> object:
        """The JSON value after whitespace, by ``raw_decode``.  While the
        value is not whole within the text read, the text is doubled, so a
        value costs time linear in its length."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.at)
                if end < len(self.text):  # else a number may go on in the next piece
                    self.at = end
                    return value
            except json.JSONDecodeError:
                pass
            if not self._more(len(self.text) - self.at):
                raise ValueError("the file ends inside a value")

    def row(self) -> list:
        """The JSON list after whitespace: its text is read up to its first
        ``]``, each new piece searched once, and decoded once."""
        if self.peek() != "[":
            raise ValueError("expected a row")
        if self.text.find("]", self.at) < 0:
            parts, piece = [self.text[self.at:]], ""
            while "]" not in piece:
                if not (piece := self.f.read(PIECE_CHARS)):
                    raise ValueError("the file ends inside a row")
                parts.append(piece)
            self.text, self.at = "".join(parts), 0
        values, self.at = _DECODER.raw_decode(self.text, self.at)
        return values

    def key(self) -> str:
        """An object member's key and the ``:`` after it."""
        if self.peek() != '"':
            raise ValueError("expected a key")
        key = self.value()
        self.take(":")
        return key

    def items(self, read: Callable[[], object], end: str = "]") -> Iterator:
        """``read()`` for each item of the list or object whose opening
        bracket was just walked; the ``,`` or ``end`` after an item is walked
        when the next one is asked for, so a caller reads a member's value
        between the keys."""
        if self.peek() == end:
            self.at += 1
            return
        yield read()
        while True:
            sep = self.peek()
            if sep not in (",", end):
                raise ValueError(f"expected ',' or {end!r}")
            self.at += 1
            if sep == end:
                return
            yield read()

    def members(self, read: Callable[[str], object]) -> dict:
        """The JSON object after whitespace, each member's value read by
        ``read(key)``; a repeated key keeps its last value, as in ``json``."""
        self.take("{")
        return {key: read(key) for key in self.items(self.key, "}")}

    def block(self, name: str) -> object:
        """A parameter block.  A list of rows is read one row at a time into
        a float64 array whose room doubles as rows come; a list of numbers
        or any other value is decoded as ``json`` does."""
        if self.peek() != "[":
            return self.value()
        self.at += 1
        if self.peek() != "[":
            return list(self.items(self.value))
        rows = self.items(self.row)
        first = next(rows)
        out, n = np.empty((1, len(first))), 0
        for values in itertools.chain([first], rows):
            try:
                row = np.array(values, dtype=np.float64)
            except (OverflowError, TypeError) as e:  # an int beyond float, an object
                raise ValueError(f"block {name}: {e}") from None
            if row.shape != out.shape[1:]:
                raise ValueError(f"block {name} is not a list of equal rows")
            if n == len(out):  # no other reference to out, so resize may move it
                out.resize((2 * n, len(first)), refcheck=False)
            out[n] = row
            n += 1
        out.resize((n, len(first)), refcheck=False)
        return out

    def document(self) -> dict:
        """The whole file: one object, its ``params`` members read as blocks."""
        doc = self.members(
            lambda key: self.members(self.block)
            if key == "params" and self.peek() == "{" else self.value()
        )
        if self.peek():
            raise ValueError("text after the document")
        return doc


def _read_document(path: str | Path) -> object:
    """The JSON document of a model file, its parameter blocks as float64
    arrays when they are lists of rows.

    Text that the walk does not read (a syntax error, or a value nested
    unlike ``save_model``'s) is read again whole with ``json.loads``, so the
    document, or the error with its line and column, is ``json.loads``'s.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return _Walk(f).document()
    except ValueError:  # JSON syntax, text encoding, or a layout the walk does not read
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
    except (IndexError, TypeError, ValueError) as e:  # wrong types or shapes
        raise ValueError(f"model file {path}: {e}") from None
