"""Node vocabulary and the embedding matrix, with pretrained-vector loading.

Words, arrows, and arc labels share one index space; each node owns a column
of the d x |V| embedding matrix.  Index 0 is padding (frozen at zero by
default), index 1 the unknown-node bucket.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import parse_lines
from .deppath import NodeKind, NodeSequence

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


class EmbeddingError(ValueError):
    """Bad pretrained-vector file."""


@dataclass(frozen=True)
class Vocab:
    """Bijection between node strings and contiguous column indices.

    ``word_strings`` records which entries ever occurred as word nodes; only
    those are eligible for pretrained vectors.
    """

    items: tuple[str, ...]
    word_strings: frozenset[str]

    def __post_init__(self) -> None:
        if self.items[:2] != (PAD_TOKEN, UNK_TOKEN):
            raise ValueError("vocab must reserve indices 0/1 for pad/unk")
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate vocab entries")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.items)}
        )

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, s: str) -> bool:
        return s in self._index  # type: ignore[attr-defined]

    def lookup(self, s: str) -> int:
        return self._index.get(s, UNK_INDEX)  # type: ignore[attr-defined]

    def indexify(self, s: NodeSequence) -> tuple[int, ...]:
        """Node-by-node index lookup; unseen strings map to the unknown bucket."""
        return tuple(self.lookup(n.text) for n in s.nodes)


def build_vocab(sequences: Iterable[NodeSequence], min_count: int = 1) -> Vocab:
    """Index every node string with frequency >= min_count, in first-seen order.
    A PAD_TOKEN or UNK_TOKEN node gets no entry: it keeps its reserved column."""
    counts: Counter[str] = Counter()
    order: list[str] = []
    words: set[str] = set()
    for seq in sequences:
        for node in seq.nodes:
            if node.text in (PAD_TOKEN, UNK_TOKEN):
                continue
            if node.text not in counts:
                order.append(node.text)
            counts[node.text] += 1
            if node.kind is NodeKind.WORD:
                words.add(node.text)
    kept = [s for s in order if counts[s] >= min_count]
    items = (PAD_TOKEN, UNK_TOKEN, *kept)
    return Vocab(items, frozenset(w for w in words if counts[w] >= min_count))


def load_pretrained(path: str | Path, d: int) -> dict[str, np.ndarray]:
    """Read a pretrained-vector file: token then d finite numbers per line
    (``#`` is a token, not a comment); a repeated token keeps its last vector."""

    def parse(line: str) -> tuple[str, np.ndarray]:
        parts = line.rstrip().split(" ")
        if len(parts) != d + 1:
            raise ValueError(f"expected a token and {d} values, got {len(parts)} fields")
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError("non-numeric vector entry") from None
        if not np.isfinite(vec).all():
            raise ValueError("non-finite vector entry")
        return parts[0], vec

    return dict(parse_lines(path, parse, EmbeddingError))


def init_embeddings(
    vocab: Vocab,
    pretrained: str | Path | None,
    d: int,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Build the d x |V| embedding matrix.

    Word nodes found in the pretrained table take their vector; everything
    else (arrows, labels, unmatched words, unk) is sampled uniformly from
    [-0.25, 0.25] with the given seed.  The pad column is zeroed.  Returns
    the matrix and the fraction of word nodes that were matched.
    """
    rng = np.random.default_rng(seed)
    table = rng.uniform(-0.25, 0.25, size=(d, len(vocab)))
    coverage = 1.0  # nothing to match when no pretrained table is requested
    if pretrained is not None:
        vectors = load_pretrained(pretrained, d)
        matched = 0
        for word in vocab.word_strings:
            vec = vectors.get(word)
            if vec is not None:
                table[:, vocab.lookup(word)] = vec
                matched += 1
        n_words = len(vocab.word_strings)
        coverage = matched / n_words if n_words else 1.0
    table[:, PAD_INDEX] = 0.0
    return table, coverage
