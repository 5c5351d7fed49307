"""The ``Token`` reader that ``sdprel.corpus.read_conll`` replaced, kept as a reference.

This is the straightforward version of the CoNLL reader: one frozen ``Token``
per word, and a tree check that builds per-token child lists and runs a
depth-first search from the root.  ``sdprel.corpus`` stores a parse as
``forms``/``heads``/``deprels`` columns and checks the tree by walking head
links instead; it must accept and reject the same head tuples with the same
messages and read the same columns (see ``test_conll_reader.py``).  This
module is not used outside the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from sdprel.corpus import CorpusError


@dataclass(frozen=True)
class Token:
    """One parsed token: surface form, head index (None = root), arc label."""

    form: str
    head: int | None
    deprel: str


@dataclass(frozen=True)
class ParsedSentence:
    """A dependency tree over the sentence tokens.

    Head indices are 0-based; exactly one token is the root (head None),
    and the head links must form a single tree.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        n = len(self.tokens)
        roots = [i for i, t in enumerate(self.tokens) if t.head is None]
        if not roots:
            raise CorpusError("no root token; head links form a cycle")
        if len(roots) > 1:
            raise CorpusError(f"expected exactly one root token, found {len(roots)}")
        for i, t in enumerate(self.tokens):
            if t.head is not None and not (0 <= t.head < n):
                raise CorpusError(f"token {i + 1}: head index {t.head} out of range")
        # Reachability from the root proves there are no cycles.
        children: list[list[int]] = [[] for _ in range(n)]
        for i, t in enumerate(self.tokens):
            if t.head is not None:
                children[t.head].append(i)
        seen = 0
        stack = [roots[0]]
        visited = [False] * n
        while stack:
            i = stack.pop()
            if visited[i]:
                continue
            visited[i] = True
            seen += 1
            stack.extend(children[i])
        if seen != n:
            raise CorpusError("head links contain a cycle")

    def __len__(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]


def read_conll(path: str | Path) -> list[ParsedSentence]:
    """Read a CoNLL file: columns ID FORM LEMMA CPOS POS FEATS HEAD DEPREL.

    Extra columns are ignored, HEAD=0 marks the root, blank lines separate
    sentences.  Head structure is validated to be a single tree.
    """
    sentences: list[ParsedSentence] = []
    block: list[Token] = []
    ordinal = 1
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            if block:
                sentences.append(_finish_block(block, path, ordinal))
                block = []
                ordinal += 1
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            raise CorpusError(
                f"{path}: sentence {ordinal}, line {lineno}: expected >= 8 "
                f"tab-separated columns, found {len(cols)}"
            )
        try:
            head = int(cols[6])
        except ValueError:
            raise CorpusError(
                f"{path}: sentence {ordinal}, line {lineno}: non-integer HEAD {cols[6]!r}"
            ) from None
        block.append(Token(cols[1], None if head == 0 else head - 1, cols[7]))
    if block:
        sentences.append(_finish_block(block, path, ordinal))
    return sentences


def _finish_block(block: list[Token], path: str | Path, ordinal: int) -> ParsedSentence:
    try:
        return ParsedSentence(tuple(block))
    except CorpusError as e:
        raise CorpusError(f"{path}: sentence {ordinal}: {e}") from None
