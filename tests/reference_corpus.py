"""The ``Token`` reader that ``sdprel.corpus.read_conll`` replaced, and the
regex entity-marker scan that ``sdprel.corpus`` replaced, kept as references.

This is the straightforward version of the CoNLL reader: one frozen ``Token``
per word, and a tree check that builds per-token child lists and runs a
depth-first search from the root.  ``sdprel.corpus`` stores a parse as
``forms``/``heads``/``deprels`` columns and checks the tree by walking head
links instead; it must accept and reject the same head tuples with the same
messages and read the same columns (see ``test_conll_reader.py``).

``tokenize_marked`` finds the entity markers with four regex searches;
``sdprel.corpus`` finds them with ``str.find`` and must give the same tokens
and spans, or the same error, for every text.

``read_lines`` decodes the whole file at once; ``sdprel.corpus.read_lines``
reads it in pieces and must give the same lines, or the same error, for
every file (see ``test_piece_readers.py``).  This module is not used
outside the tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from sdprel.corpus import CorpusError, tokenize


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


_E1_RE = re.compile(r"<e1>(.*?)</e1>", re.DOTALL)
_E2_RE = re.compile(r"<e2>(.*?)</e2>", re.DOTALL)


def tokenize_marked(text: str, where: str) -> tuple[tuple[str, ...], tuple[int, int], tuple[int, int]]:
    """Tokenize a sentence with entity markers, returning tokens and spans."""
    m1 = _E1_RE.search(text)
    m2 = _E2_RE.search(text)
    if m1 is None or m2 is None:
        missing = "e1" if m1 is None else "e2"
        raise CorpusError(f"{where}: missing <{missing}>..</{missing}> markers")
    if _E1_RE.search(text, m1.end()) or _E2_RE.search(text, m2.end()):
        raise CorpusError(f"{where}: repeated entity markers")
    first, second = (m1, m2) if m1.start() < m2.start() else (m2, m1)
    if first.end() > second.start():
        raise CorpusError(f"{where}: overlapping entity markers")

    pre = tokenize(text[: first.start()])
    ent_a = tokenize(first.group(1))
    mid = tokenize(text[first.end() : second.start()])
    ent_b = tokenize(second.group(1))
    post = tokenize(text[second.end() :])
    if not ent_a or not ent_b:
        raise CorpusError(f"{where}: empty entity text")

    span_a = (len(pre), len(pre) + len(ent_a) - 1)
    off = span_a[1] + 1 + len(mid)
    span_b = (off, off + len(ent_b) - 1)
    tokens = tuple(pre + ent_a + mid + ent_b + post)
    if m1.start() < m2.start():
        return tokens, span_a, span_b
    return tokens, span_b, span_a


def read_lines(path: str | Path, error: type[ValueError] = CorpusError) -> list[str]:
    """The lines of a UTF-8 file, ended only at ``\\n`` (``\\r\\n`` counts as one end);
    bytes that do not decode raise ``error`` naming the file and the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path}: line {line}: not valid UTF-8") from None
