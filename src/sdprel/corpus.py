"""Annotated-sentence and dependency-parse ingestion, plus the relation label codec.

Two parallel inputs feed the pipeline: an annotated text file marking the two
nominals of each instance, and a CoNLL file holding the dependency parse of the
same tokenization.  This module reads both, validates them, and aligns them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

OTHER = "Other"

#: Default base relation inventory (9 relations; Other is implicit).
SEMEVAL_BASES = (
    "Cause-Effect",
    "Component-Whole",
    "Content-Container",
    "Entity-Destination",
    "Entity-Origin",
    "Instrument-Agency",
    "Member-Collection",
    "Message-Topic",
    "Product-Producer",
)


class CorpusError(ValueError):
    """Malformed corpus file or failed raw/parse alignment."""


def parse_lines(
    path: str | Path,
    parse: Callable[[str], object],
    error: type[ValueError] = CorpusError,
    comments: bool = False,
) -> list:
    """Call ``parse`` on each non-blank line of a UTF-8 text file, in order.

    A ValueError from ``parse`` is re-raised as ``error`` naming the file and
    the 1-based line.  With ``comments``, lines starting with ``#`` (after
    leading blanks) are skipped too.
    """
    out = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or (comments and stripped.startswith("#")):
            continue
        try:
            out.append(parse(line))
        except ValueError as e:
            raise error(f"{path}: line {n}: {e}") from None
    return out


class Direction(Enum):
    """Which nominal is the subject of a directed relation."""

    E1_TO_E2 = "(e1,e2)"
    E2_TO_E1 = "(e2,e1)"
    NONE = ""


@dataclass(frozen=True)
class DirectedLabel:
    """A base relation name plus its subject/object direction.

    ``Other`` is the only undirected label; every real relation carries
    either ``(e1,e2)`` or ``(e2,e1)``.
    """

    base: str
    direction: Direction

    def __post_init__(self) -> None:
        if (self.base == OTHER) != (self.direction is Direction.NONE):
            raise ValueError(
                f"label {self.base!r} with direction {self.direction}: "
                f"only {OTHER!r} is undirected"
            )

    def __str__(self) -> str:
        return self.base + self.direction.value

    @property
    def is_other(self) -> bool:
        return self.base == OTHER

    def flipped(self) -> "DirectedLabel":
        """Same base with the subject/object assignment swapped."""
        if self.direction is Direction.NONE:
            return self
        flip = (
            Direction.E2_TO_E1
            if self.direction is Direction.E1_TO_E2
            else Direction.E1_TO_E2
        )
        return DirectedLabel(self.base, flip)


OTHER_LABEL = DirectedLabel(OTHER, Direction.NONE)


@dataclass(frozen=True)
class LabelSet:
    """The base relation inventory and the codec between labels and indices.

    Two class spaces are derived from the same inventory: the directed space
    (every relation split into both directions, plus Other) and the base
    space (relation names plus Other, direction dropped).
    """

    bases: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.bases)) != len(self.bases):
            raise ValueError("duplicate base relation names")
        if OTHER in self.bases:
            raise ValueError(f"{OTHER!r} is implicit and must not be listed")
        if not self.bases:
            raise ValueError("empty label set")

    @property
    def n_relations(self) -> int:
        return len(self.bases)

    def parse(self, text: str) -> DirectedLabel:
        """Decode a label string such as ``Cause-Effect(e1,e2)`` or ``Other``."""
        text = text.strip()
        if text == OTHER:
            return OTHER_LABEL
        m = re.fullmatch(r"(.+?)\((e1,e2|e2,e1)\)", text)
        if m is None or m.group(1) not in self.bases:
            raise CorpusError(f"unknown relation label {text!r}")
        direction = (
            Direction.E1_TO_E2 if m.group(2) == "e1,e2" else Direction.E2_TO_E1
        )
        return DirectedLabel(m.group(1), direction)

    def all_directed(self) -> list[DirectedLabel]:
        """The 2R+1 directed classes, bases in inventory order, Other last."""
        out = []
        for base in self.bases:
            out.append(DirectedLabel(base, Direction.E1_TO_E2))
            out.append(DirectedLabel(base, Direction.E2_TO_E1))
        out.append(OTHER_LABEL)
        return out

    def all_bases(self) -> list[str]:
        """The R+1 base classes, Other last."""
        return list(self.bases) + [OTHER]

    def directed_index(self, label: DirectedLabel) -> int:
        if label.is_other:
            return 2 * len(self.bases)
        i = self.bases.index(label.base)
        return 2 * i + (0 if label.direction is Direction.E1_TO_E2 else 1)

    def base_index(self, base: str) -> int:
        if base == OTHER:
            return len(self.bases)
        return self.bases.index(base)


DEFAULT_LABELS = LabelSet(SEMEVAL_BASES)


def load_label_set(path: str | Path) -> LabelSet:
    """Read a label-set file: one base relation name per line, # comments,
    Other implicit; errors name the file."""
    try:
        return LabelSet(tuple(parse_lines(path, str.strip, comments=True)))
    except ValueError as e:
        raise CorpusError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Reference tokenizer: whitespace split plus punctuation separation.

    The same tokenization must be fed to the external dependency parser;
    alignment checks fail loudly when the two drift apart.
    """
    return _TOKEN_RE.findall(text)


# ---------------------------------------------------------------------------
# Annotated instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawInstance:
    """One annotated sentence with its two nominal spans and gold label.

    Spans are inclusive token-index ranges into ``tokens`` (markers already
    stripped from the token text).
    """

    id: int
    tokens: tuple[str, ...]
    e1_span: tuple[int, int]
    e2_span: tuple[int, int]
    label: DirectedLabel

    def __post_init__(self) -> None:
        n = len(self.tokens)
        for name, (lo, hi) in (("e1", self.e1_span), ("e2", self.e2_span)):
            if not (0 <= lo <= hi < n):
                raise ValueError(f"instance {self.id}: {name} span {lo}..{hi} "
                                 f"out of bounds for {n} tokens")
        a, b = sorted([self.e1_span, self.e2_span])
        if a[1] >= b[0]:
            raise ValueError(f"instance {self.id}: overlapping entity spans")

    def with_swapped_spans(self) -> "RawInstance":
        """Relabel which nominal is e1/e2 (gold direction flips accordingly)."""
        return RawInstance(
            self.id, self.tokens, self.e2_span, self.e1_span, self.label.flipped()
        )


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


@dataclass(frozen=True)
class AlignedInstance:
    """A raw annotated instance paired with its dependency parse."""

    raw: RawInstance
    parse: ParsedSentence


# ---------------------------------------------------------------------------
# Annotated-sentence file format
# ---------------------------------------------------------------------------

_RECORD_RE = re.compile(r'^(\d+)\t"(.*)"\s*$')
_E1_RE = re.compile(r"<e1>(.*?)</e1>", re.DOTALL)
_E2_RE = re.compile(r"<e2>(.*?)</e2>", re.DOTALL)


def _tokenize_marked(text: str, where: str) -> tuple[tuple[str, ...], tuple[int, int], tuple[int, int]]:
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


def parse_semeval_file(path: str | Path, labels: LabelSet = DEFAULT_LABELS) -> list[RawInstance]:
    """Read an annotated-sentence file into RawInstances.

    Record format: a line ``ID<TAB>"<sentence with <e1>..</e1> and <e2>..</e2>
    markers>"``, then the label line, then an optional ``Comment:`` line,
    separated from the next record by blank lines.
    """
    instances: list[RawInstance] = []
    seen_ids: set[int] = set()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        where = f"{path}: line {i + 1}"
        m = _RECORD_RE.match(line)
        if m is None:
            raise CorpusError(f"{where}: expected 'ID<TAB>\"sentence\"' record")
        inst_id = int(m.group(1))
        if inst_id in seen_ids:
            raise CorpusError(f"{where}: duplicate instance id {inst_id}")
        seen_ids.add(inst_id)
        tokens, e1_span, e2_span = _tokenize_marked(m.group(2), where)

        i += 1
        if i >= len(lines) or not lines[i].strip():
            raise CorpusError(f"{path}: line {i}: record {inst_id} has no label line")
        try:
            label = labels.parse(lines[i])
        except CorpusError as e:
            raise CorpusError(f"{path}: line {i + 1}: {e}") from None
        i += 1
        while i < len(lines) and lines[i].startswith("Comment"):
            i += 1
        try:
            instances.append(RawInstance(inst_id, tokens, e1_span, e2_span, label))
        except ValueError as e:
            raise CorpusError(f"{where}: {e}") from None
    return instances


def write_semeval_file(instances: Iterable[RawInstance], path: str | Path) -> None:
    """Serialize instances back to the annotated text format."""
    out = []
    for inst in instances:
        toks = list(inst.tokens)
        toks[inst.e1_span[0]] = "<e1>" + toks[inst.e1_span[0]]
        toks[inst.e1_span[1]] = toks[inst.e1_span[1]] + "</e1>"
        toks[inst.e2_span[0]] = "<e2>" + toks[inst.e2_span[0]]
        toks[inst.e2_span[1]] = toks[inst.e2_span[1]] + "</e2>"
        out.append(f'{inst.id}\t"{" ".join(toks)}"')
        out.append(str(inst.label))
        out.append("")
    Path(path).write_text("\n".join(out), encoding="utf-8")


# ---------------------------------------------------------------------------
# CoNLL parse files
# ---------------------------------------------------------------------------


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


def write_conll(sentences: Iterable[ParsedSentence], path: str | Path) -> None:
    """Serialize parses in the 8-column CoNLL layout read by read_conll."""
    out = []
    for sent in sentences:
        for i, tok in enumerate(sent.tokens):
            head = 0 if tok.head is None else tok.head + 1
            out.append(
                "\t".join([str(i + 1), tok.form, "_", "_", "_", "_", str(head), tok.deprel])
            )
        out.append("")
    Path(path).write_text("\n".join(out), encoding="utf-8")


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def align(raw: RawInstance, parse: ParsedSentence) -> AlignedInstance:
    """Pair an annotated instance with its parse, verifying token identity."""
    if len(raw.tokens) != len(parse):
        raise CorpusError(
            f"instance {raw.id}: length mismatch ({len(raw.tokens)} annotated tokens "
            f"vs {len(parse)} parsed); re-parse with the reference tokenization"
        )
    for i, (a, b) in enumerate(zip(raw.tokens, parse.forms())):
        if a != b:
            raise CorpusError(
                f"instance {raw.id}: token mismatch at index {i} ({a!r} vs {b!r}); "
                f"re-parse with the reference tokenization"
            )
    return AlignedInstance(raw, parse)


def align_corpus(
    raws: Sequence[RawInstance], parses: Sequence[ParsedSentence]
) -> list[AlignedInstance]:
    """Align parallel files record-by-record."""
    if len(raws) != len(parses):
        raise CorpusError(
            f"corpus mismatch: {len(raws)} annotated instances vs {len(parses)} parses"
        )
    return [align(r, p) for r, p in zip(raws, parses)]
