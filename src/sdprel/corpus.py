"""Annotated-sentence and dependency-parse ingestion, plus the relation label codec.

Two parallel inputs feed the pipeline: an annotated text file marking the two
nominals of each instance, and a CoNLL file holding the dependency parse of the
same tokenization.  This module reads both, validates them, and aligns them.

A parse is stored as columns, as the CoNLL file lays it out:
``ParsedSentence.forms``, ``.heads`` and ``.deprels`` are equal-length tuples
whose i-th entries are token i's surface form, its 0-based head index (None
for the root) and the label of the arc to its head.

Each reader keeps one copy of each distinct string per file: equal tokens,
forms and arc labels read by one call are one object.  A corpus repeats a
few thousand forms and a dozen labels over tens of thousands of tokens, so a
copy per token would hold most of its memory.  The table lives only for the
call; ``sys.intern`` is not used, because some Python versions keep interned
strings after their last reference is dropped.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


#: Bytes of a text file that ``read_lines`` reads at a time.
PIECE_BYTES = 1 << 16


def read_lines(path: str | Path, error: type[ValueError] = CorpusError) -> Iterator[str]:
    """The lines of a UTF-8 file, ended only at ``\\n`` (``\\r\\n`` counts as one end).

    The file is read ``PIECE_BYTES`` at a time, and each piece is cut after
    its last ``\\n`` and decoded whole, so only one piece and the lines it
    ends are held at once.  ``str.splitlines`` would also end a line at a
    form feed, U+2028 and other separators that can stand inside a line.
    Bytes that do not decode raise ``error`` naming the file and the 1-based
    line they are on, counted the same way, when the reading reaches their
    piece.  Text after the last ``\\n`` is the last line, empty if the file
    ends with ``\\n``.
    """

    def split(data: bytes, line: int) -> list[str]:
        try:
            return data.decode("utf-8").replace("\r\n", "\n").split("\n")
        except UnicodeDecodeError as e:
            line += data.count(b"\n", 0, e.start)
            raise error(f"{path}: line {line}: not valid UTF-8") from None

    line = 1
    with open(path, "rb") as f:
        start: list[bytes] = []  # the pieces of a line begun in earlier pieces
        while piece := f.read(PIECE_BYTES):
            cut = piece.rfind(b"\n") + 1
            if not cut:
                start.append(piece)
                continue
            lines = split(b"".join([*start, piece[:cut]]), line)
            lines.pop()  # the empty text after the cut
            start = [piece[cut:]]
            line += len(lines)
            yield from lines
        yield from split(b"".join(start), line)


def parse_lines(
    path: str | Path,
    parse: Callable[[str], object],
    error: type[ValueError] = CorpusError,
    comments: bool = False,
) -> list:
    """Call ``parse`` on each non-blank line of a UTF-8 text file, in order.

    A ValueError from ``parse`` is re-raised as ``error`` naming the file and
    the 1-based line.  With ``comments``, lines starting with ``#`` (after
    leading blanks) are skipped too.  A line that ``parse`` returns None for
    adds nothing to the list.
    """
    out = []
    for n, line in enumerate(read_lines(path, error), start=1):
        stripped = line.strip()
        if not stripped or (comments and stripped.startswith("#")):
            continue
        try:
            value = parse(line)
        except ValueError as e:
            raise error(f"{path}: line {n}: {e}") from None
        if value is not None:
            out.append(value)
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

    def reversed(self) -> DirectedLabel:
        """The same relation with subject and object swapped; Other stays Other."""
        if self.is_other:
            return self
        flip = (
            Direction.E2_TO_E1
            if self.direction is Direction.E1_TO_E2
            else Direction.E1_TO_E2
        )
        return DirectedLabel(self.base, flip)


OTHER_LABEL = DirectedLabel(OTHER, Direction.NONE)

_LABEL_RE = re.compile(r"(.+?)\((e1,e2|e2,e1)\)")


@dataclass(frozen=True)
class LabelSet:
    """The base relation inventory and the parser of label strings.

    Which label each network output stands for depends on the regime too;
    ``model.class_labels`` defines it.
    """

    bases: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.bases)) != len(self.bases):
            raise ValueError("duplicate base relation names")
        if OTHER in self.bases:
            raise ValueError(f"{OTHER!r} is implicit and must not be listed")
        if not self.bases:
            raise ValueError("empty label set")

    def parse(self, text: str) -> DirectedLabel:
        """Decode a label string such as ``Cause-Effect(e1,e2)`` or ``Other``.

        The same text gives the same object: results are cached, at most
        2R+1 per label set.  An unknown label raises on every call.
        """
        return self._parse_stripped(text.strip())

    @functools.cache
    def _parse_stripped(self, text: str) -> DirectedLabel:
        if text == OTHER:
            return OTHER_LABEL
        m = _LABEL_RE.fullmatch(text)
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


DEFAULT_LABELS = LabelSet(SEMEVAL_BASES)


def load_label_set(path: str | Path) -> LabelSet:
    """Read a label-set file: one base relation name per line, # comments,
    Other implicit; errors name the file."""
    bases = tuple(parse_lines(path, str.strip, comments=True))
    try:
        return LabelSet(bases)
    except ValueError as e:
        raise CorpusError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Reference tokenizer: whitespace split plus punctuation separation.

    The same tokenization must be fed to the external dependency parser;
    alignment checks fail loudly when the two drift apart.  A whitespace
    chunk made only of word characters is one token, so only the others go
    through the regex (``\\w`` is ``str.isalnum()`` or ``_``).
    """
    out: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():
            out.append(chunk)
        else:
            out.extend(_TOKEN_RE.findall(chunk))
    return out


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


class TreeError(CorpusError):
    """Head links that do not form one rooted tree.

    ``token`` is the 0-based index of the token whose head is out of range,
    None when the fault is the whole sentence's (its root count or a cycle).
    """

    def __init__(self, message: str, token: int | None = None) -> None:
        super().__init__(message)
        self.token = token


@dataclass(frozen=True)
class ParsedSentence:
    """A dependency tree over the sentence tokens, stored as three columns.

    Token i has surface form ``forms[i]``, head ``heads[i]`` (0-based, None
    for the root) and arc label ``deprels[i]``; exactly one token is the
    root, and the head links must form a single tree.
    """

    forms: tuple[str, ...]
    heads: tuple[int | None, ...]
    deprels: tuple[str, ...]

    def __post_init__(self) -> None:
        heads = self.heads
        n = len(heads)
        roots = heads.count(None)
        if not roots:
            raise TreeError("no root token; head links form a cycle")
        if roots > 1:
            raise TreeError(f"expected exactly one root token, found {roots}")
        for i, h in enumerate(heads):
            if h is not None and not (0 <= h < n):
                raise TreeError(f"token {i + 1}: head index {h} out of range", i)
        # Walk up from each token until a token known to reach the root; the
        # walk's own stamp met again means the links go round a cycle.
        stamp = [-1] * n
        stamp[heads.index(None)] = n
        for start in range(n):
            j = start
            while stamp[j] < 0:
                stamp[j] = start
                j = heads[j]
            if stamp[j] == start:
                raise TreeError("head links contain a cycle")

    def __len__(self) -> int:
        return len(self.forms)


@dataclass(frozen=True)
class AlignedInstance:
    """A raw annotated instance paired with its dependency parse."""

    raw: RawInstance
    parse: ParsedSentence


# ---------------------------------------------------------------------------
# Annotated-sentence file format
# ---------------------------------------------------------------------------

_RECORD_RE = re.compile(r'^(\d+)\t"(.*)"\s*$')


def _find_entity(
    text: str, opening: str, closing: str, start: int = 0
) -> tuple[int, int] | None:
    """Start and end of the first ``opening``..``closing`` at or after
    ``start``, or None: the first opening marker with a closing one after
    it, closed by the nearest, as a regex search for ``<e1>(.*?)</e1>``."""
    lo = text.find(opening, start)
    if lo < 0:
        return None
    hi = text.find(closing, lo + len(opening))
    return None if hi < 0 else (lo, hi + len(closing))


def _tokenize_marked(text: str, where: str) -> tuple[list[str], tuple[int, int], tuple[int, int]]:
    """Tokenize a sentence with entity markers, returning tokens and spans."""
    m1 = _find_entity(text, "<e1>", "</e1>")
    m2 = _find_entity(text, "<e2>", "</e2>")
    if m1 is None or m2 is None:
        missing = "e1" if m1 is None else "e2"
        raise CorpusError(f"{where}: missing <{missing}>..</{missing}> markers")
    if _find_entity(text, "<e1>", "</e1>", m1[1]) or _find_entity(text, "<e2>", "</e2>", m2[1]):
        raise CorpusError(f"{where}: repeated entity markers")
    first, second = (m1, m2) if m1[0] < m2[0] else (m2, m1)
    if first[1] > second[0]:
        raise CorpusError(f"{where}: overlapping entity markers")

    # An entity's text lies between its 4-character opening marker and its
    # 5-character closing one.
    pre = tokenize(text[: first[0]])
    ent_a = tokenize(text[first[0] + 4 : first[1] - 5])
    mid = tokenize(text[first[1] : second[0]])
    ent_b = tokenize(text[second[0] + 4 : second[1] - 5])
    post = tokenize(text[second[1] :])
    if not ent_a or not ent_b:
        raise CorpusError(f"{where}: empty entity text")

    span_a = (len(pre), len(pre) + len(ent_a) - 1)
    off = span_a[1] + 1 + len(mid)
    span_b = (off, off + len(ent_b) - 1)
    tokens = pre + ent_a + mid + ent_b + post
    if m1[0] < m2[0]:
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
    share = {}.setdefault  # one object per distinct token of the file
    numbered = enumerate(read_lines(path), start=1)
    ahead = next(numbered, None)  # the next (line number, line) not yet read
    while ahead is not None:
        n, line = ahead
        ahead = next(numbered, None)
        if not line.strip():
            continue
        where = f"{path}: line {n}"
        m = _RECORD_RE.match(line)
        if m is None:
            raise CorpusError(f"{where}: expected 'ID<TAB>\"sentence\"' record")
        inst_id = int(m.group(1))
        if inst_id in seen_ids:
            raise CorpusError(f"{where}: duplicate instance id {inst_id}")
        seen_ids.add(inst_id)
        tokens, e1_span, e2_span = _tokenize_marked(m.group(2), where)

        if ahead is None or not ahead[1].strip():
            raise CorpusError(f"{where}: record {inst_id} has no label line")
        try:
            label = labels.parse(ahead[1])
        except CorpusError as e:
            raise CorpusError(f"{path}: line {ahead[0]}: {e}") from None
        ahead = next(numbered, None)
        while ahead is not None and ahead[1].startswith("Comment"):
            ahead = next(numbered, None)
        instances.append(
            RawInstance(inst_id, tuple(map(share, tokens, tokens)), e1_span, e2_span, label)
        )
    return instances


# ---------------------------------------------------------------------------
# CoNLL parse files
# ---------------------------------------------------------------------------


def read_conll(path: str | Path) -> list[ParsedSentence]:
    """Read a CoNLL file: columns ID FORM LEMMA CPOS POS FEATS HEAD DEPREL.

    Extra columns are ignored, HEAD=0 marks the root, blank lines separate
    sentences.  Head structure is validated to be a single tree; an error
    names the sentence and the line of the offending token, or the
    sentence's first line when the fault is the whole sentence's.
    """
    sentences: list[ParsedSentence] = []
    forms: list[str] = []
    heads: list[int | None] = []
    deprels: list[str] = []
    share = {}.setdefault  # one object per distinct form or arc label of the file
    ordinal = first = 1
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line or line.isspace():
            if forms:
                sentences.append(
                    _finish_sentence(forms, heads, deprels, share, path, ordinal, first)
                )
                forms, heads, deprels = [], [], []
                ordinal += 1
            continue
        if not forms:
            first = lineno
        cols = line.split("\t", 8)
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
        forms.append(cols[1])
        heads.append(head - 1 if head else None)
        deprels.append(cols[7])
    if forms:
        sentences.append(_finish_sentence(forms, heads, deprels, share, path, ordinal, first))
    return sentences


def _finish_sentence(
    forms: list[str], heads: list[int | None], deprels: list[str],
    share: Callable[[str, str], str], path: str | Path, ordinal: int, first: int,
) -> ParsedSentence:
    """The sentence read from lines ``first`` on, its strings replaced by
    ``share``'s copies; the lines of a sentence are consecutive, so token i
    is on line ``first + i``."""
    try:
        return ParsedSentence(
            tuple(map(share, forms, forms)), tuple(heads), tuple(map(share, deprels, deprels))
        )
    except TreeError as e:
        if e.token is None:
            where, what = first, str(e)
        else:
            where = first + e.token
            what = f"HEAD {heads[e.token] + 1} out of range for {len(heads)} tokens"
        raise CorpusError(f"{path}: sentence {ordinal}, line {where}: {what}") from None


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
    if raw.tokens != parse.forms:
        for i, (a, b) in enumerate(zip(raw.tokens, parse.forms)):
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
