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

An aligned corpus holds each sentence's tokens once: ``align`` has checked
that the annotated tokens equal the parse's forms, and then gives the raw
instance the parse's tuple, so ``raw.tokens is parse.forms`` and the
annotation file's strings are freed.  The per-sentence records are slotted
dataclasses, which hold no attribute dictionary.
"""

from __future__ import annotations

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

    The file is read ``PIECE_BYTES`` at a time, each piece finished through
    the end of its last line and decoded whole, so only one piece and the
    lines it holds are held at once.  ``str.splitlines`` would also end a
    line at a form feed, U+2028 and other separators that can stand inside a
    line.  Bytes that do not decode raise ``error`` naming the file and the
    1-based line they are on, counted the same way, when the reading reaches
    their piece.  Text after the last ``\\n`` is the last line, empty if the
    file ends with ``\\n``.
    """
    line, last = 1, ""
    with open(path, "rb") as f:
        while piece := f.read(PIECE_BYTES):
            piece += f.readline()  # through the next \n, or to the end of the file
            try:
                *lines, last = piece.decode("utf-8").replace("\r\n", "\n").split("\n")
            except UnicodeDecodeError as e:
                line += piece.count(b"\n", 0, e.start)
                raise error(f"{path}: line {line}: not valid UTF-8") from None
            line += len(lines)
            yield from lines
    yield last


#: Small decimals by their spelling: a lookup is several times faster than
#: ``int``, and nearly every HEAD is found in it.
_DECIMALS = {str(i): i for i in range(256)}


def parse_decimal(text: str, what: str) -> int:
    """The value of ``text`` if it is ASCII digits alone, as every id and HEAD
    must be; ``int`` would also take a sign, blanks, ``_`` between digits and
    non-ASCII digits (``int("1_0") == 10``).  A ValueError names ``what``."""
    value = _DECIMALS.get(text)
    if value is None:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{what} {text!r} is not a decimal number")
        value = int(text)
    return value


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


@dataclass(frozen=True)
class LabelSet:
    """The base relation inventory and the codec of label strings.

    ``parse`` is the inverse of ``str`` over ``all_directed()`` and returns
    the same objects.  Which label each network output stands for depends on
    the regime too; ``model.class_labels`` defines it.
    """

    bases: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.bases)) != len(self.bases):
            raise ValueError("duplicate base relation names")
        if OTHER in self.bases:
            raise ValueError(f"{OTHER!r} is implicit and must not be listed")
        if not self.bases:
            raise ValueError("empty label set")
        for base in self.bases:  # each must come back whole from an ID<TAB>label line
            if not base or base != base.strip() or any(c in base for c in "\t\r\n"):
                raise ValueError(f"base relation name {base!r} is empty, has whitespace "
                                 f"at an end, or holds a tab or line break")
        directed = [DirectedLabel(b, d) for b in self.bases for d in tuple(Direction)[:2]]
        object.__setattr__(self, "_labels", {str(x): x for x in (*directed, OTHER_LABEL)})

    def parse(self, text: str) -> DirectedLabel:
        """Decode a label string such as ``Cause-Effect(e1,e2)`` or ``Other``,
        ignoring whitespace at its ends."""
        if (label := self._labels.get(text.strip())) is None:  # type: ignore[attr-defined]
            raise CorpusError(f"unknown relation label {text.strip()!r}")
        return label

    def all_directed(self) -> list[DirectedLabel]:
        """The 2R+1 directed classes, bases in inventory order, Other last."""
        return list(self._labels.values())  # type: ignore[attr-defined]


DEFAULT_LABELS = LabelSet(SEMEVAL_BASES)


def load_label_set(path: str | Path) -> LabelSet:
    """Read a label-set file: one base relation name per line (ended by ``\\n`` or
    ``\\r\\n``) stripped of surrounding whitespace, blank lines and # comments
    skipped, Other implicit; errors name the file."""
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AlignedInstance:
    """A raw annotated instance paired with its dependency parse, which
    share one token tuple (``raw.tokens is parse.forms``)."""

    raw: RawInstance
    parse: ParsedSentence


# ---------------------------------------------------------------------------
# Annotated-sentence file format
# ---------------------------------------------------------------------------

_RECORD_RE = re.compile(r'^([^\t]*)\t"(.*)"\s*$')


_E1_RE = re.compile(r"<e1>(.*?)</e1>", re.DOTALL)
_E2_RE = re.compile(r"<e2>(.*?)</e2>", re.DOTALL)


def _tokenize_marked(text: str, where: str) -> tuple[list[str], tuple[int, int], tuple[int, int]]:
    """Tokenize a sentence with entity markers, returning tokens and spans."""
    m1, m2 = _E1_RE.search(text), _E2_RE.search(text)
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
    tokens = pre + ent_a + mid + ent_b + post
    if first is m1:
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
        try:
            inst_id = parse_decimal(m.group(1), "instance id")
        except ValueError as e:
            raise CorpusError(f"{where}: {e}") from None
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
    sentences.  A DEPREL must be non-empty and hold no whitespace, as a path
    file's nodes must, and head structure is validated to be a single tree;
    an error names the sentence and the line of the offending token, or the
    sentence's first line when the fault is the whole sentence's.
    """
    sentences: list[ParsedSentence] = []
    forms: list[str] = []
    heads: list[int | None] = []
    deprels: list[str] = []
    share = {}.setdefault  # one object per distinct form of the file
    arc_label = {}.setdefault  # one object per distinct arc label, checked when first read
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
            head = parse_decimal(cols[6], "HEAD")
        except ValueError as e:
            raise CorpusError(f"{path}: sentence {ordinal}, line {lineno}: {e}") from None
        deprel = arc_label(cols[7], cols[7])
        if deprel is cols[7] and deprel.split() != [deprel]:
            raise CorpusError(f"{path}: sentence {ordinal}, line {lineno}: "
                              f"DEPREL {deprel!r} is empty or holds whitespace")
        forms.append(cols[1])
        heads.append(head - 1 if head else None)
        deprels.append(deprel)
    if forms:
        sentences.append(_finish_sentence(forms, heads, deprels, share, path, ordinal, first))
    return sentences


def _finish_sentence(
    forms: list[str], heads: list[int | None], deprels: list[str],
    share: Callable[[str, str], str], path: str | Path, ordinal: int, first: int,
) -> ParsedSentence:
    """The sentence read from lines ``first`` on, its forms replaced by
    ``share``'s copies; the lines of a sentence are consecutive, so token i
    is on line ``first + i``."""
    try:
        return ParsedSentence(tuple(map(share, forms, forms)), tuple(heads), tuple(deprels))
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
    """Pair an annotated instance with its parse, verifying token identity.

    The tokens are then held once: ``raw`` is changed in place to hold the
    parse's ``forms`` tuple as its ``tokens``, which the check has shown to
    be equal, so its own tuple and strings are freed.
    """
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
    object.__setattr__(raw, "tokens", parse.forms)  # frozen, but the value is equal
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
