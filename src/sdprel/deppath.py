"""Shortest dependency paths between two nominals, encoded as node sequences.

The unique simple path between the two nominal anchors of a parse tree runs
from one anchor up the head links to their lowest common ancestor and down
to the other anchor.  ``instance_path`` finds it by walking head links from
both anchors, which is exact because ``ParsedSentence`` guarantees a single
rooted tree; the breadth-first search over an undirected graph that it
replaced is kept as a test reference in ``tests/reference_path.py``.

The path is encoded as an alternating sequence of word, arrow, and
(optionally) arc-label nodes.  Arrow convention: "→" marks a traversal step
from dependent to head, "←" from head to dependent; the label of a step is
the arc label of its dependent.

A ``NodeSequence`` holds only the node strings and the mode: a node's kind
follows from its position, so extraction, reversal, path files and vocabulary
lookup build and check no per-node object.  The ``nodes`` property pairs each
string with its kind for readers that want both, such as the benchmark's
corpus notes; nothing on the training or prediction path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .corpus import Direction, ParsedSentence, RawInstance, parse_decimal

ARROW_TO_HEAD = "→"
ARROW_TO_DEPENDENT = "←"
_FLIPPED = {ARROW_TO_HEAD: ARROW_TO_DEPENDENT, ARROW_TO_DEPENDENT: ARROW_TO_HEAD}


class PathError(ValueError):
    """Path extraction failed for an instance."""


class NodeKind(Enum):
    WORD = "word"
    ARROW = "arrow"
    LABEL = "label"


class PathMode(Enum):
    """Whether arc labels appear on the encoded path or only arrows."""

    LABELED = "labeled"
    DIRECTIONS_ONLY = "directions-only"


class PathNode(NamedTuple):
    """One node of a path with the kind its position gives it."""

    kind: NodeKind
    text: str


def _step(mode: PathMode) -> int:
    """The node count of one step of a path: its first word and the arc after it."""
    return 3 if mode is PathMode.LABELED else 2


@dataclass(frozen=True)
class NodeSequence:
    """The encoded path: WORD (ARROW [LABEL] WORD)*, anchors at both ends."""

    texts: tuple[str, ...]
    mode: PathMode

    def __post_init__(self) -> None:
        n, step = len(self.texts), _step(self.mode)
        if n < 1 or n % step != 1:
            raise ValueError(f"sequence of {n} nodes does not fit mode {self.mode.value}")

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def words(self) -> tuple[str, ...]:
        """The word nodes, anchors included, in path order."""
        return self.texts[:: _step(self.mode)]

    @property
    def nodes(self) -> tuple[PathNode, ...]:
        """Every node with its positional kind (built on each call)."""
        kinds = tuple(NodeKind)[: _step(self.mode)]  # WORD, ARROW, then LABEL if labeled
        return tuple(PathNode(kinds[i % len(kinds)], t) for i, t in enumerate(self.texts))


def select_anchor(span: tuple[int, int], parse: ParsedSentence) -> int:
    """Pick the span's syntactic head: the one token headed from outside.

    Falls back to the rightmost span token when the head is not unique.
    """
    lo, hi = span
    heads = parse.heads
    outward = [
        i for i in range(lo, hi + 1) if heads[i] is None or not (lo <= heads[i] <= hi)
    ]
    if len(outward) == 1:
        return outward[0]
    return hi


def instance_path(raw: RawInstance, parse: ParsedSentence, mode: PathMode) -> NodeSequence:
    """The encoded shortest path from the e1 anchor to the e2 anchor.

    Words are lower-cased and arc labels kept verbatim.
    """
    a = select_anchor(raw.e1_span, parse)
    b = select_anchor(raw.e2_span, parse)
    forms, heads, deprels = parse.forms, parse.heads, parse.deprels
    n = len(forms)
    if a == b:
        raise PathError(f"degenerate pair: both anchors are token {a}")
    if not (0 <= a < n and 0 <= b < n):
        raise PathError(f"anchor out of range: {a}, {b} (n={n})")
    # a and its ancestors up to the root, each with its place on that chain
    up = [a]
    while (head := heads[up[-1]]) is not None:
        up.append(head)
    place = {t: k for k, t in enumerate(up)}
    # b and its ancestors below the lowest common ancestor, which is on `up`
    down: list[int] = []
    j = b
    while j not in place:
        down.append(j)
        j = heads[j]
    del up[place[j] + 1 :]

    labeled = mode is PathMode.LABELED
    texts = [forms[a].lower()]
    for child, head in zip(up, up[1:]):
        texts.append(ARROW_TO_HEAD)
        if labeled:
            texts.append(deprels[child])
        texts.append(forms[head].lower())
    for child in reversed(down):
        texts.append(ARROW_TO_DEPENDENT)
        if labeled:
            texts.append(deprels[child])
        texts.append(forms[child].lower())
    return NodeSequence(tuple(texts), mode)


def reverse_path(s: NodeSequence) -> NodeSequence:
    """Reverse the path, keeping each arrow/label unit on its edge and
    flipping every arrow."""
    texts = s.texts
    step = _step(s.mode)
    out = list(texts)
    # w0 a0 l0 w1 ... a(k-1) l(k-1) wk  ->  wk a(k-1)' l(k-1) ... w1 a0' l0 w0
    out[0::step] = texts[-1::-step]
    out[1::step] = [_FLIPPED[a] for a in texts[-step::-step]]
    if s.mode is PathMode.LABELED:
        out[2::3] = texts[-2::-3]
    return NodeSequence(tuple(out), s.mode)


def subject_first_path(
    raw: RawInstance, parse: ParsedSentence, mode: PathMode
) -> tuple[NodeSequence, bool]:
    """The path starting at the gold subject (e1→e2 for undirected labels),
    and whether it starts at e2."""
    fwd = instance_path(raw, parse, mode)
    from_e2 = raw.label.direction is Direction.E2_TO_E1
    return (reverse_path(fwd) if from_e2 else fwd), from_e2


# ---------------------------------------------------------------------------
# Path file format (`extract-paths` output, also the negative-pool input)
# ---------------------------------------------------------------------------


def format_path_line(inst_id: int, s: NodeSequence) -> str:
    return f"{inst_id}\t" + " ".join(s.texts)


def parse_path_line(line: str, mode: PathMode) -> tuple[int, NodeSequence]:
    """Inverse of format_path_line; validates the id, the nodes, the arrows, then
    the length.  Only trailing ``\\n`` are dropped: the id must be ASCII digits
    alone, nodes split at single spaces, and a node must be non-empty and hold no
    whitespace, so a tab, a lone ``\\r`` or a second space is an error."""
    try:
        id_part, rest = line.rstrip("\n").split("\t", 1)
    except ValueError:
        raise PathError(f"malformed path line {line!r}") from None
    texts = tuple(rest.split(" "))
    try:
        inst_id = parse_decimal(id_part, "instance id")
        for text in texts:
            if text.split() != [text]:
                raise ValueError(f"node {text!r} is empty or holds whitespace")
        for arrow in texts[1 :: _step(mode)]:
            if arrow not in _FLIPPED:
                raise ValueError(f"invalid arrow token {arrow!r}")
        return inst_id, NodeSequence(texts, mode)
    except ValueError as e:
        raise PathError(f"malformed path line {line!r}: {e}") from None
