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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .corpus import Direction, ParsedSentence, RawInstance

ARROW_TO_HEAD = "→"
ARROW_TO_DEPENDENT = "←"
_ARROWS = {ARROW_TO_HEAD, ARROW_TO_DEPENDENT}


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


@dataclass(frozen=True)
class PathNode:
    kind: NodeKind
    text: str

    def __post_init__(self) -> None:
        if self.kind is NodeKind.ARROW and self.text not in _ARROWS:
            raise ValueError(f"invalid arrow token {self.text!r}")


#: Every arrow node on an extracted or reversed path is one of these two.
TO_HEAD = PathNode(NodeKind.ARROW, ARROW_TO_HEAD)
TO_DEPENDENT = PathNode(NodeKind.ARROW, ARROW_TO_DEPENDENT)

_LABELED_UNIT = (NodeKind.WORD, NodeKind.ARROW, NodeKind.LABEL)
_DIRECTIONS_UNIT = (NodeKind.WORD, NodeKind.ARROW)
_kind_of = attrgetter("kind")


def _unit(mode: PathMode) -> tuple[NodeKind, ...]:
    """The node kinds of one step of a path: its first word and the arc after it."""
    return _LABELED_UNIT if mode is PathMode.LABELED else _DIRECTIONS_UNIT


def _kind_at(position: int, mode: PathMode) -> NodeKind:
    unit = _unit(mode)
    return unit[position % len(unit)]


@dataclass(frozen=True)
class NodeSequence:
    """The encoded path: WORD (ARROW [LABEL] WORD)*, anchors at both ends."""

    nodes: tuple[PathNode, ...]
    mode: PathMode

    def __post_init__(self) -> None:
        unit = _unit(self.mode)
        n, step = len(self.nodes), len(unit)
        if n < 1 or n % step != 1:
            raise ValueError(f"sequence of {n} nodes does not fit mode {self.mode.value}")
        if tuple(map(_kind_of, self.nodes)) != unit * (n // step) + (NodeKind.WORD,):
            for i, node in enumerate(self.nodes):
                want = unit[i % step]
                if node.kind is not want:
                    raise ValueError(f"node {i}: expected {want.value}, got {node.kind.value}")

    def __len__(self) -> int:
        return len(self.nodes)

    def texts(self) -> list[str]:
        return [n.text for n in self.nodes]


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
    nodes = [PathNode(NodeKind.WORD, forms[a].lower())]
    for child, head in zip(up, up[1:]):
        nodes.append(TO_HEAD)
        if labeled:
            nodes.append(PathNode(NodeKind.LABEL, deprels[child]))
        nodes.append(PathNode(NodeKind.WORD, forms[head].lower()))
    for child in reversed(down):
        nodes.append(TO_DEPENDENT)
        if labeled:
            nodes.append(PathNode(NodeKind.LABEL, deprels[child]))
        nodes.append(PathNode(NodeKind.WORD, forms[child].lower()))
    return NodeSequence(tuple(nodes), mode)


def _flipped(arrow: PathNode) -> PathNode:
    return TO_DEPENDENT if arrow.text == ARROW_TO_HEAD else TO_HEAD


def reverse_path(s: NodeSequence) -> NodeSequence:
    """Reverse the path, keeping each arrow/label unit on its edge and
    flipping every arrow."""
    nodes = s.nodes
    out = list(nodes)
    if s.mode is PathMode.LABELED:
        # w0 a0 l0 w1 ... a(k-1) l(k-1) wk  ->  wk a(k-1)' l(k-1) ... w1 a0' l0 w0
        out[0::3] = nodes[-1::-3]
        out[1::3] = map(_flipped, nodes[-3::-3])
        out[2::3] = nodes[-2::-3]
    else:
        out[0::2] = nodes[-1::-2]
        out[1::2] = map(_flipped, nodes[-2::-2])
    return NodeSequence(tuple(out), s.mode)


def subject_first_path(
    raw: RawInstance, parse: ParsedSentence, mode: PathMode
) -> NodeSequence:
    """The path starting at the gold subject (e1→e2 for undirected labels)."""
    fwd = instance_path(raw, parse, mode)
    if raw.label.direction is Direction.E2_TO_E1:
        return reverse_path(fwd)
    return fwd


# ---------------------------------------------------------------------------
# Path file format (`extract-paths` output, also the negative-pool input)
# ---------------------------------------------------------------------------


def format_path_line(inst_id: int, s: NodeSequence) -> str:
    return f"{inst_id}\t" + " ".join(s.texts())


def parse_path_line(line: str, mode: PathMode) -> tuple[int, NodeSequence]:
    """Inverse of format_path_line; validates the node pattern."""
    try:
        id_part, rest = line.rstrip("\n").split("\t", 1)
        inst_id = int(id_part)
    except ValueError:
        raise PathError(f"malformed path line {line!r}") from None
    texts = rest.split(" ")
    try:
        nodes = tuple(
            PathNode(_kind_at(i, mode), t) for i, t in enumerate(texts)
        )
        return inst_id, NodeSequence(nodes, mode)
    except ValueError as e:
        raise PathError(f"malformed path line {line!r}: {e}") from None
