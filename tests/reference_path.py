"""Breadth-first path extraction over an undirected graph, kept as a reference.

This is the straightforward version of ``instance_path``: turn the head
links into an undirected, orientation-tagged adjacency list, run a BFS
between the two anchors, and encode the token path by looking each edge up
again.  ``sdprel.deppath.instance_path`` walks head links to the lowest
common ancestor instead and must give the same node sequences (see
``test_deppath.py`` and ``test_deppath_properties.py``); this module is not
used outside the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from sdprel.corpus import ParsedSentence
from sdprel.deppath import (
    ARROW_TO_DEPENDENT,
    ARROW_TO_HEAD,
    NodeSequence,
    PathError,
    PathMode,
)


@dataclass(frozen=True)
class Edge:
    neighbor: int
    deprel: str
    to_head: bool


@dataclass(frozen=True)
class DepGraph:
    """Undirected adjacency view of a parse tree (root link excluded)."""

    n: int
    adjacency: tuple[tuple[Edge, ...], ...]

    def edge_between(self, i: int, j: int) -> Edge:
        for e in self.adjacency[i]:
            if e.neighbor == j:
                return e
        raise PathError(f"no arc between tokens {i} and {j}")


def build_graph(parse: ParsedSentence) -> DepGraph:
    """Turn head links into labeled, orientation-tagged undirected adjacency."""
    n = len(parse)
    adj: list[list[Edge]] = [[] for _ in range(n)]
    for i, (head, deprel) in enumerate(zip(parse.heads, parse.deprels)):
        if head is None:
            continue
        adj[i].append(Edge(head, deprel, to_head=True))
        adj[head].append(Edge(i, deprel, to_head=False))
    return DepGraph(n, tuple(tuple(edges) for edges in adj))


def shortest_path(g: DepGraph, a: int, b: int) -> list[int]:
    """BFS from a to b; in a tree this is the unique simple path."""
    if a == b:
        raise PathError(f"degenerate pair: both anchors are token {a}")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise PathError(f"anchor out of range: {a}, {b} (n={g.n})")
    parent = [-1] * g.n
    parent[a] = a
    queue = deque([a])
    while queue:
        i = queue.popleft()
        if i == b:
            break
        for e in g.adjacency[i]:
            if parent[e.neighbor] == -1:
                parent[e.neighbor] = i
                queue.append(e.neighbor)
    if parent[b] == -1:
        raise PathError(f"no path between tokens {a} and {b}")
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def encode_path(
    path: list[int], g: DepGraph, parse: ParsedSentence, mode: PathMode
) -> NodeSequence:
    """Encode a token path as word/arrow/label nodes; words are lower-cased."""
    texts = [parse.forms[path[0]].lower()]
    for i, j in zip(path, path[1:]):
        edge = g.edge_between(i, j)
        texts.append(ARROW_TO_HEAD if edge.to_head else ARROW_TO_DEPENDENT)
        if mode is PathMode.LABELED:
            texts.append(edge.deprel)
        texts.append(parse.forms[j].lower())
    return NodeSequence(tuple(texts), mode)
