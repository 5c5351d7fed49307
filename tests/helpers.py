"""Shared test scaffolding: hand-built parses and random tree generation."""

from __future__ import annotations

import numpy as np

from sdprel.corpus import ParsedSentence

DEPRELS = ("nsubj", "dobj", "det", "amod", "prep", "pobj", "conj", "advmod")


def make_parse(entries) -> ParsedSentence:
    """entries: (form, head 0-based or None, deprel) triples."""
    forms, heads, deprels = zip(*entries)
    return ParsedSentence(forms, heads, deprels)


def singer_parse() -> ParsedSentence:
    """'The singer caused a commotion' with nsubj/dobj arcs on 'caused'."""
    return make_parse([
        ("The", 1, "det"),
        ("singer", 2, "nsubj"),
        ("caused", None, "root"),
        ("a", 4, "det"),
        ("commotion", 2, "dobj"),
    ])


def random_heads(rng: np.random.Generator, n: int) -> list[int | None]:
    """A uniform-ish random tree: each node attaches to an earlier one."""
    order = rng.permutation(n)
    heads: list[int | None] = [0] * n
    heads[order[0]] = None
    for k in range(1, n):
        heads[order[k]] = int(order[rng.integers(k)])
    return heads


def random_parse(rng: np.random.Generator, n: int) -> ParsedSentence:
    heads = random_heads(rng, n)
    return make_parse([
        (f"w{rng.integers(30)}", heads[i], DEPRELS[rng.integers(len(DEPRELS))])
        for i in range(n)
    ])


def tree_adjacency(parse: ParsedSentence) -> list[set[int]]:
    """Undirected adjacency built directly from head links (oracle-side)."""
    adj: list[set[int]] = [set() for _ in range(len(parse))]
    for i, head in enumerate(parse.heads):
        if head is not None:
            adj[i].add(head)
            adj[head].add(i)
    return adj


def all_simple_paths(adj: list[set[int]], a: int, b: int) -> list[list[int]]:
    """Exhaustive DFS enumeration of simple paths from a to b."""
    found: list[list[int]] = []

    def walk(node: int, visited: set[int], path: list[int]) -> None:
        if node == b:
            found.append(list(path))
            return
        for nb in sorted(adj[node]):
            if nb not in visited:
                visited.add(nb)
                path.append(nb)
                walk(nb, visited, path)
                path.pop()
                visited.remove(nb)

    walk(a, {a}, [a])
    return found
