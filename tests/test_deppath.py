"""Dependency graphs, shortest paths, and node-sequence encoding."""

from types import SimpleNamespace

import numpy as np
import pytest

from sdprel.corpus import RawInstance, Direction, DirectedLabel
from sdprel.deppath import (
    ARROW_TO_DEPENDENT,
    ARROW_TO_HEAD,
    NodeKind,
    NodeSequence,
    PathError,
    PathMode,
    format_path_line,
    instance_path,
    parse_path_line,
    reverse_path,
    select_anchor,
    subject_first_path,
)
from helpers import (
    all_simple_paths,
    make_parse,
    random_parse,
    singer_parse,
    tree_adjacency,
)
from reference_path import build_graph, encode_path, shortest_path


class TestGraph:
    def test_single_edge_carries_deprel(self):
        g = build_graph(make_parse([("a", 1, "nsubj"), ("b", None, "root")]))
        assert len(g.adjacency[0]) == 1
        assert g.adjacency[0][0].deprel == "nsubj"
        assert g.adjacency[0][0].to_head is True
        assert g.adjacency[1][0].to_head is False

    def test_single_token_has_no_edges(self):
        g = build_graph(make_parse([("a", None, "root")]))
        assert g.adjacency == ((),)

    def test_chain_degrees(self):
        chain = make_parse([
            ("a", 1, "x"), ("b", 2, "x"), ("c", None, "r"), ("d", 2, "x"), ("e", 3, "x"),
        ])
        g = build_graph(chain)
        degrees = sorted(len(edges) for edges in g.adjacency)
        assert degrees == [1, 1, 2, 2, 2]

    def test_edges_mirrored_with_opposite_orientation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            parse = random_parse(rng, int(rng.integers(2, 10)))
            g = build_graph(parse)
            n_edges = sum(len(e) for e in g.adjacency) // 2
            assert n_edges == len(parse) - 1
            for i, edges in enumerate(g.adjacency):
                for e in edges:
                    back = g.edge_between(e.neighbor, i)
                    assert back.to_head != e.to_head
                    assert back.deprel == e.deprel


class TestAnchor:
    def test_single_token_span(self):
        assert select_anchor((2, 2), singer_parse()) == 2

    def test_span_head_selected(self):
        parse = make_parse([
            ("x", 3, "a"), ("in", 2, "case"), ("boxes", 3, "obl"), ("r", None, "root"),
        ])
        # token 1 heads into the span, token 2 heads outside: 2 is the anchor
        assert select_anchor((1, 2), parse) == 2

    def test_fallback_rightmost_when_ambiguous(self):
        parse = make_parse([
            ("a", 3, "x"), ("b", 0, "y"), ("c", 0, "y"), ("r", None, "root"),
        ])
        # tokens 1 and 2 both head to 0 inside? no: spans (1,2): both head 0, outside
        assert select_anchor((1, 2), parse) == 2


class TestShortestPath:
    def test_adjacent_tokens(self):
        g = build_graph(singer_parse())
        assert shortest_path(g, 1, 2) == [1, 2]

    def test_symmetry(self):
        g = build_graph(singer_parse())
        assert shortest_path(g, 0, 4) == list(reversed(shortest_path(g, 4, 0)))

    def test_identical_anchors_rejected(self):
        g = build_graph(singer_parse())
        with pytest.raises(PathError, match="degenerate"):
            shortest_path(g, 2, 2)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            parse = random_parse(rng, n)
            a, b = rng.choice(n, size=2, replace=False)
            got = shortest_path(build_graph(parse), int(a), int(b))
            oracle = all_simple_paths(tree_adjacency(parse), int(a), int(b))
            assert len(oracle) == 1, "a tree admits exactly one simple path"
            assert got == oracle[0]


class TestEncoding:
    def test_singer_example_labeled(self):
        parse = singer_parse()
        g = build_graph(parse)
        seq = encode_path([1, 2, 4], g, parse, PathMode.LABELED)
        assert seq.texts == ("singer", "→", "nsubj", "caused", "←", "dobj", "commotion")

    def test_singer_example_directions_only(self):
        parse = singer_parse()
        g = build_graph(parse)
        seq = encode_path([1, 2, 4], g, parse, PathMode.DIRECTIONS_ONLY)
        assert seq.texts == ("singer", "→", "caused", "←", "commotion")

    def test_words_lowercased_labels_verbatim(self):
        parse = make_parse([("Singer", 1, "NSUBJ"), ("Caused", None, "root")])
        g = build_graph(parse)
        seq = encode_path([0, 1], g, parse, PathMode.LABELED)
        assert seq.texts == ("singer", "→", "NSUBJ", "caused")

    def test_length_formulas(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            parse = random_parse(rng, n)
            g = build_graph(parse)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            path = shortest_path(g, a, b)
            k = len(path) - 1
            assert len(encode_path(path, g, parse, PathMode.LABELED)) == 3 * k + 1
            assert len(encode_path(path, g, parse, PathMode.DIRECTIONS_ONLY)) == 2 * k + 1

    def test_single_edge_lengths(self):
        parse = make_parse([("a", 1, "x"), ("b", None, "r")])
        g = build_graph(parse)
        assert len(encode_path([0, 1], g, parse, PathMode.LABELED)) == 4
        assert len(encode_path([0, 1], g, parse, PathMode.DIRECTIONS_ONLY)) == 3

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            NodeSequence(("x", ARROW_TO_HEAD), PathMode.DIRECTIONS_ONLY)
        with pytest.raises(ValueError):
            NodeSequence(("x", ARROW_TO_HEAD, "x"), PathMode.LABELED)


class TestReversal:
    def test_singer_example_reversed(self):
        parse = singer_parse()
        g = build_graph(parse)
        seq = encode_path([1, 2, 4], g, parse, PathMode.LABELED)
        assert reverse_path(seq).texts == (
            "commotion", "→", "dobj", "caused", "←", "nsubj", "singer",
        )

    def test_single_word_is_fixed_point(self):
        seq = NodeSequence(("x",), PathMode.LABELED)
        assert reverse_path(seq) == seq

    def test_involution_and_node_multisets(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            parse = random_parse(rng, n)
            g = build_graph(parse)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            for mode in PathMode:
                seq = encode_path(shortest_path(g, a, b), g, parse, mode)
                rev = reverse_path(seq)
                assert reverse_path(rev) == seq
                for kind in (NodeKind.WORD, NodeKind.LABEL):
                    assert sorted(
                        n.text for n in seq.nodes if n.kind is kind
                    ) == sorted(n.text for n in rev.nodes if n.kind is kind)
                fwd_arrows = [n.text for n in seq.nodes if n.kind is NodeKind.ARROW]
                rev_arrows = [n.text for n in rev.nodes if n.kind is NodeKind.ARROW]
                assert fwd_arrows.count(ARROW_TO_HEAD) == rev_arrows.count(ARROW_TO_DEPENDENT)

    def test_duality_with_opposite_direction_encoding(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            parse = random_parse(rng, n)
            g = build_graph(parse)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            for mode in PathMode:
                fwd = encode_path(shortest_path(g, a, b), g, parse, mode)
                bwd = encode_path(shortest_path(g, b, a), g, parse, mode)
                assert bwd == reverse_path(fwd)


class TestInstancePaths:
    def _instance(self, direction):
        label = (
            DirectedLabel("Cause-Effect", direction)
            if direction is not None
            else None
        )
        return RawInstance(
            9,
            ("The", "singer", "caused", "a", "commotion"),
            (1, 1),
            (4, 4),
            label,
        )

    def test_forward_path_is_e1_to_e2(self):
        inst = self._instance(Direction.E1_TO_E2)
        seq = instance_path(inst, singer_parse(), PathMode.LABELED)
        assert seq.texts[0] == "singer"
        assert seq.texts[-1] == "commotion"

    def test_subject_first_honors_gold_direction(self):
        inst = self._instance(Direction.E2_TO_E1)
        seq, from_e2 = subject_first_path(inst, singer_parse(), PathMode.LABELED)
        assert seq.texts[0] == "commotion"
        assert seq.texts[-1] == "singer"
        assert from_e2
        forward = self._instance(Direction.E1_TO_E2)
        seq, from_e2 = subject_first_path(forward, singer_parse(), PathMode.LABELED)
        assert seq == instance_path(forward, singer_parse(), PathMode.LABELED)
        assert not from_e2

    def test_degenerate_and_out_of_range_anchors_rejected(self):
        # RawInstance forbids both; a bare pair of spans reaches the checks
        same = SimpleNamespace(e1_span=(2, 2), e2_span=(2, 2))
        with pytest.raises(PathError, match="degenerate pair: both anchors are token 2"):
            instance_path(same, singer_parse(), PathMode.LABELED)
        negative = SimpleNamespace(e1_span=(-1, -1), e2_span=(2, 2))
        with pytest.raises(PathError, match=r"anchor out of range: -1, 2 \(n=5\)"):
            instance_path(negative, singer_parse(), PathMode.LABELED)


class TestPathLines:
    def test_round_trip(self):
        parse = singer_parse()
        g = build_graph(parse)
        for mode in PathMode:
            seq = encode_path([1, 2, 4], g, parse, mode)
            line = format_path_line(42, seq)
            assert parse_path_line(line, mode) == (42, seq)

    def test_malformed_lines_rejected(self):
        with pytest.raises(PathError):
            parse_path_line("no-tab-here", PathMode.LABELED)
        with pytest.raises(PathError):
            parse_path_line("1\ta → b", PathMode.LABELED)  # wrong arity
        with pytest.raises(PathError):
            parse_path_line("1\ta x b", PathMode.DIRECTIONS_ONLY)  # bad arrow

    @pytest.mark.parametrize("rest, mode, fault", [
        ("not a path", PathMode.LABELED, "invalid arrow token 'a'"),
        ("a → b", PathMode.LABELED, "sequence of 3 nodes does not fit mode labeled"),
        ("a x b", PathMode.DIRECTIONS_ONLY, "invalid arrow token 'x'"),
        # a bad arrow is reported before a bad length, and the first one first
        ("a → b c ← d e", PathMode.DIRECTIONS_ONLY, "invalid arrow token 'c'"),
        ("a x r b ← s", PathMode.LABELED, "invalid arrow token 'x'"),
    ])
    def test_malformed_line_names_the_first_fault(self, rest, mode, fault):
        line = f"1\t{rest}"
        with pytest.raises(PathError) as info:
            parse_path_line(line, mode)
        assert str(info.value) == f"malformed path line {line!r}: {fault}"


class TestNodeView:
    def test_kinds_follow_from_position(self):
        labeled = NodeSequence(("a", "→", "nsubj", "b", "←", "dobj", "c"), PathMode.LABELED)
        assert [n.kind for n in labeled.nodes] == [
            NodeKind.WORD, NodeKind.ARROW, NodeKind.LABEL, NodeKind.WORD,
            NodeKind.ARROW, NodeKind.LABEL, NodeKind.WORD,
        ]
        assert tuple(n.text for n in labeled.nodes) == labeled.texts
        assert labeled.words == ("a", "b", "c")
        bare = NodeSequence(("a", "→", "b", "←", "c"), PathMode.DIRECTIONS_ONLY)
        assert [n.kind for n in bare.nodes] == [
            NodeKind.WORD, NodeKind.ARROW, NodeKind.WORD, NodeKind.ARROW, NodeKind.WORD,
        ]
        assert bare.words == ("a", "b", "c")
