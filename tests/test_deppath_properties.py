"""Properties of path extraction and reversal over arbitrary single-root trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdprel.corpus import DirectedLabel, Direction, RawInstance
from sdprel.deppath import (
    NodeSequence,
    PathMode,
    instance_path,
    reverse_path,
    select_anchor,
)
from helpers import DEPRELS, make_parse
from reference_path import build_graph, encode_path, shortest_path
from writers import with_swapped_spans

FORMS = ("the", "Singer", "caused", "a", "COMMOTION", "in", "x")
MODES = st.sampled_from(list(PathMode))


@st.composite
def trees(draw, min_size=2, max_size=16):
    """Any rooted tree on n nodes: in some order, each node after the first
    (the root) takes its head among the nodes before it."""
    n = draw(st.integers(min_size, max_size))
    order = draw(st.permutations(range(n)))
    heads: list[int | None] = [None] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    forms = draw(st.lists(st.sampled_from(FORMS), min_size=n, max_size=n))
    deprels = draw(st.lists(st.sampled_from(DEPRELS), min_size=n, max_size=n))
    return make_parse(list(zip(forms, heads, deprels)))


@st.composite
def instances(draw):
    """A tree and two disjoint nominal spans on it, either one first."""
    parse = draw(trees())
    n = len(parse)
    hi1, lo2 = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    lo1 = draw(st.integers(0, hi1))
    hi2 = draw(st.integers(lo2, n - 1))
    spans = [(lo1, hi1), (lo2, hi2)]
    if draw(st.booleans()):
        spans.reverse()
    label = DirectedLabel("Cause-Effect", Direction.E1_TO_E2)
    raw = RawInstance(1, parse.forms, spans[0], spans[1], label)
    return raw, parse


def bfs_path(raw, parse, mode):
    g = build_graph(parse)
    a = select_anchor(raw.e1_span, parse)
    b = select_anchor(raw.e2_span, parse)
    return encode_path(shortest_path(g, a, b), g, parse, mode)


@settings(deadline=None)
@given(instances(), MODES)
def test_head_walk_equals_bfs_reference(inst, mode):
    raw, parse = inst
    assert instance_path(raw, parse, mode) == bfs_path(raw, parse, mode)


@settings(deadline=None)
@given(instances(), MODES)
def test_reverse_is_an_involution(inst, mode):
    seq = instance_path(*inst, mode)
    assert reverse_path(reverse_path(seq)) == seq


@settings(deadline=None)
@given(instances(), MODES)
def test_swapping_the_spans_reverses_the_path(inst, mode):
    raw, parse = inst
    swapped = instance_path(with_swapped_spans(raw), parse, mode)
    assert swapped == reverse_path(instance_path(raw, parse, mode))


@settings(deadline=None)
@given(instances(), MODES, st.data())
def test_wrong_length_names_the_mode(inst, mode, data):
    texts = list(instance_path(*inst, mode).texts)
    del texts[data.draw(st.integers(0, len(texts) - 1))]
    with pytest.raises(ValueError) as info:
        NodeSequence(tuple(texts), mode)
    assert str(info.value) == f"sequence of {len(texts)} nodes does not fit mode {mode.value}"
