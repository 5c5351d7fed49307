"""Properties of the dual-direction ``combine`` rule over arbitrary distributions."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from sdprel.corpus import Direction, LabelSet
from sdprel.infer_eval import combine

LABELS = LabelSet(("RelA", "RelB", "RelC"))
K = len(LABELS.bases) + 1


def distributions():
    """Non-negative weights over the R+1 base classes, normalised; zeros and
    repeated values are kept so that argmax ties occur."""
    weights = st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 1.0),
        min_size=K, max_size=K,
    ).filter(lambda w: sum(w) > 0)
    return weights.map(lambda w: np.array(w) / sum(w))


@given(distributions(), distributions())
def test_only_other_is_directionless(fwd, rev):
    label = combine(fwd, rev, LABELS)
    assert (label.direction is Direction.NONE) == label.is_other
    assert label.is_other or label.base in LABELS.bases


@given(distributions(), distributions())
def test_swapping_the_directions_flips_only_the_direction(fwd, rev):
    other = len(LABELS.bases)
    # An exact tie between the best relations breaks toward forward by design.
    assume(fwd[:other].max() != rev[:other].max())
    label = combine(fwd, rev, LABELS)
    swapped = combine(rev, fwd, LABELS)
    assert swapped == label.reversed()
