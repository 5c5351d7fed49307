"""Forward pass, loss, exact gradients, and the finite-difference checker."""

import dataclasses
import math

import numpy as np
import pytest

import sdprel.network as network
from sdprel.embeddings import PAD_INDEX
from sdprel.network import (
    BLOCKS,
    DENSE_BLOCKS,
    ConvTable,
    GradCheckReport,
    Hyperparams,
    NetworkParams,
    NumericError,
    backward,
    block_shapes,
    forward,
    grad_check,
    init_network_params,
    loss,
    regularized_columns,
    softmax,
    window_concat,
)


def zero_params(hp, vocab_size=8):
    return NetworkParams(
        We=np.zeros((hp.d, vocab_size)),
        W1=np.zeros((hp.n1, hp.d_w)),
        b1=np.zeros(hp.n1),
        W2=np.zeros((hp.n2, hp.n1)),
        b2=np.zeros(hp.n2),
        W3=np.zeros((hp.K, hp.n2 + hp.f)),
        b3=np.zeros(hp.K),
    )


def random_params(hp, vocab_size=8, seed=0):
    We = np.random.default_rng(seed).uniform(-0.25, 0.25, size=(hp.d, vocab_size))
    We[:, PAD_INDEX] = 0.0
    return init_network_params(hp, We, seed + 1)


class TestWindowConcat:
    def test_t1_w3_is_fully_padded(self):
        We = np.arange(12, dtype=float).reshape(2, 6)
        We[:, PAD_INDEX] = 0.0
        X = window_concat([3], We, 3)
        assert X.shape == (6, 1)
        assert np.array_equal(X[:, 0], [0, 0, We[0, 3], We[1, 3], 0, 0])

    def test_w1_is_identity_window(self):
        We = np.random.default_rng(1).normal(size=(3, 7))
        X = window_concat([2, 5, 1], We, 1)
        assert np.array_equal(X, We[:, [2, 5, 1]])

    def test_middle_column_concatenates_neighbors(self):
        We = np.random.default_rng(2).normal(size=(2, 7))
        X = window_concat([4, 5, 6], We, 3)
        assert np.array_equal(X[:, 1], np.concatenate([We[:, 4], We[:, 5], We[:, 6]]))


class TestForward:
    def test_zero_parameters_give_uniform_distribution(self):
        hp = Hyperparams(d=2, w=3, n1=3, n2=2, K=7)
        probs, _ = forward(zero_params(hp), hp, [2, 3, 4])
        assert np.array_equal(probs, np.full(7, 1.0 / 7.0))

    def test_t1_pools_the_single_column(self):
        hp = Hyperparams(d=3, w=3, n1=4, n2=3, K=2)
        params = random_params(hp)
        _, cache = forward(params, hp, [5])
        assert np.array_equal(cache.pooled, cache.Z[:, 0])

    def test_output_shape_for_any_length(self):
        hp = Hyperparams(d=3, w=3, n1=4, n2=3, K=5)
        params = random_params(hp)
        rng = np.random.default_rng(8)
        for t in range(1, 31):
            indices = rng.integers(1, 8, size=t)
            probs, _ = forward(params, hp, indices)
            assert probs.shape == (5,)
            assert np.all(np.isfinite(probs))
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_repeated_forward_is_identical(self):
        hp = Hyperparams(d=3, w=3, n1=4, n2=3, K=4)
        params = random_params(hp, seed=3)
        p1, c1 = forward(params, hp, [2, 3, 4, 5])
        p2, c2 = forward(params, hp, [2, 3, 4, 5])
        assert np.array_equal(p1, p2)
        assert np.array_equal(c1.argmax, c2.argmax)

    def test_dominated_columns_leave_pooling_unchanged(self):
        hp = Hyperparams(d=2, w=1, n1=3, n2=2, K=2)
        params = zero_params(hp, vocab_size=6)
        rng = np.random.default_rng(4)
        params.W1 = np.abs(rng.normal(size=(3, 2))) + 0.1
        params.We[:, 2:5] = rng.uniform(0.1, 1.0, size=(2, 3))
        params.We[:, 5] = -5.0  # strictly negative Z column under W1 >= 0
        _, base = forward(params, hp, [2, 3, 4])
        _, extended = forward(params, hp, [2, 3, 4, 5, 5])
        assert np.array_equal(base.pooled, extended.pooled)

    def test_max_pool_ties_break_to_lowest_column(self):
        hp = Hyperparams(d=2, w=1, n1=3, n2=2, K=2)
        params = random_params(hp)
        _, cache = forward(params, hp, [4, 4, 4])
        assert np.array_equal(cache.argmax, np.zeros(3, dtype=int))

    def test_ties_break_to_lowest_position(self):
        # Dyadic weights make every sum exact: positions 2 and 3 both read
        # the window (4, 4, 4), the largest under positive filters.
        hp = Hyperparams(d=1, w=3, n1=3, n2=2, K=2)
        params = random_params(hp, vocab_size=5)
        params.We[0] = [0.0, 0.0, -1.0, 0.0, 1.0]
        params.W1 = np.array([[1.0, 1.0, 1.0], [0.5, 2.0, 0.25], [3.0, 1.0, 2.0]])
        params.b1 = np.zeros(3)
        _, cache = forward(params, hp, [2, 4, 4, 4, 4, 2])
        assert np.array_equal(cache.argmax, [2, 2, 2])

    def test_lexfeat_contract(self):
        hp = Hyperparams(d=2, w=1, n1=2, n2=2, K=2, f=3)
        params = random_params(hp)
        with pytest.raises(ValueError):
            forward(params, hp, [2, 3])  # missing lexfeat
        hp0 = Hyperparams(d=2, w=1, n1=2, n2=2, K=2)
        with pytest.raises(ValueError):
            forward(random_params(hp0), hp0, [2, 3], np.ones(3))

    def test_nonfinite_parameters_raise_with_layer_name(self):
        hp = Hyperparams(d=2, w=1, n1=2, n2=2, K=2)
        params = random_params(hp)
        params.W1[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="convolution"):
            forward(params, hp, [2, 3])


class TestConvTable:
    @staticmethod
    def random_case(rng):
        hp = Hyperparams(
            d=int(rng.integers(1, 6)), w=int(rng.choice([1, 3, 5])),
            n1=int(rng.integers(1, 9)), n2=int(rng.integers(1, 7)),
            K=int(rng.integers(2, 6)), f=int(rng.choice([0, 3])),
        )
        nonzero_pad = bool(rng.integers(2))
        params = random_params(hp, vocab_size=12, seed=int(rng.integers(1000)))
        if nonzero_pad:
            params.We[:, PAD_INDEX] = rng.normal(size=hp.d)
        params.b1 = rng.normal(scale=0.2, size=hp.n1)
        # A small vocab makes ids repeat within a window; id 0 is the pad id.
        indices = rng.integers(0, 12, size=rng.integers(1, 31))
        lexfeat = rng.normal(size=hp.f) if hp.f else None
        return hp, params, indices, lexfeat

    @pytest.mark.parametrize("seed", range(60))
    def test_table_forward_matches_matmul_forward(self, seed):
        rng = np.random.default_rng(seed)
        hp, params, indices, lexfeat = self.random_case(rng)
        # The table may hold more ids than the path, in any order, repeated.
        extra = rng.integers(0, 12, size=rng.integers(0, 6))
        table = ConvTable(params, hp, np.concatenate([extra, indices[::-1]]))
        want, want_cache = forward(params, hp, indices, lexfeat)
        got, got_cache = forward(params, hp, indices, lexfeat, table)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.argmax(got) == np.argmax(want)
        assert got_cache.Z.shape == want_cache.Z.shape == (hp.n1, len(indices))
        assert np.max(np.abs(got_cache.Z - want_cache.Z)) <= 1e-12
        assert np.max(np.abs(got_cache.pooled - want_cache.pooled)) <= 1e-12
        assert got_cache.argmax is None and got_cache.X is None

    def test_slot_tables_are_contiguous_and_hold_pad(self):
        hp = Hyperparams(d=3, w=3, n1=4, n2=3, K=2)
        table = ConvTable(random_params(hp), hp, [5, 2, 5])
        assert np.array_equal(table.ids, [PAD_INDEX, 2, 5])
        assert len(table.slots) == 3
        assert all(s.shape == (3, 4) and s.flags.c_contiguous for s in table.slots)

    @pytest.mark.parametrize("index", [-1, 1, 3, 6, 7, 100])
    def test_index_outside_the_table_raises(self, index):
        hp = Hyperparams(d=2, w=3, n1=3, n2=2, K=2)
        params = random_params(hp)
        table = ConvTable(params, hp, [2, 4, 5])
        with pytest.raises(ValueError, match=f"index {index} is not in the projection table"):
            forward(params, hp, [2, index, 5], table=table)

    def test_empty_table_holds_only_pad(self):
        hp = Hyperparams(d=2, w=3, n1=3, n2=2, K=2)
        params = random_params(hp)
        table = ConvTable(params, hp, ())
        assert np.array_equal(table.ids, [PAD_INDEX])
        with pytest.raises(ValueError, match="not in the projection table"):
            forward(params, hp, [2], table=table)

    def test_backward_rejects_a_table_cache(self):
        hp = Hyperparams(d=3, w=3, n1=4, n2=3, K=4)
        params = random_params(hp)
        _, cache = forward(params, hp, [2, 3, 4], table=ConvTable(params, hp, [2, 3, 4]))
        with pytest.raises(ValueError, match="projection table"):
            backward(cache, np.eye(4)[1], params, hp)


class TestSoftmax:
    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = softmax(rng.normal(scale=10, size=9))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = rng.normal(scale=5, size=7)
            assert np.max(np.abs(softmax(s + 123.456) - softmax(s))) < 1e-12


class TestLoss:
    def test_uniform_probabilities_one_hot_target(self):
        hp = Hyperparams(d=2, w=3, n1=3, n2=2, K=10,
                         lambda_we=0, lambda_w1=0, lambda_w2=0, lambda_w3=0)
        probs = np.full(10, 0.1)
        target = np.zeros(10)
        target[3] = 1.0
        got = loss(probs, target, zero_params(hp), hp, ())
        assert abs(got - math.log(10)) < 1e-12

    def test_matching_distribution_minimizes_cross_entropy(self):
        hp = Hyperparams(d=2, w=3, n1=3, n2=2, K=5,
                         lambda_we=0, lambda_w1=0, lambda_w2=0, lambda_w3=0)
        params = zero_params(hp)
        rng = np.random.default_rng(7)
        target = rng.uniform(0.05, 1.0, size=5)
        target /= target.sum()
        at_target = loss(target, target, params, hp, ())
        for _ in range(20):
            q = rng.uniform(0.01, 1.0, size=5)
            q /= q.sum()
            assert loss(q, target, params, hp, ()) >= at_target

    def test_regularization_contribution(self):
        hp = Hyperparams(d=2, w=1, n1=2, n2=2, K=1,
                         lambda_we=0, lambda_w1=1.0, lambda_w2=0, lambda_w3=0)
        params = zero_params(hp)
        params.W1 = np.eye(2)
        got = loss(np.array([1.0]), np.array([1.0]), params, hp, ())
        assert got == 2.0  # cross entropy is zero; ||I||_F^2 = 2

    def test_touched_columns_restrict_embedding_penalty(self):
        hp = Hyperparams(d=2, w=1, n1=2, n2=2, K=1,
                         lambda_we=1.0, lambda_w1=0, lambda_w2=0, lambda_w3=0)
        params = zero_params(hp, vocab_size=4)
        params.We = np.ones((2, 4))
        probs, target = np.array([1.0]), np.array([1.0])
        assert loss(probs, target, params, hp, regularized_columns([2])) == 2.0
        assert loss(probs, target, params, hp, ()) == 0.0


class TestBackward:
    def _setup(self, **overrides):
        kwargs = dict(d=3, w=3, n1=4, n2=3, K=4,
                      lambda_we=0, lambda_w1=0, lambda_w2=0, lambda_w3=0)
        kwargs.update(overrides)
        hp = Hyperparams(**kwargs)
        params = random_params(hp, seed=11)
        target = np.zeros(hp.K)
        target[1] = 1.0
        return hp, params, target

    def test_score_layer_gradient_is_probs_minus_target(self):
        hp, params, target = self._setup()
        probs, cache = forward(params, hp, [2, 3, 4])
        grads = backward(cache, target, params, hp)
        assert np.allclose(grads.b3, probs - target, atol=1e-15)
        assert np.allclose(grads.W3, np.outer(probs - target, cache.combined), atol=1e-15)

    def test_untouched_embedding_columns_absent(self):
        hp, params, target = self._setup(lambda_we=0.5)
        indices = [3, 5, 3]
        _, cache = forward(params, hp, indices)
        grads = backward(cache, target, params, hp)
        assert regularized_columns(indices) == [3, 5]
        assert grads.We.shape == (hp.d, 2)

    def test_mismatched_hyperparams_rejected(self):
        hp, params, target = self._setup()
        _, cache = forward(params, hp, [2, 3])
        other = Hyperparams(d=3, w=3, n1=4, n2=3, K=5)
        with pytest.raises(ValueError):
            backward(cache, target, params, other)


class TestGradCheck:
    def test_all_blocks_within_tolerance(self):
        report = grad_check(seed=0)
        assert report.passed
        assert report.n_configs >= 5
        assert set(report.block_errors) == {"We", "W1", "b1", "W2", "b2", "W3", "b3"}

    def test_corrupted_block_is_flagged(self, monkeypatch):
        exact = network.backward

        def corrupted(*args):
            grads = exact(*args)
            grads.W2 += 0.05
            return grads

        monkeypatch.setattr(network, "backward", corrupted)
        report = grad_check(seed=1)
        assert not report.passed
        failing = [b for b, e in report.block_errors.items() if e > report.tolerance]
        assert failing == ["W2"]

    def test_report_renders_status(self):
        report = GradCheckReport({"W1": 1e-9, "W2": 1e-2}, 1e-4, 1)
        text = report.render()
        assert "FAIL" in text and "ok" in text


def test_block_list_is_the_field_order_and_the_shape_order():
    hp = Hyperparams(d=2, w=3, n1=4, n2=5, K=6, f=1)
    assert tuple(f.name for f in dataclasses.fields(NetworkParams)) == BLOCKS
    assert tuple(block_shapes(hp, 7)) == BLOCKS
    assert DENSE_BLOCKS == BLOCKS[1:]
    params = init_network_params(hp, np.zeros((2, 7)), seed=0)
    assert [m.shape for m in params.blocks()] == list(block_shapes(hp, 7).values())
