"""The vectorised training step against its loop reference, and its failure paths."""

import copy

import numpy as np
import pytest

import reference_step as ref
import sdprel.network as network
import sdprel.training as training
from sdprel.embeddings import PAD_INDEX
from sdprel.infer_eval import predict_corpus
from sdprel.model import save_model
from sdprel.network import (
    Hyperparams,
    NetworkParams,
    NumericError,
    backward,
    forward,
    regularized_columns,
    window_concat,
)
from sdprel.training import (
    AdagradState,
    LabeledInstance,
    adagrad_update,
    config_from_mapping,
    run_training,
    train,
)
from helpers import nan_probability_forward
from synth import SYNTH_LABELS, aligned_corpus

BLOCKS = ("We", "W1", "b1", "W2", "b2", "W3", "b3")
VOCAB_SIZE = 12


def random_case(rng):
    """A random network, path and gold class over the configurations the step covers."""
    hp = Hyperparams(
        d=int(rng.integers(1, 6)), w=int(rng.choice([1, 3, 5])),
        n1=int(rng.integers(1, 9)), n2=int(rng.integers(1, 7)),
        K=int(rng.integers(2, 6)), f=int(rng.choice([0, 3])),
        lambda_we=1e-3, lambda_w1=2e-3, lambda_w2=3e-3, lambda_w3=4e-3,
    )
    nonzero_pad = bool(rng.integers(2))
    params = NetworkParams(
        We=rng.normal(scale=0.5, size=(hp.d, VOCAB_SIZE)),
        W1=rng.normal(scale=0.5, size=(hp.n1, hp.d_w)),
        b1=rng.normal(scale=0.2, size=hp.n1),
        W2=rng.normal(scale=0.5, size=(hp.n2, hp.n1)),
        b2=rng.normal(scale=0.2, size=hp.n2),
        W3=rng.normal(scale=0.5, size=(hp.K, hp.n2 + hp.f)),
        b3=rng.normal(scale=0.2, size=hp.K),
    )
    if not nonzero_pad:
        params.We[:, PAD_INDEX] = 0.0
    # A small vocab makes ids repeat within a window; id 0 is the pad id.
    indices = tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, size=rng.integers(1, 31)))
    lexfeat = rng.normal(size=hp.f) if hp.f else None
    return hp, params, indices, lexfeat, int(rng.integers(hp.K))


def assert_relative(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


CASES = range(60)


@pytest.mark.parametrize("seed", CASES)
def test_window_concat_is_bit_exact_and_contiguous(seed):
    hp, params, indices, _, _ = random_case(np.random.default_rng(seed))
    X = window_concat(network._window_ids(indices, hp.w), params.We)
    assert X.flags.c_contiguous
    assert X.shape == (hp.d_w, len(indices))
    assert X.tobytes() == ref.window_concat(indices, params.We, hp.w).tobytes()


@pytest.mark.parametrize("seed", CASES)
def test_backward_matches_loop_reference(seed):
    hp, params, indices, lexfeat, gold = random_case(np.random.default_rng(seed))
    _, cache = forward(params, hp, indices, lexfeat)
    got = backward(cache, gold, params, hp)
    want = ref.backward(cache, gold, params, hp)
    for name in BLOCKS:
        assert_relative(getattr(got, name), getattr(want, name))
    assert got.We.shape == (hp.d, len(regularized_columns(indices)))


#: Fixed paths by window size: one id repeated at w=1, so every column of Z
#: ties, and one-node paths.
FIXED_PATHS = {"tied": (1, (3, 3, 3)), "one node, w=1": (1, (7,)), "one node, w=3": (3, (5,))}


def fixed_case(w, indices):
    hp = Hyperparams(d=3, w=w, n1=4, n2=3, K=3,
                     lambda_we=1e-3, lambda_w1=2e-3, lambda_w2=3e-3, lambda_w3=4e-3)
    We = np.random.default_rng(w).normal(size=(hp.d, VOCAB_SIZE))
    return hp, network.init_network_params(hp, We, 5), indices, None, 1


@pytest.mark.parametrize("case", [*CASES, *FIXED_PATHS])
def test_backward_W1_gradient_equals_the_pooled_window_form_bit_for_bit(case):
    if case in FIXED_PATHS:
        hp, params, indices, lexfeat, gold = fixed_case(*FIXED_PATHS[case])
    else:
        hp, params, indices, lexfeat, gold = random_case(np.random.default_rng(case))
    _, cache = forward(params, hp, indices, lexfeat)
    if case == "tied":
        assert (cache.Z == cache.Z[:, :1]).all()
    got = backward(cache, gold, params, hp)
    assert got.W1.tobytes() == ref.pooled_window_dW1(cache, got.b1, params, hp).tobytes()


def test_all_pad_path_trains_no_embedding_column():
    hp = Hyperparams(d=2, w=1, n1=3, n2=2, K=2)
    params = NetworkParams(
        We=np.zeros((2, 4)), W1=np.ones((3, 2)), b1=np.zeros(3), W2=np.ones((2, 3)),
        b2=np.zeros(2), W3=np.ones((2, 2)), b3=np.zeros(2),
    )
    _, cache = forward(params, hp, [PAD_INDEX, PAD_INDEX])
    got = backward(cache, 0, params, hp)
    want = ref.backward(cache, 0, params, hp)
    assert got.We.shape == want.We.shape == (2, 0)


@pytest.mark.parametrize("seed", CASES)
def test_adagrad_update_matches_per_column_reference(seed):
    rng = np.random.default_rng(seed)
    hp, params, indices, lexfeat, gold = random_case(rng)
    _, cache = forward(params, hp, indices, lexfeat)
    grads = ref.backward(cache, gold, params, hp)
    grads_before = copy.deepcopy(grads)
    state = AdagradState(NetworkParams(*(rng.uniform(0.0, 2.0, size=m.shape) for m in params.blocks())))

    got_params, got_state = params.copy(), copy.deepcopy(state)
    cols = cache.cols
    adagrad_update(got_params, grads, cols, got_state, 0.05, 1e-6)
    want_params, want_state = params.copy(), copy.deepcopy(state)
    ref.adagrad_update(want_params, grads, cols, want_state, 0.05, 1e-6)

    for name in BLOCKS:
        assert_relative(getattr(got_params, name), getattr(want_params, name))
        assert_relative(getattr(got_state.sums, name), getattr(want_state.sums, name))
    untouched = [c for c in range(VOCAB_SIZE) if c not in cols]
    assert got_params.We[:, untouched].tobytes() == params.We[:, untouched].tobytes()
    assert got_state.sums.We[:, untouched].tobytes() == state.sums.We[:, untouched].tobytes()
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(grads, name), getattr(grads_before, name))
    assert grads.We.tobytes() == grads_before.We.tobytes()


def test_adagrad_scratch_buffers_belong_to_each_state():
    hp, params, *_ = random_case(np.random.default_rng(0))
    a, b = AdagradState.zeros_like(params), AdagradState.zeros_like(params)
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert a.scratch[name][0].shape == getattr(params, name).shape
        assert not np.shares_memory(a.scratch[name][0], b.scratch[name][0])
        assert not np.shares_memory(a.scratch[name][0], a.scratch[name][1])


# ---------------------------------------------------------------------------
# Golden trajectory
# ---------------------------------------------------------------------------

SMALL = {"d": "8", "n1": "12", "n2": "10", "max_epochs": "2", "patience": "2", "seed": "5"}


def _train_small():
    train_set = aligned_corpus(60, seed=3)
    dev = aligned_corpus(30, seed=4, start_id=1000)
    model, history, _ = run_training(config_from_mapping(SMALL), train_set, dev, SYNTH_LABELS)
    return model, history, dev


def counted(calls, name, fn):
    """fn, adding one to calls[name] on every call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_golden_trajectory_matches_loop_reference(monkeypatch):
    model, history, dev = _train_small()
    calls = {"window_concat": 0, "backward": 0, "adagrad_update": 0}
    monkeypatch.setattr(network, "window_concat", counted(calls, "window_concat", ref.window_gather))
    monkeypatch.setattr(training, "backward", counted(calls, "backward", ref.backward))
    monkeypatch.setattr(
        training, "adagrad_update", counted(calls, "adagrad_update", ref.adagrad_update)
    )
    reference, ref_history, _ = _train_small()
    monkeypatch.undo()

    assert all(calls.values()) and calls["backward"] == calls["adagrad_update"]
    assert len(history) == len(ref_history) == 2
    for name in BLOCKS:
        diff = getattr(model.params, name) - getattr(reference.params, name)
        assert np.max(np.abs(diff)) <= 1e-10, name
    ours, _ = predict_corpus(model, dev)
    theirs, _ = predict_corpus(reference, dev)
    assert [p.final for p in ours] == [p.final for p in theirs]


def test_each_sgd_step_derives_its_window_ids_and_trained_columns_once(monkeypatch):
    """forward derives both into its cache; loss, backward and AdaGrad read them there."""
    calls = {"_window_ids": 0, "regularized_columns": 0}
    for name in calls:
        monkeypatch.setattr(network, name, counted(calls, name, getattr(network, name)))
    at_backward = []
    original_backward = training.backward

    def recording_backward(*args):
        at_backward.append(dict(calls))
        return original_backward(*args)

    monkeypatch.setattr(training, "backward", recording_backward)
    _, history, _ = _train_small()

    steps = len(at_backward)
    assert len(history) == 2 and steps > 0
    # Each step's forward made one call of each before its backward, and
    # nothing else in training (dev evaluation included) made any.
    assert at_backward == [dict.fromkeys(calls, k) for k in range(1, steps + 1)]
    assert calls == dict.fromkeys(calls, steps)


def test_two_trainings_in_one_process_save_identical_bytes(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(_train_small()[0], first)
    save_model(_train_small()[0], second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Finite checks: the fast sums and the per-layer fallback
# ---------------------------------------------------------------------------


GOLD = 1


def small_case(**overrides):
    kwargs = dict(d=3, w=3, n1=4, n2=3, K=4)
    kwargs.update(overrides)
    hp = Hyperparams(**kwargs)
    rng = np.random.default_rng(2)
    We = rng.uniform(-0.25, 0.25, size=(hp.d, 8))
    We[:, PAD_INDEX] = 0.0
    return hp, network.init_network_params(hp, We, 3)


def count_checks(monkeypatch):
    calls = []
    original = network._check_finite

    def counting(value, layer):
        calls.append(layer)
        original(value, layer)

    monkeypatch.setattr(network, "_check_finite", counting)
    return calls


def test_finite_step_runs_no_per_layer_check(monkeypatch):
    calls = count_checks(monkeypatch)
    hp, params = small_case()
    _, cache = forward(params, hp, [2, 3, 4, 5])
    backward(cache, GOLD, params, hp)
    assert calls == []


def test_overflowing_sum_falls_back_without_raising(monkeypatch):
    calls = count_checks(monkeypatch)
    hp = Hyperparams(d=1, w=1, n1=2, n2=1, K=2)
    params = NetworkParams(
        We=np.array([[0.0, 1.0, 0.5]]), W1=np.full((2, 1), 1e308), b1=np.zeros(2),
        W2=np.full((1, 2), 1e-308), b2=np.zeros(1),
        W3=np.array([[0.5], [-0.5]]), b3=np.zeros(2),
    )
    with np.errstate(over="ignore"):
        probs, cache = forward(params, hp, [1])
        assert np.isinf(cache.Z.sum()) and np.all(np.isfinite(cache.Z))
    assert np.all(np.isfinite(probs))
    assert calls == ["convolution", "hidden", "scores"]


def test_overflowing_gradient_squares_fall_back_without_raising(monkeypatch):
    calls = count_checks(monkeypatch)
    hp, params = small_case(lambda_w1=1e200)
    _, cache = forward(params, hp, [2, 3, 4])
    grads = backward(cache, GOLD, params, hp)
    assert np.all(np.isfinite(grads.W1)) and np.isinf(np.vdot(grads.W1, grads.W1))
    assert calls == ["gradients"] * 7


@pytest.mark.parametrize("block, layer", [("W2", "hidden"), ("W3", "scores")])
def test_nonfinite_layer_is_named(block, layer):
    hp, params = small_case()
    getattr(params, block)[0, 0] = np.nan
    with pytest.raises(NumericError, match=layer):
        forward(params, hp, [2, 3])


def test_nan_probability_raises_gradients():
    hp, params = small_case()
    _, cache = forward(params, hp, [2, 3, 4])
    cache.probs[0] = np.nan
    with pytest.raises(NumericError, match="gradients"):
        backward(cache, GOLD, params, hp)


def test_overflowing_regularizer_raises_gradients_after_finite_forward():
    hp, params = small_case(lambda_w3=1e308)
    probs, cache = forward(params, hp, [2, 3, 4])
    assert np.all(np.isfinite(probs))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="gradients"):
        backward(cache, GOLD, params, hp)


def test_train_names_epoch_and_instance_of_nonfinite_gradient(monkeypatch):
    monkeypatch.setattr(training, "forward", nan_probability_forward)
    hp, params = small_case()
    inst = LabeledInstance(7, (2, 3, 4), None, GOLD)
    config = config_from_mapping({"max_epochs": "1"})
    with pytest.raises(NumericError, match=r"epoch 1, instance 7: .*'gradients'"):
        train(config, [inst], params, hp, lambda current: 0.5)
