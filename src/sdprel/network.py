"""The path convolution network: forward pass, loss, and exact gradients.

Pipeline per example: embedding lookup → sliding-window concatenation →
linear convolution → max pooling over path positions → tanh hidden layer →
softmax over relation classes.  Everything runs in float64 on single
examples; gradients are exact and validated against finite differences.

The per-example step is vectorised: windows are gathered with one fancy
index into a C-contiguous window matrix, max-pool backward is a one-hot
matmul, and the embedding gradient is a one-hot sum over the window ids.
Finite-value checks run on sums; the per-layer ``_check_finite`` calls that
name the failing layer run only when a sum is not finite.

Inference can skip the window matrix.  The convolution is linear in the
embeddings, so with ``P_b = W1[:, b·d:(b+1)·d] @ We`` (one projection per
window slot b) column j of the convolution is
``Z[:, j] = Σ_b P_b[:, id(j, b)] + b1``.  A ``ConvTable`` holds the rows of
every ``P_b`` for a fixed set of ids, built once for fixed parameters, and
``forward(..., table=...)`` then reads w rows of n1 values per position
instead of gathering windows and multiplying by W1.  Its probabilities
match the matmul path to about 1e-16 (tests hold them to 1e-12), not bit
for bit, because the sum over the d·w window entries is split per slot.
Prediction reads only the pooled values, so the table path pools with a
max and records no argmax positions.  A table-built cache has neither a
window matrix nor positions, so ``backward`` rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import PAD_INDEX


class NumericError(Exception):
    """A non-finite value appeared during the forward or backward pass."""


@dataclass(frozen=True)
class Hyperparams:
    """Network sizes and per-matrix regularization weights.

    f is the length of the optional per-instance lexical feature vector
    concatenated before the softmax layer (0 disables it).
    """

    d: int
    w: int
    n1: int
    n2: int
    K: int
    f: int = 0
    lambda_we: float = 1e-4
    lambda_w1: float = 1e-3
    lambda_w2: float = 1e-4
    lambda_w3: float = 2e-3

    def __post_init__(self) -> None:
        for name in ("d", "w", "n1", "n2", "K"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.w % 2 == 0:
            raise ValueError(f"w (window size) must be odd, got {self.w}")
        for name in ("f", "lambda_we", "lambda_w1", "lambda_w2", "lambda_w3"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def d_w(self) -> int:
        return self.d * self.w


#: The trainable blocks, in the order of every per-block loop, of the random
#: draws in initialisation and gradcheck, and of the model file.
BLOCKS = ("We", "W1", "b1", "W2", "b2", "W3", "b3")
#: The blocks AdaGrad updates densely; We columns update sparsely.
DENSE_BLOCKS = BLOCKS[1:]


def block_shapes(hp: Hyperparams, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Each block's shape, in BLOCKS order, for a vocabulary of vocab_size."""
    return {
        "We": (hp.d, vocab_size),
        "W1": (hp.n1, hp.d_w),
        "b1": (hp.n1,),
        "W2": (hp.n2, hp.n1),
        "b2": (hp.n2,),
        "W3": (hp.K, hp.n2 + hp.f),
        "b3": (hp.K,),
    }


@dataclass
class NetworkParams:
    """All trainable matrices; We columns are indexed by vocabulary id.

    The fields are BLOCKS, in that order; ``block_shapes`` gives their shapes.
    ``backward`` returns gradients in this type, with only the example's
    embedding columns in ``We``.
    """

    We: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray

    def copy(self) -> "NetworkParams":
        return NetworkParams(*(m.copy() for m in self.blocks()))

    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in BLOCKS)

    def check_shapes(self, hp: Hyperparams) -> None:
        for name, shape in block_shapes(hp, self.We.shape[1]).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")


def init_network_params(hp: Hyperparams, We: np.ndarray, seed: int) -> NetworkParams:
    """Uniform fan-in/fan-out initialization for the dense layers; zero biases."""
    rng = np.random.default_rng(seed)
    We = np.asarray(We, dtype=np.float64)

    def init(shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        limit = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)

    shapes = block_shapes(hp, We.shape[1])
    params = NetworkParams(We=We, **{name: init(shapes[name]) for name in DENSE_BLOCKS})
    params.check_shapes(hp)
    return params


@dataclass
class ForwardCache:
    """Intermediate values forward saves for the backward pass."""

    indices: Sequence[int]  # a tuple; from a table, the sequence as given
    X: np.ndarray | None   # d*w x t window matrix, C-contiguous; None from a table
    Z: np.ndarray          # n1 x t convolution output
    argmax: np.ndarray | None  # n1, pooled column index per filter; None from a table
    pooled: np.ndarray     # n1
    hidden: np.ndarray     # n2, tanh output
    combined: np.ndarray   # n2 + f, hidden with lexical features appended
    probs: np.ndarray      # K


def _window_ids(indices: Sequence[int], w: int) -> np.ndarray:
    """The t x w vocabulary ids of every position's window, pad outside."""
    t = len(indices)
    if t < 1:
        raise ValueError("empty index sequence")
    half = (w - 1) // 2
    padded = np.full(t + w - 1, PAD_INDEX, dtype=np.intp)
    padded[half : half + t] = indices
    return padded[np.arange(t)[:, None] + np.arange(w)]


def window_concat(indices: Sequence[int], We: np.ndarray, w: int) -> np.ndarray:
    """Stack each position's size-w embedding window into one column.

    Positions outside the sequence contribute the padding column.  The
    result is C-contiguous: ``W1 @ X`` on a transposed view is several
    times slower.
    """
    ids = _window_ids(indices, w)
    # Row j of the (t, w*d) gather is window j, slot b at b*d .. (b+1)*d - 1.
    return np.ascontiguousarray(We.T[ids].reshape(len(ids), -1).T)


class ConvTable:
    """The convolution's slot projections for a fixed set of vocabulary ids.

    Slot table b is the C-contiguous U x n1 matrix
    ``We[:, ids].T @ W1[:, b·d:(b+1)·d].T``, one row per distinct id of
    ``ids`` (vocabulary ids, sorted, with PAD_INDEX added), so it is
    ``P_b`` restricted to those ids.  It is valid only for the parameters
    it was built from, and costs ``w · U · n1 · 8`` bytes.
    """

    def __init__(self, params: NetworkParams, hp: Hyperparams, ids: Sequence[int]) -> None:
        # A vocabulary mask gives the sorted distinct ids without a sort,
        # whose first use (np.union1d) raised peak RSS by about 0.7 MB.
        present = np.zeros(params.We.shape[1], dtype=bool)
        present[np.asarray(ids, dtype=np.intp)] = True
        present[PAD_INDEX] = True
        self.ids = np.flatnonzero(present)
        self.pad_row = int(np.searchsorted(self.ids, PAD_INDEX))
        embedded = params.We[:, self.ids].T
        d = hp.d
        self.slots = tuple(embedded @ params.W1[:, b * d : (b + 1) * d].T for b in range(hp.w))

    def convolve(self, indices: Sequence[int], b1: np.ndarray) -> np.ndarray:
        """The t x n1 transposed convolution output of one indexed path.

        Raises ValueError for an index the table does not hold.
        """
        indices = np.asarray(indices)
        t = len(indices)
        if t < 1:
            raise ValueError("empty index sequence")
        rows = self.ids.searchsorted(indices)
        missing = self.ids.take(rows, mode="clip") != indices
        if missing.any():
            raise ValueError(f"index {indices[missing][0]} is not in the projection table")
        w = len(self.slots)
        half = (w - 1) // 2
        padded = np.full(t + w - 1, self.pad_row, dtype=np.intp)
        padded[half : half + t] = rows
        # Position j reads slot b's row of the id at window offset b, padded[j + b].
        ZT = self.slots[0].take(padded[:t], axis=0)
        for b in range(1, w):
            ZT += self.slots[b].take(padded[b : b + t], axis=0)
        ZT += b1
        return ZT


def softmax(scores: np.ndarray) -> np.ndarray:
    # Array methods: the np.max/np.sum wrappers cost more than the work on K values.
    e = np.exp(scores - scores.max())
    e /= e.sum()
    return e


def _check_finite(value: np.ndarray, layer: str) -> None:
    if not np.all(np.isfinite(value)):
        raise NumericError(f"non-finite values in layer {layer!r}")


def forward(
    params: NetworkParams,
    hp: Hyperparams,
    indices: Sequence[int],
    lexfeat: np.ndarray | None = None,
    table: ConvTable | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one indexed path, returning class probabilities.

    With a ``table`` built from these parameters, the convolution reads the
    table's slot projections instead of gathering the window matrix, max
    pooling takes each filter's maximum without its position, and the cache
    it returns has ``X = argmax = None``; an index the table does not hold
    raises ValueError.  Without a table, max pooling records each filter's
    position for ``backward``, the lowest on ties.  Either way a filter pools
    its maximum, and every layer after pooling is the same code.

    Raises NumericError naming the first non-finite layer ('convolution',
    'hidden' or 'scores') exactly when the per-layer checks would.  The
    fast check tests the sums of Z and the scores: a sum is non-finite
    whenever an element is, a NaN hidden unit makes every score NaN, and
    finite scores give finite probabilities.  Only a failed sum (or an
    overflowing one) runs the per-layer ``_check_finite`` calls.
    """
    if (lexfeat is not None) != (hp.f > 0):
        raise ValueError("lexical feature vector must be given exactly when f > 0")
    if lexfeat is not None and lexfeat.shape != (hp.f,):
        raise ValueError(f"lexical feature shape {lexfeat.shape}, expected ({hp.f},)")

    if table is None:
        indices = tuple(indices)
        X = window_concat(indices, params.We, hp.w)
        Z = params.W1 @ X
        Z += params.b1[:, None]
        argmax = np.argmax(Z, axis=1)  # ties resolve to the lowest column
        pooled = Z[np.arange(hp.n1), argmax]
    else:
        X = argmax = None
        ZT = table.convolve(indices, params.b1)
        pooled = ZT.max(axis=0)
        Z = ZT.T
    hidden = np.tanh(params.W2 @ pooled + params.b2)
    combined = hidden if lexfeat is None else np.concatenate([hidden, lexfeat])
    scores = params.W3 @ combined + params.b3
    if not np.isfinite(Z.sum() + scores.sum()):
        for value, layer in ((Z, "convolution"), (hidden, "hidden"), (scores, "scores")):
            _check_finite(value, layer)
    probs = softmax(scores)
    cache = ForwardCache(indices, X, Z, argmax, pooled, hidden, combined, probs)
    return probs, cache


def regularized_columns(indices: Sequence[int]) -> list[int]:
    """The embedding columns an example trains: its distinct ids except
    PAD_INDEX, sorted.  The pad column is never trained, so it keeps the
    value it was initialised with."""
    return sorted(set(indices) - {PAD_INDEX})


def loss(
    probs: np.ndarray,
    target: np.ndarray,
    params: NetworkParams,
    hp: Hyperparams,
    touched_cols: Sequence[int],
) -> float:
    """Cross entropy plus squared-norm regularization of the weight matrices.

    Biases are never regularized.  The embedding penalty covers only
    touched_cols, the columns the example touched (``regularized_columns``),
    which is the per-example objective the gradients of ``backward`` follow.
    """
    ce = -float(np.dot(target, np.log(probs)))
    reg = (
        hp.lambda_w1 * float(np.vdot(params.W1, params.W1))
        + hp.lambda_w2 * float(np.vdot(params.W2, params.W2))
        + hp.lambda_w3 * float(np.vdot(params.W3, params.W3))
    )
    cols = params.We[:, touched_cols]
    reg += hp.lambda_we * float(np.vdot(cols, cols))
    return ce + reg


def backward(
    cache: ForwardCache,
    target: np.ndarray,
    params: NetworkParams,
    hp: Hyperparams,
) -> NetworkParams:
    """Exact gradients of the per-example loss for every parameter block.

    Each dense block of the result is the gradient of the parameter of the
    same name.  Its ``We`` is d x len(cols), where column k is the gradient
    of embedding column ``cols[k]`` and ``cols =
    regularized_columns(cache.indices)``, the columns ``loss``
    penalises.  Max pooling routes gradient only to each filter's argmax
    column; every other embedding column has zero gradient and is left out.

    Raises NumericError naming 'gradients' when any block holds a
    non-finite value.  The fast check adds every block's sum of squares (a
    BLAS dot product) as Python floats, so an overflow reads inf without a
    warning; only a non-finite (or overflowing) sum runs the per-block
    ``_check_finite`` calls.
    """
    params.check_shapes(hp)
    if cache.X is None:
        raise ValueError("forward cache comes from a projection table: no window matrix")
    if cache.probs.shape != (hp.K,) or cache.Z.shape[0] != hp.n1:
        raise ValueError("forward cache does not match these hyperparameters")
    if cache.X.shape != (hp.d_w, len(cache.indices)):
        raise ValueError("forward cache is stale: window matrix shape mismatch")

    t = len(cache.indices)

    dscores = cache.probs - target
    dW3 = np.multiply(params.W3, 2.0 * hp.lambda_w3)
    dW3 += np.outer(dscores, cache.combined)
    dcombined = params.W3.T @ dscores
    dhidden = dcombined[: hp.n2]

    dpre = (1.0 - cache.hidden**2) * dhidden
    dW2 = np.multiply(params.W2, 2.0 * hp.lambda_w2)
    dW2 += np.outer(dpre, cache.pooled)
    dpooled = params.W2.T @ dpre

    # dZ has one nonzero per row, dpooled at the pooled column, so
    # dZ @ X.T scales each filter's pooled window and dX = W1.T @ dZ.
    pooled_windows = cache.X.T[cache.argmax]
    pooled_windows *= dpooled[:, None]
    dW1 = np.multiply(params.W1, 2.0 * hp.lambda_w1)
    dW1 += pooled_windows
    dZ = np.zeros((hp.n1, t))
    dZ[np.arange(hp.n1), cache.argmax] = dpooled
    # Row j*w + b is the gradient of window slot b at position j.
    dX_slots = (dZ.T @ params.W1).reshape(t * hp.w, hp.d)

    # Sum the slot gradients of each trained column with a one-hot matmul.
    cols = regularized_columns(cache.indices)
    slot_ids = _window_ids(cache.indices, hp.w).ravel()
    dWe_cols = np.equal.outer(cols, slot_ids).astype(np.float64) @ dX_slots
    dWe_cols += (2.0 * hp.lambda_we) * params.We[:, cols].T

    grads = NetworkParams(dWe_cols.T, dW1, dpooled, dW2, dpre, dW3, dscores)
    if not math.isfinite(sum(float(np.vdot(block, block)) for block in grads.blocks())):
        for block in grads.blocks():
            _check_finite(block, "gradients")
    return grads


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Max relative error per parameter block across all checked configs."""

    block_errors: dict[str, float]
    tolerance: float
    n_configs: int

    @property
    def passed(self) -> bool:
        return all(e <= self.tolerance for e in self.block_errors.values())

    def render(self) -> str:
        lines = [f"gradient check: {self.n_configs} configurations, tolerance {self.tolerance:g}"]
        for name, err in self.block_errors.items():
            status = "ok" if err <= self.tolerance else "FAIL"
            lines.append(f"  {name:<3} max relative error {err:.3e}  {status}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


_CHECK_CONFIGS = (
    dict(d=4, w=3, n1=5, n2=4, K=3, f=0, t=4, multi=False),
    dict(d=3, w=3, n1=4, n2=3, K=3, f=0, t=1, multi=False),
    dict(d=4, w=3, n1=5, n2=4, K=4, f=3, t=5, multi=True),
    dict(d=5, w=1, n1=6, n2=5, K=3, f=0, t=6, multi=False),
    dict(d=3, w=5, n1=4, n2=3, K=5, f=2, t=3, multi=False),
)


def _random_case(cfg: dict, rng: np.random.Generator):
    hp = Hyperparams(
        d=cfg["d"], w=cfg["w"], n1=cfg["n1"], n2=cfg["n2"], K=cfg["K"], f=cfg["f"],
        lambda_we=1e-3, lambda_w1=1e-3, lambda_w2=1e-3, lambda_w3=1e-3,
    )
    vocab_size = 9
    params = NetworkParams(**{
        name: rng.normal(scale=0.5 if len(shape) == 2 else 0.2, size=shape)
        for name, shape in block_shapes(hp, vocab_size).items()
    })
    params.We[:, PAD_INDEX] = 0.0
    indices = tuple(rng.integers(1, vocab_size, size=cfg["t"]))
    lexfeat = rng.normal(size=hp.f) if hp.f > 0 else None
    target = np.zeros(hp.K)
    if cfg["multi"]:
        a, b = rng.choice(hp.K, size=2, replace=False)
        target[a] = target[b] = 0.5
    else:
        target[rng.integers(hp.K)] = 1.0
    return hp, params, indices, lexfeat, target


def _fd_gradient(fn, array: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = array[ix]
        array[ix] = orig + step
        hi = fn()
        array[ix] = orig - step
        lo = fn()
        array[ix] = orig
        grad[ix] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if denom < 1e-12:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / denom)


def grad_check(seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Runs every built-in configuration (covering t=1 full-padding paths,
    lexical features, multi-label targets, and a w=5 window) with
    a central-difference step of 1e-5; a block fails above a relative error
    of 1e-4.
    """
    step, tolerance = 1e-5, 1e-4
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {name: 0.0 for name in BLOCKS}

    for cfg in _CHECK_CONFIGS:
        hp, params, indices, lexfeat, target = _random_case(cfg, rng)
        touched = regularized_columns(indices)

        def objective() -> float:
            p, _ = forward(params, hp, indices, lexfeat)
            return loss(p, target, params, hp, touched)

        _, cache = forward(params, hp, indices, lexfeat)
        grads = backward(cache, target, params, hp)

        for name in DENSE_BLOCKS:
            analytic = getattr(grads, name)
            numeric = _fd_gradient(objective, getattr(params, name), step)
            errors[name] = max(errors[name], _relative_error(analytic, numeric))

        for idx, analytic in zip(touched, grads.We.T):
            numeric = _fd_gradient(objective, params.We[:, idx], step)
            errors["We"] = max(errors["We"], _relative_error(analytic, numeric))

    return GradCheckReport(errors, tolerance, len(_CHECK_CONFIGS))

