"""Loop implementations of the per-example training step, kept as references.

These are the straightforward versions of ``window_concat``, ``backward``
and ``adagrad_update``: a double loop over window slots, an ``np.add.at``
scatter for max-pool backward, a per-slot loop for the embedding gradient
and a per-column AdaGrad step.  ``window_gather`` is the loop version of
``network.window_concat``, which gathers the windows of a window-id matrix.
``pooled_window_dW1`` is the earlier form of ``network.backward``'s ``W1``
gradient, which gathered and scaled each filter's pooled window instead of
forming ``dZ @ X.T``.
The vectorised functions in ``sdprel`` must give the same results (see
``test_training_step.py``); they are not used outside the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sdprel.embeddings import PAD_INDEX
from sdprel.network import (
    ForwardCache,
    Hyperparams,
    NetworkParams,
    _check_finite,
    regularized_columns,
)
from sdprel.training import AdagradState


def window_concat(indices: Sequence[int], We: np.ndarray, w: int) -> np.ndarray:
    """Stack each position's size-w embedding window into one column.

    Positions outside the sequence contribute the padding column.
    """
    t = len(indices)
    if t < 1:
        raise ValueError("empty index sequence")
    half = (w - 1) // 2
    d = We.shape[0]
    X = np.empty((d * w, t))
    for j in range(t):
        for b in range(w):
            pos = j - half + b
            idx = indices[pos] if 0 <= pos < t else PAD_INDEX
            X[b * d : (b + 1) * d, j] = We[:, idx]
    return X


def window_gather(ids: np.ndarray, We: np.ndarray) -> np.ndarray:
    """Column j holds the embedding columns of row j of the t x w window ids, slot by slot."""
    t, w = ids.shape
    d = We.shape[0]
    X = np.empty((d * w, t))
    for j in range(t):
        for b in range(w):
            X[b * d : (b + 1) * d, j] = We[:, ids[j, b]]
    return X


def pooled_window_dW1(
    cache: ForwardCache, dpooled: np.ndarray, params: NetworkParams, hp: Hyperparams
) -> np.ndarray:
    """The ``W1`` gradient from each filter's pooled window, scaled by its
    pooled gradient: row i is ``dpooled[i] * X[:, argmax[i]]`` plus the
    regularizer's share."""
    pooled_windows = cache.X.T[cache.argmax]
    pooled_windows *= dpooled[:, None]
    dW1 = np.multiply(params.W1, 2.0 * hp.lambda_w1)
    dW1 += pooled_windows
    return dW1


def backward(
    cache: ForwardCache,
    gold: int,
    params: NetworkParams,
    hp: Hyperparams,
) -> NetworkParams:
    """Exact gradients of the per-example loss of gold class ``gold`` for
    every parameter block.

    Max pooling routes gradient only to each filter's argmax column; only
    touched embedding columns receive gradient (with their share of the
    regularizer), so untouched columns are exactly zero.  The per-slot sums
    are collected in a dict by column, whose keys must be
    ``regularized_columns``; the result's ``We`` holds them in that order.
    """
    params.check_shapes(hp)
    if cache.probs.shape != (hp.K,) or cache.Z.shape[0] != hp.n1:
        raise ValueError("forward cache does not match these hyperparameters")
    if cache.X.shape != (hp.d_w, len(cache.indices)):
        raise ValueError("forward cache is stale: window matrix shape mismatch")

    t = len(cache.indices)
    half = (hp.w - 1) // 2

    dscores = cache.probs - np.eye(hp.K)[gold]
    dW3 = np.outer(dscores, cache.combined) + 2.0 * hp.lambda_w3 * params.W3
    db3 = dscores.copy()
    dcombined = params.W3.T @ dscores
    dhidden = dcombined[: hp.n2]

    dpre = (1.0 - cache.hidden**2) * dhidden
    dW2 = np.outer(dpre, cache.pooled) + 2.0 * hp.lambda_w2 * params.W2
    db2 = dpre.copy()
    dpooled = params.W2.T @ dpre

    # dZ has one nonzero per row, at the pooled column.
    dW1 = dpooled[:, None] * cache.X[:, cache.argmax].T + 2.0 * hp.lambda_w1 * params.W1
    db1 = dpooled.copy()
    dX_T = np.zeros((t, hp.d_w))
    np.add.at(dX_T, cache.argmax, dpooled[:, None] * params.W1)

    dWe: dict[int, np.ndarray] = {}
    for j in range(t):
        for b in range(hp.w):
            pos = j - half + b
            idx = cache.indices[pos] if 0 <= pos < t else PAD_INDEX
            if idx == PAD_INDEX:
                continue
            g = dX_T[j, b * hp.d : (b + 1) * hp.d]
            if idx in dWe:
                dWe[idx] += g
            else:
                dWe[idx] = g.copy()
    cols = regularized_columns(cache.indices)
    for idx in cols:
        reg = 2.0 * hp.lambda_we * params.We[:, idx]
        if idx in dWe:
            dWe[idx] += reg
        else:
            dWe[idx] = reg
    assert sorted(dWe) == cols, f"loop columns {sorted(dWe)} != regularized {cols}"

    dWe_cols = np.zeros((hp.d, len(cols)))
    for k, idx in enumerate(cols):
        dWe_cols[:, k] = dWe[idx]
    grads = NetworkParams(dWe_cols, dW1, db1, dW2, db2, dW3, db3)
    for block in grads.blocks():
        _check_finite(block, "gradients")
    return grads


def adagrad_update(
    params: NetworkParams,
    grads: NetworkParams,
    cols: Sequence[int],
    state: AdagradState,
    learning_rate: float,
    epsilon: float,
) -> None:
    """state += g²; param -= lr · g / (sqrt(state) + eps), elementwise.

    Embedding columns update sparsely, one at a time: column k of
    ``grads.We`` updates embedding column ``cols[k]``.
    """
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        g = getattr(grads, name)
        s = getattr(state.sums, name)
        s += g * g
        getattr(params, name)[...] -= learning_rate * g / (np.sqrt(s) + epsilon)
    for col, g in zip(cols, grads.We.T):
        state.sums.We[:, col] += g * g
        params.We[:, col] -= learning_rate * g / (np.sqrt(state.sums.We[:, col]) + epsilon)
