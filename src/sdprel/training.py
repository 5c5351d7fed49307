"""Training-set construction under the three regimes, and SGD with AdaGrad.

The negative-sampling scheme turns the reversed subject/object path of every
non-Other training instance into an extra Other-labeled example; a pool file
of pre-encoded paths can supply random negatives instead.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, get_args, get_type_hints

import numpy as np

from .corpus import AlignedInstance, DirectedLabel, LabelSet, OTHER_LABEL, parse_lines
from .deppath import (
    NodeSequence,
    PathError,
    PathMode,
    instance_path,
    parse_path_line,
    reverse_path,
    subject_first_path,
)
from .embeddings import PAD_TOKEN, UNK_TOKEN, Vocab, build_vocab, init_embeddings
from .infer_eval import lexfeat_for, macro_f1, predict_corpus
from .model import Regime, TrainedModel, class_labels
from .network import (
    DENSE_BLOCKS,
    Hyperparams,
    NetworkParams,
    NumericError,
    backward,
    forward,
    init_network_params,
    loss,
    regularized_columns,
)

log = logging.getLogger(__name__)


class NegativeScheme(Enum):
    NONE = "none"
    REVERSED = "reversed"
    POOL = "pool"


class Provenance(Enum):
    GOLD = "gold"
    NEG_REVERSED = "neg-reversed"
    NEG_POOL = "neg-pool"


class ConfigError(ValueError):
    """Invalid training configuration."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run, file-loadable.

    The configuration-file keys are the field names, and each value is
    parsed by the field's type (``config_from_mapping``).  Defaults follow
    the reference setup: window 3, 200 convolution filters, 100 hidden
    units, per-matrix regularization (1e-4, 1e-3, 1e-4, 2e-3),
    50-dimensional embeddings.  With ``negatives = pool``, ``pool_path``
    names a file of encoded paths in the ``sdprel extract-paths`` output
    format; each one becomes an Other-labeled training example.
    """

    regime: Regime = Regime.SIGHTED_NS
    negatives: NegativeScheme = NegativeScheme.REVERSED
    pool_path: str | None = None
    mode: PathMode = PathMode.LABELED
    d: int = 50
    w: int = 3
    n1: int = 200
    n2: int = 100
    lambda_we: float = 1e-4
    lambda_w1: float = 1e-3
    lambda_w2: float = 1e-4
    lambda_w3: float = 2e-3
    learning_rate: float = 0.01
    epsilon: float = 1e-6
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    min_count: int = 1
    embeddings_path: str | None = None
    lex_features_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        wants_negatives = self.negatives is not NegativeScheme.NONE
        if wants_negatives != (self.regime is Regime.SIGHTED_NS):
            raise ConfigError(
                f"negatives={self.negatives.value} requires regime=sighted-ns "
                f"(and vice versa); got regime={self.regime.value}"
            )
        if (self.negatives is NegativeScheme.POOL) != (self.pool_path is not None):
            raise ConfigError("pool_path must be set exactly when negatives=pool")
        self.hyperparams(K=1, f=0)  # bad sizes or weights fail before any corpus is read

    def hyperparams(self, K: int, f: int) -> Hyperparams:
        return Hyperparams(
            d=self.d, w=self.w, n1=self.n1, n2=self.n2, K=K, f=f,
            lambda_we=self.lambda_we, lambda_w1=self.lambda_w1,
            lambda_w2=self.lambda_w2, lambda_w3=self.lambda_w3,
        )


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and # comments are skipped."""

    def parse(line: str) -> tuple[str, str]:
        if "=" not in line:
            raise ValueError("expected 'key = value'")
        key, _, value = line.partition("=")
        return key.strip(), value.strip()

    return dict(parse_lines(path, parse, ConfigError, comments=True))


def config_from_mapping(values: Mapping[str, str]) -> TrainConfig:
    """Build a TrainConfig from string key/value pairs (file or CLI).

    A value that does not parse raises ConfigError naming the key, the
    value and, for enumerated keys, the allowed values.
    """
    types = get_type_hints(TrainConfig)
    kwargs: dict = {}
    for key, value in values.items():
        if key not in types:
            raise ConfigError(f"unknown configuration key {key!r}")
        parse = types[key]
        if type(None) in get_args(parse):  # an optional path; empty means unset
            kwargs[key] = value or None
            continue
        try:
            kwargs[key] = parse(value)
        except ValueError:
            if issubclass(parse, Enum):
                expected = "one of: " + ", ".join(m.value for m in parse)
            else:
                expected = f"a valid {parse.__name__}"
            raise ConfigError(
                f"configuration key {key!r}: {value!r} is not {expected}"
            ) from None
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# Training-set construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathInstance:
    """An encoded path with its gold label, before vocabulary lookup;
    ``from_e2`` says whether the path starts at e2."""

    id: int
    seq: NodeSequence
    label: DirectedLabel
    provenance: Provenance = Provenance.GOLD
    lexfeat: np.ndarray | None = None
    from_e2: bool = False


@dataclass(frozen=True)
class LabeledInstance:
    """A vocabulary-indexed path with its target distribution."""

    id: int
    indices: tuple[int, ...]
    lexfeat: np.ndarray | None
    target: np.ndarray


def build_path_instances(
    instances: Sequence[AlignedInstance],
    config: TrainConfig,
    lexfeats: Mapping[int, np.ndarray] | None = None,
) -> tuple[list[PathInstance], list[int]]:
    """Encode training paths per the regime, adding configured negatives.

    Instances whose path cannot be extracted are skipped; their ids are
    returned for reporting.
    """
    out: list[PathInstance] = []
    skipped: list[int] = []
    f = lexfeat_length(lexfeats)
    for inst in instances:
        raw = inst.raw
        lex = lexfeat_for(raw.id, f, lexfeats)
        try:
            if config.regime is Regime.BLIND:
                seq, from_e2 = instance_path(raw, inst.parse, config.mode), False
            else:
                seq, from_e2 = subject_first_path(raw, inst.parse, config.mode)
        except PathError as e:
            log.warning("skipping instance %d: %s", raw.id, e)
            skipped.append(raw.id)
            continue
        out.append(PathInstance(raw.id, seq, raw.label, Provenance.GOLD, lex, from_e2))
        if config.negatives is NegativeScheme.REVERSED and not raw.label.is_other:
            out.append(
                PathInstance(
                    raw.id, reverse_path(seq), OTHER_LABEL, Provenance.NEG_REVERSED,
                    lex, not from_e2,
                )
            )
    if config.negatives is NegativeScheme.POOL:
        for pool_id, seq in read_pool_file(config.pool_path, config.mode):
            out.append(
                PathInstance(
                    pool_id, seq, OTHER_LABEL, Provenance.NEG_POOL,
                    lexfeat_for(pool_id, f, None),
                )
            )
    if skipped:
        log.warning("skipped %d of %d instances", len(skipped), len(instances))
    return out, skipped


def read_pool_file(path: str | Path, mode: PathMode) -> list[tuple[int, NodeSequence]]:
    """Read pre-encoded negative paths (extract-paths output format)."""
    try:
        return parse_lines(path, lambda line: parse_path_line(line, mode), ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot read negative pool file {path}: {e}") from None


def read_lex_features(path: str | Path) -> dict[int, np.ndarray]:
    """Read ``ID<TAB>v1 v2 ...`` lines: one equal-length finite vector per instance ID."""
    feats: dict[int, np.ndarray] = {}

    def add(line: str) -> None:
        try:
            id_part, rest = line.split("\t", 1)
            inst_id = int(id_part)
            vec = np.array([float(x) for x in rest.split()], dtype=np.float64)
        except ValueError:
            raise ValueError("expected 'ID<TAB>v1 v2 ...' lexical features") from None
        if not np.isfinite(vec).all():
            raise ValueError("non-finite lexical feature value")
        if feats and len(vec) != (length := lexfeat_length(feats)):
            raise ValueError(f"lexical feature length {len(vec)} != {length}")
        if inst_id in feats:
            raise ValueError(f"duplicate instance id {inst_id}")
        feats[inst_id] = vec

    parse_lines(path, add, ConfigError)
    return feats


def lexfeat_length(lexfeats: Mapping[int, np.ndarray] | None) -> int:
    if not lexfeats:
        return 0
    return len(next(iter(lexfeats.values())))


def to_labeled(
    path_instances: Sequence[PathInstance],
    vocab: Vocab,
    labels: LabelSet,
    regime: Regime,
) -> list[LabeledInstance]:
    """Index each path and one-hot its label over the ``class_labels`` of
    the path's reading."""
    out = []
    for p in path_instances:
        classes = class_labels(regime, labels, p.from_e2)
        target = np.zeros(len(classes))
        target[classes.index(p.label)] = 1.0
        out.append(LabeledInstance(p.id, vocab.indexify(p.seq), p.lexfeat, target))
    return out


# ---------------------------------------------------------------------------
# AdaGrad
# ---------------------------------------------------------------------------


@dataclass
class AdagradState:
    """Accumulated squared gradients, one parameter-shaped block each.

    The state also owns two scratch buffers, sized for the largest dense
    block and shared by all of them, which ``adagrad_update`` overwrites on
    every call so that the dense update allocates nothing.  They live
    exactly as long as the state, which ``train`` creates once per call.
    """

    sums: NetworkParams
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        sums = [getattr(self.sums, name) for name in DENSE_BLOCKS]
        size = max(s.size for s in sums)
        first, second = np.empty(size), np.empty(size)
        self.scratch = {
            name: (first[: s.size].reshape(s.shape), second[: s.size].reshape(s.shape))
            for name, s in zip(DENSE_BLOCKS, sums)
        }

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> "AdagradState":
        return cls(NetworkParams(*(np.zeros_like(m) for m in params.blocks())))


def adagrad_update(
    params: NetworkParams,
    grads: NetworkParams,
    cols: Sequence[int],
    state: AdagradState,
    learning_rate: float,
    epsilon: float,
) -> None:
    """state += g²; param -= (lr · g) / (sqrt(state) + eps), elementwise.

    ``grads`` is what ``backward`` returns: each dense block is the
    gradient of the parameter of the same name, and column k of
    ``grads.We`` is the gradient of embedding column ``cols[k]``, with
    ``cols = regularized_columns(indices)``.  Dense blocks update in
    place through the state's scratch buffers; embedding columns update
    sparsely, in one fancy-indexed step over ``cols``.  ``grads`` is not
    modified.
    """
    for name in DENSE_BLOCKS:
        g = getattr(grads, name)
        s = getattr(state.sums, name)
        denom, step = state.scratch[name]
        np.multiply(g, g, out=denom)
        s += denom
        np.sqrt(s, out=denom)
        denom += epsilon
        np.multiply(g, learning_rate, out=step)
        step /= denom
        getattr(params, name)[...] -= step
    cols = np.asarray(cols, dtype=np.intp)  # converted once for the three fancy indexes
    g = grads.We
    s = state.sums.We[:, cols]
    s += g * g
    state.sums.We[:, cols] = s
    step = learning_rate * g
    np.sqrt(s, out=s)
    s += epsilon
    step /= s
    params.We[:, cols] -= step


# ---------------------------------------------------------------------------
# The SGD loop
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get/set thread-count functions of numpy's bundled OpenBLAS, or None."""
    site = Path(np.__file__).resolve().parent.parent
    for lib in glob.glob(str(site / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS at one thread, then restore the count.

    The count is process-wide.  Without numpy's bundled OpenBLAS, or without
    its thread-count symbols, this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    dev_f1: float


def shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic permutation; depends only on (seed, epoch, n)."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def train(
    config: TrainConfig,
    train_set: Sequence[LabeledInstance],
    params: NetworkParams,
    hp: Hyperparams,
    dev_evaluator: Callable[[NetworkParams], float] | None = None,
) -> tuple[NetworkParams, list[EpochStats]]:
    """Run epochs of per-example SGD with AdaGrad, early-stopped on dev F1.

    Keeps the best-dev parameter snapshot; stops after ``patience`` epochs
    without improvement.  Without a dev evaluator it runs max_epochs and
    returns the final parameters.  A non-finite layer, loss or gradient
    raises NumericError naming the epoch and the instance.

    The epochs, dev evaluation included, run with numpy's OpenBLAS at one
    thread (``one_blas_thread``).  Each step's matrix-vector products are
    too small to gain from a second thread, and on a small host that
    thread competes with the step's other numpy work.  The thread count is
    process-wide: other threads of the process see one BLAS thread until
    ``train`` returns or raises, when the previous count is restored.
    """
    if not train_set:
        raise ConfigError("empty training set")
    state = AdagradState.zeros_like(params)
    history: list[EpochStats] = []
    best_f1 = -np.inf
    best_params: NetworkParams | None = None
    stale = 0

    with one_blas_thread():
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_order(config.seed, epoch, len(train_set))
            total = 0.0
            for k in order:
                inst = train_set[k]
                cols = regularized_columns(inst.indices)
                try:
                    probs, cache = forward(params, hp, inst.indices, inst.lexfeat)
                    total += loss(probs, inst.target, params, hp, cols)
                    grads = backward(cache, inst.target, params, hp)
                    if not math.isfinite(total):  # losses are >= 0: the first bad one shows
                        raise NumericError("non-finite values in layer 'loss'")
                except NumericError as e:
                    raise NumericError(f"epoch {epoch}, instance {inst.id}: {e}") from None
                adagrad_update(params, grads, cols, state, config.learning_rate, config.epsilon)
            mean_loss = total / len(train_set)

            dev_f1 = float("nan")
            if dev_evaluator is not None:
                dev_f1 = dev_evaluator(params)
                if dev_f1 > best_f1:
                    best_f1 = dev_f1
                    best_params = params.copy()
                    stale = 0
                else:
                    stale += 1
            history.append(EpochStats(epoch, mean_loss, dev_f1))
            if dev_evaluator is not None and stale >= config.patience:
                break

    final = best_params if best_params is not None else params
    return final, history


def write_history(history: Sequence[EpochStats], path: str | Path) -> None:
    """One ``epoch<TAB>mean_loss<TAB>dev_f1`` line per epoch."""
    text = "".join(f"{h.epoch}\t{h.mean_loss!r}\t{h.dev_f1!r}\n" for h in history)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# End-to-end orchestration
# ---------------------------------------------------------------------------


def run_training(
    config: TrainConfig,
    train_instances: Sequence[AlignedInstance],
    dev_instances: Sequence[AlignedInstance] | None,
    labels: LabelSet,
) -> tuple[TrainedModel, list[EpochStats], dict]:
    """Wire the whole pipeline: paths, vocab, embeddings, SGD, dev scoring."""
    lexfeats = read_lex_features(config.lex_features_path) if config.lex_features_path else None
    f = lexfeat_length(lexfeats)

    paths, skipped = build_path_instances(train_instances, config, lexfeats)
    if not paths:
        raise ConfigError("no usable training instances")
    vocab = build_vocab((p.seq for p in paths), config.min_count)
    if vocab.items == (PAD_TOKEN, UNK_TOKEN):
        raise ConfigError(
            f"min_count = {config.min_count} leaves no node in the vocabulary "
            f"(only {PAD_TOKEN} and {UNK_TOKEN})"
        )
    We, coverage = init_embeddings(vocab, config.embeddings_path, config.d, config.seed)

    hp = config.hyperparams(K=len(class_labels(config.regime, labels)), f=f)
    params = init_network_params(hp, We, config.seed + 1)
    train_set = to_labeled(paths, vocab, labels, config.regime)

    model = TrainedModel(hp, vocab, labels, config.mode, config.regime, params)
    dev_evaluator = None
    if dev_instances:
        dev_gold = [inst.raw.label for inst in dev_instances]

        def dev_evaluator(current: NetworkParams) -> float:
            snapshot = replace(model, params=current)
            preds, _ = predict_corpus(snapshot, dev_instances, lexfeats)
            return macro_f1(dev_gold, [p.final for p in preds], labels).macro_f1

    best, history = train(config, train_set, params, hp, dev_evaluator)
    model.params = best
    info = {
        "skipped": skipped,
        "embedding_coverage": coverage,
        "n_train": len(train_set),
        "n_negatives": sum(p.provenance is not Provenance.GOLD for p in paths),
        "vocab_size": len(vocab),
    }
    return model, history, info
