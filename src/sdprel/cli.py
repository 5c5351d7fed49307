"""Command-line entry point: train, predict, score, extract-paths, gradcheck.

Exit codes: 0 success, 1 validation error (bad flags, malformed input),
2 runtime failure.  Diagnostics go to stderr, results to stdout or files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    CorpusError,
    DEFAULT_LABELS,
    align_corpus,
    load_label_set,
    parse_semeval_file,
    read_conll,
    read_lines,
)
from .deppath import PathError, PathMode, format_path_line, instance_path
from .infer_eval import macro_f1, predict_corpus, read_predictions, write_predictions
from .model import load_model, save_model
from .network import NumericError, grad_check
from .training import (
    ConfigError,
    config_from_mapping,
    lexfeat_length,
    parse_config_file,
    read_lex_features,
    run_training,
    write_history,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdprel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a model from annotated + parsed files")
    p.add_argument("--config", required=True, help="key = value configuration file")
    p.add_argument("--train-sem", required=True)
    p.add_argument("--train-conll", required=True)
    p.add_argument("--dev-sem", required=True)
    p.add_argument("--dev-conll", required=True)
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--history", help="history output path (default: OUT.history)")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config-file key (repeatable; flags win over the file)",
    )

    p = sub.add_parser("predict", help="classify instances with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--sem", required=True)
    p.add_argument("--conll", required=True)
    p.add_argument("--out", required=True, help="predictions output path")
    p.add_argument("--lex-features", help="per-instance feature vectors, if the model uses them")

    p = sub.add_parser("score", help="macro-averaged F1 of predictions against gold")
    p.add_argument("--gold", required=True,
                   help="gold labels: a predictions-format or annotated-sentence file")
    p.add_argument("--pred", required=True, help="predictions-format file")
    p.add_argument("--labels", help="label-set file (default: the 9 standard relations)")

    p = sub.add_parser(
        "extract-paths",
        help="write encoded e1→e2 paths for inspection or as the pool_path file",
        description="Write each instance's encoded e1→e2 path as an 'ID<TAB>path' line, "
                    "for inspection or as the pool_path file that training with "
                    "negatives = pool reads (with --mode set to the training's mode).",
    )
    p.add_argument("--sem", required=True)
    p.add_argument("--conll", required=True)
    p.add_argument("--mode", default="labeled",
                   choices=[m.value for m in PathMode])
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="label-set file")

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_aligned(sem_path: str, conll_path: str, labels):
    raws = parse_semeval_file(sem_path, labels)
    parses = read_conll(conll_path)
    return align_corpus(raws, parses)


def _cmd_train(args) -> int:
    values = parse_config_file(args.config)
    for override in args.set:
        if "=" not in override:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        key, _, value = override.partition("=")
        values[key.strip()] = value.strip()
    config = config_from_mapping(values)
    labels = load_label_set(config.labels_path) if config.labels_path else DEFAULT_LABELS

    train_instances = _load_aligned(args.train_sem, args.train_conll, labels)
    dev_instances = _load_aligned(args.dev_sem, args.dev_conll, labels)
    model, history, info = run_training(config, train_instances, dev_instances, labels)

    save_model(model, args.out)
    history_path = args.history or args.out + ".history"
    write_history(history, history_path)
    if info["skipped"]:
        print(f"skipped {len(info['skipped'])} instances without a usable path",
              file=sys.stderr)
    best = max((h.dev_f1 for h in history), default=float("nan"))
    print(f"trained {len(history)} epochs on {info['n_train']} examples "
          f"({info['n_negatives']} negatives), vocab {info['vocab_size']}")
    print(f"best dev macro-F1 {best:.4f}")
    print(f"model written to {args.out}, history to {history_path}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    lexfeats = read_lex_features(args.lex_features) if args.lex_features else None
    f = lexfeat_length(lexfeats)
    if f != model.hp.f:
        source = f"--lex-features {args.lex_features}" if args.lex_features else "no --lex-features"
        raise ConfigError(f"{source} gives lexical features of length {f}, "
                          f"but model {args.model} has f = {model.hp.f}")
    instances = _load_aligned(args.sem, args.conll, model.labels)
    predictions, failed = predict_corpus(model, instances, lexfeats=lexfeats)
    write_predictions(predictions, args.out)
    if failed:
        print(f"{failed} instances had no usable path; predicted Other", file=sys.stderr)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def _looks_like_semeval(path: str) -> bool:
    for line in read_lines(path):
        if line.strip():
            return '\t"' in line
    return False


def _cmd_score(args) -> int:
    labels = load_label_set(args.labels) if args.labels else DEFAULT_LABELS
    if _looks_like_semeval(args.gold):
        gold_rows = [(r.id, r.label) for r in parse_semeval_file(args.gold, labels)]
    else:
        gold_rows = read_predictions(args.gold, labels)
    pred_rows = read_predictions(args.pred, labels)

    gold_map = dict(gold_rows)
    pred_map = dict(pred_rows)
    if set(gold_map) != set(pred_map):
        missing = sorted(set(gold_map) ^ set(pred_map))[:5]
        raise CorpusError(f"gold/prediction id mismatch, e.g. {missing}")
    ids = sorted(gold_map)
    report = macro_f1([gold_map[i] for i in ids], [pred_map[i] for i in ids], labels)
    print(report.render())
    return 0


def _cmd_extract_paths(args) -> int:
    labels = load_label_set(args.labels) if args.labels else DEFAULT_LABELS
    instances = _load_aligned(args.sem, args.conll, labels)
    mode = PathMode(args.mode)
    lines = []
    skipped = 0
    for inst in instances:
        try:
            seq = instance_path(inst.raw, inst.parse, mode)
        except PathError as e:
            print(f"skipping instance {inst.raw.id}: {e}", file=sys.stderr)
            skipped += 1
            continue
        lines.append(format_path_line(inst.raw.id, seq))
    Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} paths to {args.out}"
          + (f" ({skipped} skipped)" if skipped else ""))
    return 0


def _cmd_gradcheck(args) -> int:
    report = grad_check(seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "score": _cmd_score,
    "extract-paths": _cmd_extract_paths,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"sdprel: no such file: {e.filename}", file=sys.stderr)
        return 1
    except IsADirectoryError as e:
        print(f"sdprel: is a directory, not a file: {e.filename}", file=sys.stderr)
        return 1
    except ValueError as e:  # every input error type is a ValueError
        print(f"sdprel: {e}", file=sys.stderr)
        return 1
    except (NumericError, OSError) as e:
        print(f"sdprel: runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
