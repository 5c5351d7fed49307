"""The command-line interface end to end: every command on a small synthetic
corpus, the exit-code contract, and input errors that name the file and line."""

import json
import runpy
import sys

import pytest

from sdprel.cli import main
from sdprel.model import load_model
from synth import SYNTH_LABELS, directional_corpus, write_corpus

SPLITS = {"train": (60, 1), "dev": (20, 1001), "test": (20, 2001)}


@pytest.fixture
def files(tmp_path):
    """Annotated + CoNLL files per split, a label file and a small config."""
    out = {}
    for stem, (n, start) in SPLITS.items():
        raws, parses = directional_corpus(n, seed=start, start_id=start)
        out[stem + "-sem"], out[stem + "-conll"] = write_corpus(tmp_path, stem, raws, parses)
    out["labels"] = tmp_path / "labels.txt"
    out["labels"].write_text("\n".join(SYNTH_LABELS.bases) + "\n", encoding="utf-8")
    out["config"] = tmp_path / "train.cfg"
    out["config"].write_text(
        "d = 8\nn1 = 12\nn2 = 8\nmax_epochs = 2\npatience = 2\n"
        f"labels_path = {out['labels']}\n",
        encoding="utf-8",
    )
    return out


def train(files, out, *extra):
    return main([
        "train", "--config", str(files["config"]),
        "--train-sem", str(files["train-sem"]), "--train-conll", str(files["train-conll"]),
        "--dev-sem", str(files["dev-sem"]), "--dev-conll", str(files["dev-conll"]),
        "--out", str(out), *extra,
    ])


def score_lines(out):
    """The ``name<TAB>value`` lines that ``score`` prints, by name."""
    return dict(line.split("\t") for line in out.splitlines() if "\t" in line)


def test_train_predict_score_extract_and_pool_training(files, tmp_path, capsys):
    """The model predicts relations as well as Other, so a score that
    mishandled them would show (best dev macro-F1 about 0.38)."""
    model = tmp_path / "model.json"
    assert train(files, model, "--set", "learning_rate=0.1", "--set", "max_epochs=8") == 0
    assert model.is_file() and (tmp_path / "model.json.history").is_file()

    pred = tmp_path / "pred.txt"
    assert main([
        "predict", "--model", str(model), "--sem", str(files["test-sem"]),
        "--conll", str(files["test-conll"]), "--out", str(pred),
    ]) == 0
    rows = [line.split("\t") for line in pred.read_text().splitlines()]
    assert [int(inst_id) for inst_id, _ in rows] == list(range(2001, 2001 + SPLITS["test"][0]))
    assert {label for _, label in rows} - {"Other"}

    capsys.readouterr()
    assert main([
        "score", "--gold", str(files["test-sem"]), "--pred", str(pred),
        "--labels", str(files["labels"]),
    ]) == 0
    assert float(score_lines(capsys.readouterr().out)["macro_f1"]) > 0

    pool = tmp_path / "pool.paths"
    assert main([
        "extract-paths", "--sem", str(files["train-sem"]), "--conll", str(files["train-conll"]),
        "--out", str(pool), "--labels", str(files["labels"]),
    ]) == 0
    assert len(pool.read_text().splitlines()) == SPLITS["train"][0]

    assert train(
        files, tmp_path / "pool-model.json", "--set", "negatives=pool",
        "--set", f"pool_path={pool}",
    ) == 0
    assert f"({SPLITS['train'][0]} negatives)" in capsys.readouterr().out


def test_score_counts_a_right_relation_in_the_wrong_direction_against_both_counts(
    files, tmp_path, capsys
):
    gold = tmp_path / "gold.txt"
    gold.write_text("1\tRelA(e1,e2)\n2\tRelA(e2,e1)\n3\tRelA(e1,e2)\n"
                    "4\tRelB(e2,e1)\n5\tOther\n6\tOther\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    # Id 2 has the right base in the wrong direction; id 5 predicts a relation for Other.
    pred.write_text("1\tRelA(e1,e2)\n2\tRelA(e1,e2)\n3\tRelA(e1,e2)\n"
                    "4\tRelB(e2,e1)\n5\tRelB(e1,e2)\n6\tOther\n", encoding="utf-8")
    assert main(["score", "--gold", str(gold), "--pred", str(pred),
                 "--labels", str(files["labels"])]) == 0
    got = {name: float(value) for name, value in score_lines(capsys.readouterr().out).items()}
    # RelA: 2 of 3 predicted right, 2 of 3 gold found; RelB: 1 of 2 and 1 of 1.
    assert (got["precision_RelA"], got["recall_RelA"], got["f1_RelA"]) == (2 / 3, 2 / 3, 2 / 3)
    assert (got["precision_RelB"], got["recall_RelB"], got["f1_RelB"]) == (0.5, 1.0, 2 / 3)
    assert got["macro_f1"] == 2 / 3
    assert got["accuracy"] == 4 / 6
    assert got["n"] == 6


def test_gradcheck_exits_0(capsys):
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_python_dash_m_runs_main_and_exits_with_its_code(monkeypatch, capsys):
    # Run in this process, as ``python -m sdprel.cli gradcheck`` would; the
    # imported copy is set aside so that runpy executes the module afresh.
    monkeypatch.delitem(sys.modules, "sdprel.cli")
    monkeypatch.setattr(sys, "argv", ["sdprel", "gradcheck"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("sdprel.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


@pytest.mark.parametrize("argv", [["train", "--bogus"], ["frobnicate"], ["gradcheck", "--seed", "x"]])
def test_bad_flag_exits_1_not_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert ": error: " in capsys.readouterr().err


BAD_INPUTS = [
    # which file, its broken text, and the line the message must name
    ("dev-sem", "not a record\n", "line 1: expected 'ID<TAB>\"sentence\"' record"),
    ("dev-sem", '\u0661\u0662\t"<e1>a</e1> <e2>b</e2>"\nOther\n',  # int() reads 12
     "line 1: instance id '\u0661\u0662' is not a decimal number"),
    ("train-conll", "1\tthe\t_\t_\t_\t_\t0\n", "sentence 1, line 1: expected >= 8"),
    ("train-conll", "1\tthe\t_\t_\t_\t_\t0_2\tdep\n",  # int() reads 2
     "sentence 1, line 1: HEAD '0_2' is not a decimal number"),
    ("config", "d = 8\nno equals sign\n", "line 2: expected 'key = value'"),
]


@pytest.mark.parametrize("which, text, expected", BAD_INPUTS)
def test_train_input_errors_name_the_file_and_line(files, tmp_path, capsys, which, text, expected):
    files[which].write_text(text, encoding="utf-8")
    assert train(files, tmp_path / "model.json") == 1
    err = capsys.readouterr().err
    assert f"{files[which]}: {expected}" in err


def test_set_without_an_equals_sign_exits_1_naming_it(files, tmp_path, capsys):
    assert train(files, tmp_path / "model.json", "--set", "d8") == 1
    assert "sdprel: --set expects KEY=VALUE, got 'd8'" in capsys.readouterr().err


def test_a_config_key_given_twice_exits_1_and_set_still_overrides_the_file(
    files, tmp_path, capsys
):
    config = files["config"]
    config.write_text(config.read_text(encoding="utf-8") + "d = 9\n", encoding="utf-8")
    model = tmp_path / "model.json"
    assert train(files, model) == 1
    assert capsys.readouterr().err == f"sdprel: {config}: line 7: duplicate key 'd'\n"
    assert not model.exists()

    config.write_text(config.read_text(encoding="utf-8").replace("d = 9\n", ""), encoding="utf-8")
    assert train(files, model, "--set", "d=9") == 0
    assert json.loads(model.read_text(encoding="utf-8"))["hyperparams"]["d"] == 9


@pytest.mark.parametrize("split", ["train", "dev"])
def test_an_empty_training_or_dev_corpus_exits_1_naming_the_file(
    files, tmp_path, capsys, split
):
    for which in ("sem", "conll"):
        files[f"{split}-{which}"].write_text("", encoding="utf-8")
    assert train(files, tmp_path / "model.json") == 1
    expected = f"sdprel: --{split}-sem {files[f'{split}-sem']} holds no instances\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("text, expected", [
    ("1\t0.5 0.25\nx7\t1.0 2.0\n", "line 2: expected 'ID<TAB>v1 v2 ...'"),
    ("1\t0.5 0.25\n+2\t1.0 2.0\n", "line 2: expected 'ID<TAB>v1 v2 ...'"),  # int() reads 2
    ("1\t0.5 0.25\n2\t1.0\n", "line 2: lexical feature length 1 != 2"),
    ("1\t0.5 0.25\n1\t0.7 0.1\n", "line 2: duplicate instance id 1"),
    ("1\t0.5 0.25\n2\tinf 0.25\n", "line 2: non-finite lexical feature value"),
    ("1\tnan 0.25\n", "line 1: non-finite lexical feature value"),
])
def test_lexical_feature_errors_name_the_file_and_line(files, tmp_path, capsys, text, expected):
    lex = tmp_path / "lex.txt"
    lex.write_text(text, encoding="utf-8")
    assert train(files, tmp_path / "model.json", "--set", f"lex_features_path={lex}") == 1
    assert f"{lex}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("line, expected", [
    ("x7\tOther", "line 2: instance id 'x7' is not a decimal number"),
    ("1_0\tOther", "line 2: instance id '1_0' is not a decimal number"),  # int() reads 10
    ("2\tNope(e1,e2)", "line 2: unknown relation label 'Nope(e1,e2)'"),
    ("2 Other", "line 2: expected 'ID<TAB>label'"),
])
def test_score_prediction_errors_name_the_file_and_line(files, tmp_path, capsys, line, expected):
    gold = tmp_path / "gold.txt"
    gold.write_text("1\tOther\n2\tOther\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text(f"1\tOther\n{line}\n", encoding="utf-8")
    code = main(["score", "--gold", str(gold), "--pred", str(pred),
                 "--labels", str(files["labels"])])
    assert code == 1
    assert f"{pred}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("gold_text, lacking", [
    ("1\tOther\n2\tOther\n", "{pred} lacks 1 of the ids in {gold}, e.g. [2]; "
                             "{gold} lacks 1 of the ids in {pred}, e.g. [3]"),
    # a blank file is read as an empty predictions-format file
    ("\n  \n", "{gold} lacks 2 of the ids in {pred}, e.g. [1, 3]"),
    # six ids lacking, of which the message shows the first five
    ("".join(f"{i}\tOther\n" for i in range(1, 9)),
     "{pred} lacks 6 of the ids in {gold}, e.g. [2, 4, 5, 6, 7]"),
])
def test_score_rejects_ids_that_gold_and_predictions_do_not_share(
    files, tmp_path, capsys, gold_text, lacking
):
    gold = tmp_path / "gold.txt"
    gold.write_text(gold_text, encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("1\tOther\n3\tOther\n", encoding="utf-8")
    code = main(["score", "--gold", str(gold), "--pred", str(pred),
                 "--labels", str(files["labels"])])
    assert code == 1
    expected = "gold/prediction id mismatch: " + lacking.format(gold=gold, pred=pred)
    assert capsys.readouterr().err == f"sdprel: {expected}\n"


@pytest.mark.parametrize("which", ["gold", "pred"])
def test_score_rejects_a_repeated_instance_id(files, tmp_path, capsys, which):
    paths = {name: tmp_path / f"{name}.txt" for name in ("gold", "pred")}
    for path in paths.values():
        path.write_text("1\tOther\n2\tOther\n", encoding="utf-8")
    paths[which].write_text("1\tOther\n2\tOther\n1\tOther\n", encoding="utf-8")
    code = main(["score", "--gold", str(paths["gold"]), "--pred", str(paths["pred"]),
                 "--labels", str(files["labels"])])
    assert code == 1
    assert f"{paths[which]}: line 3: duplicate instance id 1" in capsys.readouterr().err


def test_pool_file_errors_name_the_file_and_line(files, tmp_path, capsys):
    pool = tmp_path / "pool.paths"
    for line, fault in [
        ("1\tnot a path", "invalid arrow token 'a'"),
        (" 1\tsinger ← nsubj caused", "instance id ' 1' is not a decimal number"),  # int() reads 1
        ("1\tsinger ← nsubj caused ", "node '' is empty or holds whitespace"),
        ("1\tsinger ← nsubj caused\t", "node 'caused\\t' is empty or holds whitespace"),
    ]:
        pool.write_text(f"7\tsinger ← nsubj caused\n{line}\n", encoding="utf-8")
        code = train(files, tmp_path / "model.json",
                     "--set", "negatives=pool", "--set", f"pool_path={pool}")
        assert code == 1
        assert f"{pool}: line 2: malformed path line {line!r}: {fault}" in capsys.readouterr().err


def test_pretrained_vector_errors_name_the_file_and_line(files, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("# " + " ".join(["0.5"] * 8) + "\nsinger 0.1 0.2\n", encoding="utf-8")
    assert train(files, tmp_path / "model.json", "--set", f"embeddings_path={vectors}") == 1
    expected = f"{vectors}: line 2: expected a token and 8 values, got 3 fields"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("singer " + "0.1 " * 7 + "nan\n", 1),
    ("singer" + " 0.1" * 8 + "\ncaused " + "0.1 " * 7 + "-inf\n", 2),
])
def test_non_finite_pretrained_vectors_exit_1_naming_the_file_and_line(
    files, tmp_path, capsys, text, line
):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(text, encoding="utf-8")
    assert train(files, tmp_path / "model.json", "--set", f"embeddings_path={vectors}") == 1
    assert f"{vectors}: line {line}: non-finite vector entry" in capsys.readouterr().err


def test_train_prints_the_embedding_coverage_only_with_a_pretrained_file(
    files, tmp_path, capsys
):
    model = tmp_path / "model.json"
    assert train(files, model) == 0
    assert "embedding coverage" not in capsys.readouterr().out
    words = sorted(load_model(model).vocab.word_strings)
    half = words[: len(words) // 2]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(w + " 0.1" * 8 + "\n" for w in half), encoding="utf-8")

    assert train(files, tmp_path / "covered.json", "--set", f"embeddings_path={vectors}") == 0
    coverage = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("embedding coverage")]
    assert coverage == [f"embedding coverage {len(half) / len(words):.4f}"]


def test_repeated_label_names_name_the_label_file(files, tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("1\tOther\n", encoding="utf-8")
    labels = tmp_path / "repeated-labels.txt"
    labels.write_text("# relations\nRelA\nRelB\nRelA\n", encoding="utf-8")
    code = main(["score", "--gold", str(gold), "--pred", str(gold), "--labels", str(labels)])
    assert code == 1
    assert f"{labels}: duplicate base relation names" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["Rel\tA", "Rel\rA"])
def test_a_label_name_that_a_prediction_line_cannot_hold_names_the_label_file(
    files, tmp_path, capsys, name
):
    gold = tmp_path / "gold.txt"
    gold.write_text("1\tOther\n", encoding="utf-8")
    labels = tmp_path / "tab-labels.txt"
    labels.write_text(f"RelB\n{name}\n", encoding="utf-8", newline="")
    code = main(["score", "--gold", str(gold), "--pred", str(gold), "--labels", str(labels)])
    assert code == 1
    assert f"{labels}: base relation name {name!r} is empty" in capsys.readouterr().err


def test_a_deprel_holding_whitespace_stops_extract_paths_naming_the_line(
    files, tmp_path, capsys
):
    conll = files["train-conll"]
    lines = conll.read_text(encoding="utf-8").split("\n")
    n = next(i for i, line in enumerate(lines) if line.endswith("\tnsubj"))
    lines[n] += " pass"
    conll.write_text("\n".join(lines), encoding="utf-8")
    code = main(["extract-paths", "--sem", str(files["train-sem"]), "--conll", str(conll),
                 "--out", str(tmp_path / "pool.paths"), "--labels", str(files["labels"])])
    assert code == 1
    err = capsys.readouterr().err
    where = f"sentence {lines[:n].count('') + 1}, line {n + 1}"
    assert f"{conll}: {where}: DEPREL 'nsubj pass' is empty or holds whitespace" in err
    assert not (tmp_path / "pool.paths").exists()


def test_reserved_strings_as_path_deprels_train(files, tmp_path):
    conll = files["train-conll"]
    text = conll.read_text(encoding="utf-8")
    conll.write_text(
        text.replace("\tnsubj\n", "\t<unk>\n", 1).replace("\tdobj\n", "\t<pad>\n", 1),
        encoding="utf-8",
    )
    assert train(files, tmp_path / "model.json") == 0


def test_min_count_that_leaves_no_node_exits_1_naming_the_key(files, tmp_path, capsys):
    assert train(files, tmp_path / "model.json", "--set", "min_count=1000") == 1
    assert ("sdprel: min_count = 1000 leaves no node in the vocabulary"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.json").exists()


def test_min_count_below_1_exits_1_naming_the_key(files, tmp_path, capsys):
    assert train(files, tmp_path / "model.json", "--set", "min_count=0") == 1
    assert "sdprel: min_count must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_huge_pretrained_vectors_exit_2_naming_the_loss(files, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(
        "".join(f"n{j:02d}" + " 1e160" * 8 + "\n" for j in range(30)), encoding="utf-8"
    )
    assert train(files, tmp_path / "model.json", "--set", f"embeddings_path={vectors}") == 2
    err = capsys.readouterr().err
    assert "runtime failure: epoch 1, instance " in err
    assert "non-finite values in layer 'loss'" in err


def test_an_embedding_table_too_large_to_allocate_exits_2_and_writes_no_model(
    files, tmp_path, capsys
):
    """d x vocab float64 values need far more bytes than a 47-bit address
    space holds, so the allocation fails at once whatever the overcommit
    setting."""
    model = tmp_path / "model.json"
    assert train(files, model, "--set", "d=1000000000000000") == 2
    assert capsys.readouterr().err.startswith(
        "sdprel: runtime failure: out of memory: Unable to allocate"
    )
    assert sorted(tmp_path.iterdir()) == sorted(files.values())


def predict(files, model, out, *extra):
    return main([
        "predict", "--model", str(model), "--sem", str(files["test-sem"]),
        "--conll", str(files["test-conll"]), "--out", str(out), *extra,
    ])


def test_predict_checks_the_lexical_feature_length_against_the_model(files, tmp_path, capsys):
    lex2 = tmp_path / "lex2.txt"
    lex2.write_text("1\t0.5 0.25\n2001\t-0.5 1.0\n", encoding="utf-8")
    lex3 = tmp_path / "lex3.txt"
    lex3.write_text("2001\t0.5 0.25 1.0\n", encoding="utf-8")
    model = tmp_path / "lex-model.json"
    assert train(files, model, "--set", f"lex_features_path={lex2}") == 0
    pred = tmp_path / "pred.txt"
    assert predict(files, model, pred, "--lex-features", str(lex2)) == 0
    pred.unlink()
    capsys.readouterr()

    assert predict(files, model, pred, "--lex-features", str(lex3)) == 1
    assert (f"--lex-features {lex3} gives lexical features of length 3, "
            f"but model {model} has f = 2") in capsys.readouterr().err
    assert predict(files, model, pred) == 1
    assert (f"no --lex-features gives lexical features of length 0, "
            f"but model {model} has f = 2") in capsys.readouterr().err
    assert not pred.exists()

    plain = tmp_path / "model.json"
    assert train(files, plain) == 0
    capsys.readouterr()
    assert predict(files, plain, pred, "--lex-features", str(lex2)) == 1
    assert (f"--lex-features {lex2} gives lexical features of length 2, "
            f"but model {plain} has f = 0") in capsys.readouterr().err


@pytest.mark.parametrize("nested", ["brackets", "deep W2 row"])
def test_a_model_file_nested_too_deep_to_decode_exits_1_as_invalid_json(
    files, tmp_path, capsys, nested
):
    model = tmp_path / "model.json"
    if nested == "brackets":
        model.write_text("[" * 100000, encoding="utf-8")
    else:
        assert train(files, model) == 0
        capsys.readouterr()
        text = model.read_text(encoding="utf-8")  # its first W2 row becomes 50000 deep
        start = text.index('"W2": [') + len('"W2": [')
        end = text.index("]", start) + 1
        model.write_text(text[:start] + "[" * 50000 + "0.5" + "]" * 50000 + text[end:],
                         encoding="utf-8")
    pred = tmp_path / "pred.txt"
    assert predict(files, model, pred) == 1
    assert capsys.readouterr().err.startswith(
        f"sdprel: model file {model}: not valid JSON: maximum recursion depth exceeded"
    )
    assert not pred.exists()


@pytest.mark.parametrize("kind, message", [
    ("directory", "is a directory, not a file"),
    ("absent", "no such file"),
])
@pytest.mark.parametrize("command", ["train", "predict", "score"])
def test_a_directory_or_absent_input_file_exits_1_naming_it(
    files, tmp_path, capsys, command, kind, message
):
    bad = tmp_path / kind
    if kind == "directory":
        bad.mkdir()
    if command == "train":
        code = train({**files, "config": bad}, tmp_path / "model.json")
    elif command == "predict":
        code = predict(files, bad, tmp_path / "pred.txt")
    else:
        code = main(["score", "--gold", str(bad), "--pred", str(files["test-sem"])])
    assert code == 1
    assert capsys.readouterr().err == f"sdprel: {message}: {bad}\n"


@pytest.mark.parametrize("kind, message", [
    ("directory", "is a directory, not a file"),
    ("absent directory", "no such file"),
])
def test_a_model_path_that_cannot_be_written_exits_1_naming_it(
    files, tmp_path, capsys, kind, message
):
    """The model is written to a temporary file first; the message names
    the path given, and the temporary file is gone."""
    out = tmp_path / "out"
    if kind == "directory":
        out.mkdir()
    else:
        out = out / "model.json"
    before = sorted(tmp_path.iterdir())
    assert train(files, out) == 1
    assert capsys.readouterr().err == f"sdprel: {message}: {out}\n"
    assert sorted(tmp_path.iterdir()) == before


NOT_UTF8 = b"1\tfine\n\xff\n"  # the second line does not decode
UTF8_CASES = [
    ("train", "config"), ("train", "train-sem"), ("train", "train-conll"),
    ("train", "dev-sem"), ("train", "dev-conll"), ("train", "embeddings_path"),
    ("train", "lex_features_path"), ("train", "pool_path"), ("train", "labels_path"),
    ("predict", "test-sem"), ("predict", "test-conll"), ("predict", "--lex-features"),
    ("score", "--gold"), ("score", "--pred"), ("score", "--labels"),
]


@pytest.mark.parametrize("command, which", UTF8_CASES)
def test_a_file_that_is_not_utf8_exits_1_naming_it_and_the_line(
    files, tmp_path, capsys, command, which
):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    model, out = tmp_path / "model.json", tmp_path / "out.txt"
    if command == "train" and which in files:
        code = train({**files, which: bad}, model)
    elif command == "train":
        pool = ("--set", "negatives=pool") if which == "pool_path" else ()
        code = train(files, model, "--set", f"{which}={bad}", *pool)
    elif command == "predict":
        assert train(files, model) == 0
        capsys.readouterr()
        if which in files:
            code = predict({**files, which: bad}, model, out)
        else:
            code = predict(files, model, out, which, str(bad))
    else:
        argv = {"--gold": files["test-sem"], "--pred": files["test-sem"],
                "--labels": files["labels"], which: bad}
        code = main(["score", *(str(x) for kv in argv.items() for x in kv)])
    assert code == 1
    assert capsys.readouterr().err == f"sdprel: {bad}: line 2: not valid UTF-8\n"


@pytest.mark.parametrize("rate, useless", [("0.01", True), ("0.1", False)])
def test_train_warns_on_stderr_when_the_kept_model_gets_no_dev_relation_right(
    tmp_path, capsys, rate, useless
):
    """At the default learning rate every epoch of this corpus reads dev
    macro-F1 0 (all Other); at 0.1 the best epoch reads about 0.9."""
    files = {}
    for stem, (n, start) in {"train": (300, 1), "dev": (80, 1001)}.items():
        raws, parses = directional_corpus(n, seed=start, start_id=start)
        files[stem + "-sem"], files[stem + "-conll"] = write_corpus(tmp_path, stem, raws, parses)
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(SYNTH_LABELS.bases) + "\n", encoding="utf-8")
    files["config"] = tmp_path / "train.cfg"
    files["config"].write_text(
        "d = 10\nn1 = 20\nn2 = 12\nmax_epochs = 8\npatience = 8\n"
        f"labels_path = {labels}\nlearning_rate = {rate}\n",
        encoding="utf-8",
    )
    model = tmp_path / "model.json"
    assert train(files, model) == 0
    out, err = capsys.readouterr()
    best = float(out.split("best dev macro-F1 ")[1].split()[0])
    assert best == 0.0 if useless else best > 0.8
    assert model.is_file() and (tmp_path / "model.json.history").is_file()
    warning = ("sdprel: warning: best dev macro-F1 is 0: the kept model gets no dev relation "
               f"right; try a larger learning_rate than {rate}\n")
    assert err == (warning if useless else "")
