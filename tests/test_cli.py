"""The command-line interface end to end: every command on a small synthetic
corpus, the exit-code contract, and input errors that name the file and line."""

import pytest

from sdprel.cli import main
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


def test_train_predict_score_extract_and_pool_training(files, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert train(files, model) == 0
    assert model.is_file() and (tmp_path / "model.json.history").is_file()

    pred = tmp_path / "pred.txt"
    assert main([
        "predict", "--model", str(model), "--sem", str(files["test-sem"]),
        "--conll", str(files["test-conll"]), "--out", str(pred),
    ]) == 0
    ids = [int(line.split("\t")[0]) for line in pred.read_text().splitlines()]
    assert ids == list(range(2001, 2001 + SPLITS["test"][0]))

    capsys.readouterr()
    assert main([
        "score", "--gold", str(files["test-sem"]), "--pred", str(pred),
        "--labels", str(files["labels"]),
    ]) == 0
    assert "macro_f1\t" in capsys.readouterr().out

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


def test_gradcheck_exits_0(capsys):
    assert main(["gradcheck"]) == 0
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
    ("train-conll", "1\tthe\t_\t_\t_\t_\t0\n", "sentence 1, line 1: expected >= 8"),
    ("config", "d = 8\nno equals sign\n", "line 2: expected 'key = value'"),
]


@pytest.mark.parametrize("which, text, expected", BAD_INPUTS)
def test_train_input_errors_name_the_file_and_line(files, tmp_path, capsys, which, text, expected):
    files[which].write_text(text, encoding="utf-8")
    assert train(files, tmp_path / "model.json") == 1
    err = capsys.readouterr().err
    assert f"{files[which]}: {expected}" in err


@pytest.mark.parametrize("text, expected", [
    ("1\t0.5 0.25\nx7\t1.0 2.0\n", "line 2: expected 'ID<TAB>v1 v2 ...'"),
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
    ("x7\tOther", "line 2: invalid literal for int() with base 10: 'x7'"),
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
    pool.write_text("7\tsinger ← nsubj caused\n1\tnot a path\n", encoding="utf-8")
    code = train(files, tmp_path / "model.json",
                 "--set", "negatives=pool", "--set", f"pool_path={pool}")
    assert code == 1
    assert f"{pool}: line 2: malformed path line" in capsys.readouterr().err


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


def test_repeated_label_names_name_the_label_file(files, tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("1\tOther\n", encoding="utf-8")
    labels = tmp_path / "repeated-labels.txt"
    labels.write_text("# relations\nRelA\nRelB\nRelA\n", encoding="utf-8")
    code = main(["score", "--gold", str(gold), "--pred", str(gold), "--labels", str(labels)])
    assert code == 1
    assert f"{labels}: duplicate base relation names" in capsys.readouterr().err


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


def test_huge_pretrained_vectors_exit_2_naming_the_loss(files, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(
        "".join(f"n{j:02d}" + " 1e160" * 8 + "\n" for j in range(30)), encoding="utf-8"
    )
    assert train(files, tmp_path / "model.json", "--set", f"embeddings_path={vectors}") == 2
    err = capsys.readouterr().err
    assert "runtime failure: epoch 1, instance " in err
    assert "non-finite values in layer 'loss'" in err


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


@pytest.mark.parametrize("command", ["train", "predict", "score"])
def test_a_directory_given_as_an_input_file_exits_1_naming_it(files, tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    if command == "train":
        code = train({**files, "config": folder}, tmp_path / "model.json")
    elif command == "predict":
        code = predict(files, folder, tmp_path / "pred.txt")
    else:
        code = main(["score", "--gold", str(folder), "--pred", str(files["test-sem"])])
    assert code == 1
    assert f"sdprel: is a directory, not a file: {folder}" in capsys.readouterr().err


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
