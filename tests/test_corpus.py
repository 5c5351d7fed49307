"""Corpus ingestion: annotated-sentence parsing, CoNLL reading, alignment."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdprel.corpus import (
    CorpusError,
    DEFAULT_LABELS,
    DirectedLabel,
    Direction,
    LabelSet,
    OTHER_LABEL,
    ParsedSentence,
    RawInstance,
    align,
    align_corpus,
    load_label_set,
    parse_decimal,
    parse_lines,
    parse_semeval_file,
    read_conll,
    tokenize,
)
from sdprel.model import Regime, class_labels
from helpers import make_parse, random_heads
from synth import SYNTH_LABELS, long_corpus, write_corpus
from writers import write_conll, write_semeval_file

SINGER_RECORD = '1\t"The <e1>singer</e1> caused a <e2>commotion</e2>."\nCause-Effect(e1,e2)\n'


class TestTokenizer:
    def test_splits_trailing_punctuation(self):
        assert tokenize("The singer caused a commotion.") == [
            "The", "singer", "caused", "a", "commotion", ".",
        ]

    def test_splits_internal_punctuation(self):
        assert tokenize("can't stop") == ["can", "'", "t", "stop"]

    def test_rejoin_is_stable(self):
        toks = tokenize("A large-scale test, isn't it?")
        assert tokenize(" ".join(toks)) == toks


class TestLabelCodec:
    def test_round_trip_all_19_directed_labels(self):
        all_labels = DEFAULT_LABELS.all_directed()
        assert len(all_labels) == 19
        for label in all_labels:
            assert DEFAULT_LABELS.parse(str(label)) == label

    def test_other_is_undirected(self):
        label = DEFAULT_LABELS.parse("Other")
        assert label == OTHER_LABEL
        assert label.direction is Direction.NONE

    def test_reverse_direction_string(self):
        label = DEFAULT_LABELS.parse("Cause-Effect(e2,e1)")
        assert label.base == "Cause-Effect"
        assert label.direction is Direction.E2_TO_E1

    def test_unknown_label_rejected(self):
        with pytest.raises(CorpusError):
            DEFAULT_LABELS.parse("Cause-Affect(e1,e2)")

    def test_the_same_text_gives_the_same_object_and_unknown_text_always_raises(self):
        label = DEFAULT_LABELS.parse("Cause-Effect(e2,e1)")
        assert DEFAULT_LABELS.parse(" Cause-Effect(e2,e1)\n") is label
        assert DEFAULT_LABELS.parse("Other") is OTHER_LABEL
        for _ in range(2):
            with pytest.raises(CorpusError, match="unknown relation label 'Cause-Affect'"):
                DEFAULT_LABELS.parse("Cause-Affect")

    @given(st.lists(
        st.text(st.sampled_from("Ab(e1,2) -") | st.characters(), min_size=1, max_size=12)
        .filter(lambda b: b == b.strip() and not any(c in b for c in "\t\r\n") and b != "Other"),
        min_size=1, max_size=5, unique=True,
    ))
    def test_parse_inverts_str_over_every_directed_label_of_random_bases(self, bases):
        labels = LabelSet(tuple(bases))
        for label in labels.all_directed():
            assert labels.parse(str(label)) is label
            assert labels.parse(f" {label}\n") is label

    @pytest.mark.parametrize("base", ["", " RelA", "RelA ", "Rel\tA", "Rel\rA", "Rel\nA"])
    def test_a_base_that_a_prediction_line_cannot_hold_is_rejected(self, base):
        message = f"base relation name {base!r} is empty, has whitespace at an end, or holds"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            LabelSet(("RelB", base))

    def test_directed_base_with_no_direction_rejected(self):
        with pytest.raises(ValueError):
            DirectedLabel("Cause-Effect", Direction.NONE)

    def test_flipped(self):
        label = DEFAULT_LABELS.parse("Component-Whole(e1,e2)")
        assert str(label.reversed()) == "Component-Whole(e2,e1)"
        assert label.reversed().reversed() == label
        assert OTHER_LABEL.reversed() == OTHER_LABEL

    def test_index_round_trip(self):
        for regime in Regime:
            classes = class_labels(regime, DEFAULT_LABELS)
            for i, label in enumerate(classes):
                assert classes.index(label) == i
            assert class_labels(regime, DEFAULT_LABELS, True) == tuple(
                label.reversed() for label in classes
            )
        assert class_labels(Regime.BLIND, DEFAULT_LABELS) == tuple(DEFAULT_LABELS.all_directed())
        assert [str(label) for label in class_labels(Regime.SIGHTED, DEFAULT_LABELS)] == [
            f"{base}(e1,e2)" for base in DEFAULT_LABELS.bases
        ] + ["Other"]

    def test_label_set_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("RelA\nRelB\n")
        assert load_label_set(path) == LabelSet(("RelA", "RelB"))

    @pytest.mark.parametrize("text, fault", [
        ("RelA\nOther\n", "'Other' is implicit and must not be listed"),
        ("# no relations\n\n", "empty label set"),
    ])
    def test_a_label_set_file_that_lists_other_or_nothing_is_rejected(
        self, tmp_path, text, fault
    ):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: {fault}") + "$"):
            load_label_set(path)


class TestParseLines:
    def test_blank_lines_skipped_and_comments_only_when_asked(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("a\n\n  \n # b\nc\n")
        assert parse_lines(path, str.strip) == ["a", "# b", "c"]
        assert parse_lines(path, str.strip, comments=True) == ["a", "c"]

    def test_a_line_parsed_to_none_adds_nothing(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("a\nb\nc\n")
        assert parse_lines(path, lambda line: None if line == "b" else line) == ["a", "c"]

    def test_value_error_names_file_and_line_in_the_given_type(self, tmp_path):
        class Custom(ValueError):
            pass

        path = tmp_path / "lines.txt"
        path.write_text("1\n\n2\nx\n")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: line 4: invalid literal")):
            parse_lines(path, int)
        with pytest.raises(Custom, match="line 4"):
            parse_lines(path, int, Custom)


    @pytest.mark.parametrize("separator", "\f\v\x1c\x1d\x1e\x85\u2028\u2029")
    def test_only_newline_ends_a_line(self, tmp_path, separator):
        path = tmp_path / "lines.txt"
        def no_x(line):
            if line == "x":
                raise ValueError("x")
            return line

        path.write_text(f"1{separator}2\r\n3\n", encoding="utf-8")
        assert parse_lines(path, no_x) == [f"1{separator}2", "3"]
        path.write_text(f"1{separator}2\r\nx\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 2: x$"):
            parse_lines(path, no_x)


class TestDecimal:
    @pytest.mark.parametrize("text", [
        "1_0", "+1", "-1", " 1", "1 ", "\u0661", "\u00b2", "\uff11", "", "1.0", "0x1",
    ])
    def test_only_ascii_digits_are_read(self, text):
        message = f"id {text!r} is not a decimal number"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_decimal(text, "id")

    @given(st.text(st.sampled_from("0123456789_+- \t\u0661\u00b2a")))
    def test_reads_exactly_the_strings_of_ascii_digits_as_int_does(self, text):
        if re.fullmatch("[0-9]+", text):
            assert parse_decimal(text, "id") == int(text)
        else:
            with pytest.raises(ValueError):
                parse_decimal(text, "id")


class TestSemevalParsing:
    def test_singer_example(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(SINGER_RECORD)
        (inst,) = parse_semeval_file(path)
        assert inst.id == 1
        assert inst.tokens == ("The", "singer", "caused", "a", "commotion", ".")
        assert inst.e1_span == (1, 1)
        assert inst.e2_span == (4, 4)
        assert inst.label == DirectedLabel("Cause-Effect", Direction.E1_TO_E2)

    def test_multiword_entity_spans(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text('7\t"<e1>Tumor cells</e1> live in the <e2>liver</e2>"\nOther\n')
        (inst,) = parse_semeval_file(path)
        assert inst.e1_span == (0, 1)
        assert inst.tokens[5] == "liver"
        assert inst.e2_span == (5, 5)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(SINGER_RECORD + "Comment: tricky example\n\n")
        assert len(parse_semeval_file(path)) == 1

    def test_duplicate_id_diagnostic(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(SINGER_RECORD + "\n" + SINGER_RECORD)
        with pytest.raises(CorpusError, match=r"line 4.*duplicate"):
            parse_semeval_file(path)

    def test_missing_marker_diagnostic(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text('1\t"The <e1>singer</e1> caused a commotion."\nOther\n')
        with pytest.raises(CorpusError, match=r"line 1.*e2"):
            parse_semeval_file(path)

    @pytest.mark.parametrize("sentence, fault", [
        ("The <e1>singer</e1> and <e1>band</e1> caused a <e2>commotion</e2>.",
         "repeated entity markers"),
        ("The <e1>singer</e1> caused <e2>a</e2> <e2>commotion</e2>.",
         "repeated entity markers"),
        ("The <e1>singer <e2>caused</e1> a commotion</e2>.", "overlapping entity markers"),
        ("<e1>a <e2>b</e2> c</e1>", "overlapping entity markers"),  # nested
        ("The <e1></e1> caused a <e2>commotion</e2>.", "empty entity text"),
        ("The <e1>singer</e1> caused a <e2> </e2>.", "empty entity text"),
    ])
    def test_bad_entity_markers_name_the_line(self, tmp_path, sentence, fault):
        path = tmp_path / "corpus.txt"
        path.write_text(SINGER_RECORD + f'\n2\t"{sentence}"\nOther\n')
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: line 4: {fault}") + "$"):
            parse_semeval_file(path)

    @pytest.mark.parametrize("sentence, tokens, e1_span, e2_span", [
        ("<e1>a</e1><e2>b</e2>", ("a", "b"), (0, 0), (1, 1)),  # adjacent
        ("<e1> , </e1> <e2>b</e2>", (",", "b"), (0, 0), (1, 1)),  # only punctuation
        # An opening marker inside e1 is e1's text; e1 ends at the first closing one.
        ("<e1>a<e1>b</e1> <e2>c</e2>", ("a", "<", "e1", ">", "b", "c"), (0, 4), (5, 5)),
    ])
    def test_marker_edge_cases_give_tokens_and_spans(
        self, tmp_path, sentence, tokens, e1_span, e2_span
    ):
        path = tmp_path / "corpus.txt"
        path.write_text(f'1\t"{sentence}"\nOther\n')
        (inst,) = parse_semeval_file(path)
        assert (inst.tokens, inst.e1_span, inst.e2_span) == (tokens, e1_span, e2_span)

    @pytest.mark.parametrize("after", ["", "\n", "\n\n" + SINGER_RECORD.replace("1", "2", 1)])
    def test_a_record_without_a_label_line_names_its_line(self, tmp_path, after):
        path = tmp_path / "corpus.txt"
        record = SINGER_RECORD.splitlines()[0]
        path.write_text(SINGER_RECORD + "\n" + record.replace("1", "3", 1) + after)
        message = f"{path}: line 4: record 3 has no label line"
        with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
            parse_semeval_file(path)

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(SINGER_RECORD.replace("Cause-Effect", "Banana-Split"))
        with pytest.raises(CorpusError, match=r"line 2"):
            parse_semeval_file(path)

    def test_equal_tokens_of_one_file_are_one_object(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            SINGER_RECORD + '\n2\t"The <e2>singer</e2> caused the <e1>singer</e1> ."\nOther\n'
        )
        tokens = [t for inst in parse_semeval_file(path) for t in inst.tokens]
        assert tokens.count("singer") == 3
        assert_one_object_per_value(tokens)

    def test_write_read_identity(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(
            SINGER_RECORD
            + "\n"
            + '2\t"<e1>Tumor cells</e1> live , happily , in the <e2>liver</e2> ."\nOther\n'
            + "\n"
            + '3\t"A <e2>box</e2> holds the <e1>toys</e1>"\nContent-Container(e1,e2)\n'
        )
        first = parse_semeval_file(src)
        copy = tmp_path / "copy.txt"
        write_semeval_file(first, copy)
        assert parse_semeval_file(copy) == first


def assert_one_object_per_value(strings):
    first = {}
    for s in strings:
        assert first.setdefault(s, s) is s


class TestConllReading:
    def test_equal_forms_and_equal_arc_labels_of_one_file_are_one_object(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(
            "1\tsinger\t_\t_\t_\t_\t2\tnsubj\n2\tcaused\t_\t_\t_\t_\t0\troot\n\n"
            "1\tsinger\t_\t_\t_\t_\t2\tnsubj\n2\tsang\t_\t_\t_\t_\t0\troot\n"
            "3\tsinger\t_\t_\t_\t_\t2\tnsubj\n"
        )
        sentences = read_conll(path)
        assert_one_object_per_value([f for s in sentences for f in s.forms])
        assert_one_object_per_value([r for s in sentences for r in s.deprels])
        assert [s.forms for s in sentences] == [("singer", "caused"), ("singer", "sang", "singer")]

    def test_minimal_two_token_tree(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(
            "1\tsinger\t_\t_\t_\t_\t2\tnsubj\n2\tcaused\t_\t_\t_\t_\t0\troot\n"
        )
        (sent,) = read_conll(path)
        assert sent == ParsedSentence(("singer", "caused"), (1, None), ("nsubj", "root"))

    def test_two_token_cycle_rejected(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text("1\ta\t_\t_\t_\t_\t2\tx\n2\tb\t_\t_\t_\t_\t1\ty\n")
        with pytest.raises(CorpusError, match=r"sentence 1.*cycle"):
            read_conll(path)

    def test_cycle_under_valid_root_rejected(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(
            "1\ta\t_\t_\t_\t_\t2\tx\n"
            "2\tb\t_\t_\t_\t_\t1\ty\n"
            "3\tc\t_\t_\t_\t_\t0\troot\n"
        )
        with pytest.raises(CorpusError, match=r"sentence 1.*cycle"):
            read_conll(path)

    def test_column_count_diagnostic(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text("1\ta\t_\t_\t2\n")
        with pytest.raises(CorpusError, match=r"sentence 1.*columns"):
            read_conll(path)

    def test_head_out_of_range(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text("1\ta\t_\t_\t_\t_\t9\tx\n2\tb\t_\t_\t_\t_\t0\troot\n")
        with pytest.raises(CorpusError, match=r"sentence 1"):
            read_conll(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n")
        (sent,) = read_conll(path)
        assert sent.deprels[0] == "root"

    def test_five_token_round_trip(self, tmp_path):
        sent = make_parse([
            ("The", 1, "det"),
            ("quick", 3, "amod"),
            ("fox", 3, "nsubj"),
            ("jumps", None, "ROOT"),
            ("high", 3, "advmod:strange"),
        ])
        path = tmp_path / "t.conll"
        write_conll([sent, sent], path)
        again = read_conll(path)
        assert again == [sent, sent]

    def test_random_trees_accepted(self, tmp_path):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            heads = random_heads(rng, n)
            path = tmp_path / "t.conll"
            _write_heads(path, heads)
            (sent,) = read_conll(path)
            assert len(sent) == n

    def test_random_non_trees_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "t.conll"
        for _ in range(60):
            n = int(rng.integers(2, 11))
            heads = random_heads(rng, n)
            mutation = rng.integers(3)
            root = heads.index(None)
            if mutation == 0:  # second root
                other = (root + 1) % n
                heads[other] = None
            elif mutation == 1:  # self-loop cycle
                other = (root + 1) % n
                heads[other] = other
            else:  # out-of-range head
                heads[(root + 1) % n] = n + 3
            _write_heads(path, heads)
            with pytest.raises(CorpusError):
                read_conll(path)


def _write_heads(path, heads):
    lines = [
        f"{i + 1}\tw{i}\t_\t_\t_\t_\t{0 if h is None else h + 1}\tdep"
        for i, h in enumerate(heads)
    ]
    path.write_text("\n".join(lines) + "\n")


class TestAlignment:
    def _raw(self, tokens):
        return RawInstance(1, tuple(tokens), (0, 0), (len(tokens) - 1, len(tokens) - 1),
                           OTHER_LABEL)

    def test_identical_pair_aligns(self):
        parse = make_parse([("a", 1, "x"), ("b", None, "r"), ("c", 1, "y")])
        got = align(self._raw(["a", "b", "c"]), parse)
        assert got.raw.tokens == ("a", "b", "c")

    def test_length_mismatch(self):
        parse = make_parse([("a", 1, "x"), ("b", None, "r")])
        with pytest.raises(CorpusError, match="length mismatch"):
            align(self._raw(["a", "b", "c"]), parse)

    def test_form_mismatch_names_index(self):
        parse = make_parse(
            [("a", 1, "x"), ("b", None, "r"), ("c", 1, "y"), ("DIFFERENT", 1, "z")]
        )
        with pytest.raises(CorpusError, match="index 3"):
            align(self._raw(["a", "b", "c", "d"]), parse)

    def test_corpus_count_mismatch(self):
        parse = make_parse([("a", None, "r")])
        with pytest.raises(CorpusError, match="corpus mismatch"):
            align_corpus([], [parse])

    def test_an_aligned_instance_holds_one_token_tuple(self, tmp_path):
        sem, conll = write_corpus(tmp_path, "c", *long_corpus(20, seed=1))
        raws = parse_semeval_file(sem, SYNTH_LABELS)
        assert all(r.tokens is not p.forms for r, p in zip(raws, read_conll(conll)))
        for inst in align_corpus(raws, read_conll(conll)):
            assert inst.raw.tokens is inst.parse.forms

    def test_an_aligned_sentence_read_from_files_stays_below_its_byte_bound(self, tmp_path):
        """Live bytes per aligned sentence of about 25 tokens from 10,000
        forms, strings included.  With the annotated tokens held beside the
        parse's forms and an attribute dictionary per record this read 2382;
        with one token tuple and slotted records, 1529."""
        sem, conll = write_corpus(tmp_path, "c", *long_corpus(1000, seed=3))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            aligned = align_corpus(parse_semeval_file(sem, SYNTH_LABELS), read_conll(conll))
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live / len(aligned) < 1950


class TestInvariants:
    def test_span_validation(self):
        with pytest.raises(ValueError, match="out of bounds"):
            RawInstance(1, ("a", "b"), (0, 0), (1, 2), OTHER_LABEL)
        with pytest.raises(ValueError, match="overlap"):
            RawInstance(1, ("a", "b", "c"), (0, 1), (1, 2), OTHER_LABEL)

    def test_single_root_required(self):
        with pytest.raises(CorpusError):
            ParsedSentence(("a", "b"), (1, 0), ("x", "y"))
