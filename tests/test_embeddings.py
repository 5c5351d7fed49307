"""Vocabulary construction and embedding initialization."""

import re

import numpy as np
import pytest

from sdprel.deppath import NodeSequence, PathMode
from sdprel.embeddings import (
    EmbeddingError,
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    Vocab,
    build_vocab,
    init_embeddings,
    load_pretrained,
)


def seq(*texts, mode=PathMode.LABELED):
    return NodeSequence(texts, mode)


class TestVocab:
    def test_empty_collection_keeps_reserved_entries(self):
        vocab = build_vocab([])
        assert len(vocab) == 2
        assert vocab.items == (PAD_TOKEN, UNK_TOKEN)

    def test_single_sequence_size(self):
        vocab = build_vocab([seq("a", "→", "nsubj", "b")])
        assert len(vocab) == 6

    def test_min_count_two_fixture(self):
        sequences = [
            seq("a", "→", "x", "b"),
            seq("a", "→", "x", "c"),
            seq("d", "←", "y", "c"),
        ]
        vocab = build_vocab(sequences, min_count=2)
        # counts: a=2 →=2 x=2 c=2, everything else once
        assert vocab.items == (PAD_TOKEN, UNK_TOKEN, "a", "→", "x", "c")
        assert vocab.word_strings == frozenset({"a", "c"})

    def test_indexify_known_and_unknown(self):
        vocab = build_vocab([seq("a", "→", "nsubj", "b")])
        s = seq("a", "→", "nsubj", "zzz")
        assert vocab.indexify(s) == (2, 3, 4, UNK_INDEX)
        assert len(vocab.indexify(s)) == len(s)

    def test_word_strings_track_word_kind_only(self):
        vocab = build_vocab([seq("a", "→", "nsubj", "b")])
        assert vocab.word_strings == frozenset({"a", "b"})

    def test_reserved_strings_on_a_path_take_the_reserved_columns(self):
        s = seq(UNK_TOKEN, "→", PAD_TOKEN, "b", "←", UNK_TOKEN, PAD_TOKEN)
        vocab = build_vocab([s])
        assert vocab.items == (PAD_TOKEN, UNK_TOKEN, "→", "b", "←")
        assert vocab.word_strings == frozenset({"b"})
        assert vocab.indexify(s) == (UNK_INDEX, 2, PAD_INDEX, 3, 4, UNK_INDEX, PAD_INDEX)

    def test_reserved_entries_enforced(self):
        with pytest.raises(ValueError):
            Vocab(("a", "b"), frozenset())


class TestInitEmbeddings:
    def _vocab(self):
        return build_vocab([seq("singer", "→", "nsubj", "caused")])

    def test_shape_and_zero_pad_without_pretrained(self):
        table, coverage = init_embeddings(self._vocab(), None, 3, seed=5)
        assert table.shape == (3, 6)
        assert np.array_equal(table[:, PAD_INDEX], np.zeros(3))
        assert coverage == 1.0  # no pretrained table requested
        assert np.all(np.abs(table) <= 0.25)

    def test_deterministic_given_seed(self):
        a, _ = init_embeddings(self._vocab(), None, 4, seed=9)
        b, _ = init_embeddings(self._vocab(), None, 4, seed=9)
        c, _ = init_embeddings(self._vocab(), None, 4, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pretrained_vector_copied(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("singer 0.1 0.2 0.3\nunrelated 9 9 9\n")
        vocab = self._vocab()
        table, coverage = init_embeddings(vocab, path, 3, seed=0)
        assert np.array_equal(table[:, vocab.lookup("singer")], [0.1, 0.2, 0.3])
        assert coverage == 0.5  # singer matched, caused missed

    def test_full_coverage(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("singer 1 2 3\ncaused 4 5 6\n")
        _, coverage = init_embeddings(self._vocab(), path, 3, seed=0)
        assert coverage == 1.0

    def test_arrows_and_labels_never_match_pretrained(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("→ 7 7 7\nnsubj 8 8 8\n")
        vocab = self._vocab()
        table, coverage = init_embeddings(vocab, path, 3, seed=0)
        assert coverage == 0.0
        assert not np.array_equal(table[:, vocab.lookup("→")], [7.0, 7.0, 7.0])

    def test_dimension_mismatch_diagnostic(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("singer 0.1 0.2\n")
        with pytest.raises(EmbeddingError, match="line 1"):
            load_pretrained(path, 3, {"singer"})
        with pytest.raises(EmbeddingError):
            init_embeddings(self._vocab(), path, 3, seed=0)

    def test_non_numeric_entry_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("singer 0.1 0.2 0.3\ncaused 0.1 x 0.3\n")
        message = f"{path}: line 2: non-numeric vector entry"
        with pytest.raises(EmbeddingError, match="^" + re.escape(message) + "$"):
            load_pretrained(path, 3, {"singer"})

    def test_only_vocabulary_words_are_kept_but_every_line_is_checked(self, tmp_path):
        """A table far larger than the vocabulary keeps a vector only for the
        vocabulary's words, the last one of a repeated word; a malformed line
        still fails naming its line, whatever its token."""
        path = tmp_path / "vecs.txt"
        lines = [f"other{i} {i} 0.5 -1" for i in range(300)]
        lines[40] = "singer 1 2 3"
        lines[250] = "singer 4 5 6"
        lines[260] = "→ 7 8 9"  # a vocabulary entry, but not a word node
        path.write_text("\n".join(lines) + "\n")
        vocab = self._vocab()
        vectors = load_pretrained(path, 3, vocab.word_strings)
        assert list(vectors) == ["singer"]
        assert vectors["singer"].tolist() == [4.0, 5.0, 6.0]
        table, coverage = init_embeddings(vocab, path, 3, seed=0)
        assert table[:, vocab.lookup("singer")].tolist() == [4.0, 5.0, 6.0]
        assert coverage == 0.5
        lines[280] = "other280 1 x 3"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: line 281: non-numeric vector entry"
        with pytest.raises(EmbeddingError, match="^" + re.escape(message) + "$"):
            load_pretrained(path, 3, vocab.word_strings)

    def test_coverage_without_word_nodes(self):
        vocab = build_vocab([])
        _, coverage = init_embeddings(vocab, None, 2, seed=1)
        assert coverage == 1.0
