"""A mutation fuzz of the five readers of an id field.

The SemEval record id, the CoNLL HEAD, the path (pool) id, the prediction id
and the lexical-feature id are read by ``corpus.parse_decimal``: ASCII
digits alone.  Each test writes a valid file, replaces one id field with a
mutant that ``int`` or a looser reader might take, and requires the reader
either to raise its error naming the file and the line, or, for a leading
zero only, to read exactly what the file with the plain digits reads.  No
mutant may read as a different id.
"""

import pytest

from sdprel.corpus import CorpusError, parse_semeval_file, read_conll
from sdprel.deppath import PathMode
from sdprel.infer_eval import read_predictions
from sdprel.training import ConfigError, read_lex_features, read_pool_file
from synth import SYNTH_LABELS

#: Spellings of 1 (or of another number) that are not ASCII digits alone,
#: and the one that is: a leading zero.
MUTANTS = ("+1", "-1", "1_0", " 1", "1 ", "٣", "１", "0x1", "1e0", "01")

#: Per reader: the file text with the id field to mutate as ``{id}`` (a valid
#: ``1``), the 1-based line that holds it, the reader and its error type.
READERS = {
    "semeval record id": (
        '5\t"The <e1>singer</e1> caused a <e2>commotion</e2> ."\nOther\n\n'
        '{id}\t"The <e1>cat</e1> chased a <e2>mouse</e2> ."\nOther\n',
        4, lambda path: parse_semeval_file(path, SYNTH_LABELS), CorpusError,
    ),
    "conll head": (
        "1\tran\t_\t_\t_\t_\t0\troot\n"
        "2\tcat\t_\t_\t_\t_\t{id}\tnsubj\n"
        "3\tfast\t_\t_\t_\t_\t1\tadvmod\n",
        2, read_conll, CorpusError,
    ),
    "path id": (
        "7\ta → b\n{id}\tc ← d\n",
        2, lambda path: read_pool_file(path, PathMode.DIRECTIONS_ONLY), ConfigError,
    ),
    "prediction id": (
        "7\tOther\n{id}\tRelA(e2,e1)\n",
        2, lambda path: read_predictions(path, SYNTH_LABELS), CorpusError,
    ),
    "lexical-feature id": (
        "7\t0.5 1.5\n{id}\t2.5 3.5\n",
        2, read_lex_features, ConfigError,
    ),
}


def read(tmp_path, reader, text, field):
    """What reader gives for text with field as its id; arrays as lists, to compare."""
    path = tmp_path / "input.txt"
    path.write_text(text.format(id=field), encoding="utf-8")
    got = reader(path)
    return {k: v.tolist() for k, v in got.items()} if isinstance(got, dict) else got


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("kind", READERS)
def test_a_mutated_id_is_rejected_naming_the_line_or_reads_as_its_digits(
    tmp_path, kind, mutant
):
    text, line, reader, error = READERS[kind]
    plain = read(tmp_path, reader, text, "1")
    try:
        got = read(tmp_path, reader, text, mutant)
    except error as e:
        assert str(e).startswith(f"{tmp_path / 'input.txt'}: ")
        assert f"line {line}: " in str(e)
        return
    assert mutant.isascii() and mutant.isdigit(), f"{kind} {mutant!r} was accepted"
    assert got == plain
