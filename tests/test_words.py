import math
import random

import pytest
from hypothesis import given, strategies as st

from seqrecon.words import (
    Word,
    hamming_ball_volume,
    hamming_distance,
    insertion_ball_volume,
    support,
    weight,
)


def test_parse_and_text_roundtrip_small_alphabet():
    w = Word.parse("11101", 2)
    assert w.symbols == (1, 1, 1, 0, 1)
    assert w.text == "11101"
    assert Word.parse("", 3) == Word((), 3)
    assert Word((), 3).text == ""


def test_parse_large_alphabet_uses_commas():
    w = Word.parse("1,12,0", 13)
    assert w.symbols == (1, 12, 0)
    assert w.text == "1,12,0"


def test_parse_rejects_out_of_alphabet_symbols():
    with pytest.raises(ValueError):
        Word.parse("012", 2)
    with pytest.raises(ValueError):
        Word((0, 5), 4)
    with pytest.raises(ValueError):
        Word("010", 2)  # raw constructor takes ints, not text


def test_word_is_immutable_and_hashable():
    w = Word.parse("0101", 2)
    with pytest.raises(AttributeError):
        w.symbols = (1,)
    assert len({w, Word.parse("0101", 2)}) == 1


def test_support_examples():
    assert support(Word.parse("0010", 2)) == {3}
    assert support(Word.parse("0000", 2)) == set()
    assert support(Word.parse("111100", 2)) == {1, 2, 3, 4}


def test_weight_and_distance_examples():
    assert weight(Word.parse("111100", 2)) == 4
    w = Word.parse("11101", 2)
    assert hamming_distance(w, w) == 0
    assert hamming_distance(w, Word.parse("11011", 2)) == 2


def test_distance_requires_matching_shape():
    with pytest.raises(ValueError):
        hamming_distance(Word.parse("01", 2), Word.parse("011", 2))
    with pytest.raises(ValueError):
        hamming_distance(Word.parse("01", 2), Word.parse("01", 3))


def test_hamming_ball_volume_examples():
    assert hamming_ball_volume(2, 6, 1) == 7
    assert hamming_ball_volume(5, 9, 0) == 1
    assert hamming_ball_volume(4, 3, 1) == 10
    assert hamming_ball_volume(2, 100, 3) == 166751


def test_hamming_ball_volume_domain():
    with pytest.raises(ValueError):
        hamming_ball_volume(2, 4, 5)
    with pytest.raises(ValueError):
        hamming_ball_volume(2, 4, -1)


@pytest.mark.parametrize("n", range(0, 12))
def test_binary_ball_of_full_radius_is_whole_space(n):
    assert hamming_ball_volume(2, n, n) == 2**n


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hamming_ball_is_its_binomial_sum(q):
    # Every radius up to n at small n, then n = 10^4 with radii in the hundreds.
    cases = [(n, t) for n in range(0, 13) for t in range(0, n + 1)]
    for n, t in cases + [(10_000, 1), (10_000, 250), (10_000, 600)]:
        assert hamming_ball_volume(q, n, t) == sum((q - 1) ** i * math.comb(n, i) for i in range(t + 1))
    assert hamming_ball_volume(q, 12, 12) == q**12


def test_insertion_ball_volume_examples():
    assert insertion_ball_volume(2, 3, 1) == 9
    assert insertion_ball_volume(7, 5, 0) == 1
    assert insertion_ball_volume(4, 10, 2) == 1101


def test_insertion_ball_is_stars_and_bars_sum():
    for q in (2, 3, 4):
        for n in range(0, 7):
            for t in range(0, 3):
                expect = sum(q**i * math.comb(n + i, i) for i in range(t + 1))
                assert insertion_ball_volume(q, n, t) == expect
        for t in (1, 250, 600):
            expect = sum(q**i * math.comb(10_000 + i, i) for i in range(t + 1))
            assert insertion_ball_volume(q, 10_000, t) == expect


words_q4 = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*([st.integers(0, 3)] * n)).map(lambda s: Word(s, 4))
)


@given(words_q4, words_q4, words_q4)
def test_distance_metric_properties(a, b, c):
    if not len(a) == len(b) == len(c):
        return
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)
    assert (hamming_distance(a, b) == 0) == (a == b)


@given(words_q4)
def test_weight_equals_support_size(w):
    assert weight(w) == len(support(w))


@pytest.mark.parametrize(
    "text, q, message",
    [
        ("01x2", 4, "bad word text '01x2' for q=4"),
        ("0125", 4, "symbol 5 outside alphabet [0, 3]"),
        ("1,x", 12, "invalid literal for int() with base 10: 'x'"),
        ("1,12", 12, "symbol 12 outside alphabet [0, 11]"),
        ("3,", 12, "invalid literal for int() with base 10: ''"),
        ("0", 1, "alphabet size must be >= 2, got 1"),
    ],
)
def test_parse_error_messages(text, q, message):
    with pytest.raises(ValueError) as err:
        Word.parse(text, q)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, q, symbols",
    [
        ("", 4, ()),
        ("  \r\n", 4, ()),
        ("", 12, ()),
        ("0123\r\n", 4, (0, 1, 2, 3)),
        ("٣٣", 4, (3, 3)),  # Arabic-Indic digits parse as int() does
        ("1,2", 4, (1, 2)),
        ("1,11,0\r\n", 12, (1, 11, 0)),
    ],
)
def test_parse_blank_crlf_and_unicode_digits(text, q, symbols):
    w = Word.parse(text, q)
    assert w == Word(symbols, q)
    assert w.symbols == symbols
    assert w.raw == "".join(chr(48 + s) for s in symbols)


def _reference_parse(text, q):
    """Word.parse with its earlier raw-form rule: the stripped text is the
    raw form when str.strip of the alphabet's characters leaves nothing."""
    text = text.strip()
    if text == "" or (q <= 10 and not text.strip("".join(chr(48 + s) for s in range(q)))):
        return Word._of_raw(text, q)
    if q <= 10 and "," not in text:
        try:
            syms = tuple(int(c) for c in text)
        except ValueError:
            raise ValueError(f"bad word text {text!r} for q={q}") from None
    else:
        syms = tuple(int(part) for part in text.split(","))
    return Word(syms, q)


def _reference_from_raw(raw, q):
    """Word.from_raw with its earlier str.strip rule."""
    if raw.strip("".join(chr(48 + s) for s in range(q))):
        return Word([ord(c) - 48 for c in raw], q)
    return Word._of_raw(raw, q)


def _parse_outcome(parse, text, q):
    try:
        word = parse(text, q)
    except ValueError as exc:
        return "error", str(exc)
    return word.raw, word.q


def test_parse_accepts_exactly_what_the_strip_rule_accepted():
    # The one-pass bytes check takes the raw-form path on exactly the texts
    # the str.strip rule took it on, so every text parses to the same word
    # or fails with the same message, for every q including q < 2; and
    # from_raw, which shares the check, gives the same word or message too,
    # also at q = 90, where some symbols are not ASCII.
    pool = "0123456789:;,- \t\r\n+_x٣１\udcff"  # a lone surrogate, as surrogateescape reads a bad byte
    rng = random.Random(14)
    texts = ["".join(rng.choices(pool, k=rng.randrange(8))) for _ in range(3000)]
    texts += ["٣", "１", "12٣", "１2", "0 1", "0\t1", "1,2", ",", "1,", "", " ", "\r\n", " \t "]
    for q in range(13):
        edge = [chr(48 + q), "0" + chr(48 + q), chr(47), "0" * q]
        for text in texts + edge:
            assert _parse_outcome(Word.parse, text, q) == _parse_outcome(_reference_parse, text, q), (text, q)
    for q in (*range(13), 90):
        for text in texts + [chr(48 + 85) + "0", chr(48 + 90)]:
            assert _parse_outcome(Word.from_raw, text, q) == _parse_outcome(_reference_from_raw, text, q), (text, q)
    for q in (-1, 0, 1):
        for text in ("", "0", "  ", "1"):
            assert _parse_outcome(Word.parse, text, q) == ("error", f"alphabet size must be >= 2, got {q}")


def test_from_raw_rejects_symbols_outside_alphabet():
    with pytest.raises(ValueError, match=r"symbol 12 outside alphabet \[0, 11\]"):
        Word.from_raw("0<", 12)
    with pytest.raises(ValueError, match=r"symbol -1 outside alphabet \[0, 3\]"):
        Word.from_raw("/", 4)


@given(
    st.sampled_from([2, 4, 10, 12, 40]).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), max_size=12).map(tuple))
    )
)
def test_raw_word_agrees_with_tuple_form(case):
    q, symbols = case
    w = Word(symbols, q)
    assert w.symbols == symbols
    assert list(w) == list(symbols)
    assert len(w) == len(symbols)
    assert [w[i] for i in range(-len(w), len(w))] == [symbols[i] for i in range(-len(w), len(w))]
    assert w[1:3] == symbols[1:3]
    for same in (Word.from_raw(w.raw, q), Word.parse(w.text, q)):
        assert same == w and hash(same) == hash(w)
        assert same.symbols == symbols
    assert w != Word(symbols, q + 1)
    if symbols:
        other = Word(symbols[:-1] + ((symbols[-1] + 1) % q,), q)
        assert other != w and other.symbols != symbols
