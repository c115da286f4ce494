import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from seqrecon.patterns import (
    DeletionVector,
    DrawOutputs,
    ErrorPattern,
    InsertionVector,
    PatternSampler,
    SubstitutionPattern,
    apply_deletion,
    apply_insertion,
    apply_pattern,
    enumerate_deletion_vectors,
    enumerate_insertion_vectors,
    sample_pattern,
)
from seqrecon.words import Word, alphabet, insertion_ball_volume, symbol_counts


def W(text, q=2):
    return Word.parse(text, q)


# --- applying single error types --------------------------------------------


def test_apply_deletion_examples():
    assert apply_deletion(W("111100"), DeletionVector.parse("000001")) == W("11110")
    x = W("101010")
    assert apply_deletion(x, DeletionVector.parse("000000")) == x
    assert apply_deletion(W("11101"), DeletionVector.parse("10010")) == W("111")


def test_apply_deletion_length_mismatch():
    with pytest.raises(ValueError):
        apply_deletion(W("111"), DeletionVector.parse("1100"))


def test_apply_insertion_examples():
    v = InsertionVector.from_texts(["1", "", "", ""], 2)
    assert apply_insertion(W("000"), v) == W("1000")
    x = W("0110")
    assert apply_insertion(x, InsertionVector.empty(4)) == x
    tail = InsertionVector.from_texts(["", "", "", "0"], 2)
    assert apply_insertion(W("000"), tail) == W("0000")


def test_apply_insertion_part_count_mismatch():
    with pytest.raises(ValueError):
        apply_insertion(W("000"), InsertionVector.empty(4))


def test_insertion_vector_symbols_validated_on_apply():
    v = InsertionVector(((2,), (), (), ()))
    pattern = ErrorPattern.of_insertion(v)
    with pytest.raises(ValueError):
        apply_pattern(W("000"), pattern)


# --- combined patterns -------------------------------------------------------


def test_apply_pattern_all_three_stages():
    # substitute position 1, delete position 2, insert a 2 at the end
    p = ErrorPattern(
        InsertionVector.from_texts(["", "", "2"], 3),
        DeletionVector.parse("01"),
        SubstitutionPattern.from_dict({1: 0}),
    )
    assert apply_pattern(W("10", 3), p) == W("02", 3)


def test_apply_pattern_empty_is_identity():
    x = W("1032", 4)
    assert apply_pattern(x, ErrorPattern.empty(4)) == x


def test_apply_pattern_reproduces_reference_output():
    # two insertions of 0, one deletion of a 2, one 2->0 substitution
    x = W("1200321021", 6)
    parts = ["", "", "", "", "0", "", "", "", "", "", "0"]
    p = ErrorPattern(
        InsertionVector.from_texts(parts, 6),
        DeletionVector.from_positions(10, [2]),
        SubstitutionPattern.from_dict({6: 0}),
    )
    assert apply_pattern(x, p) == W("10003010210", 6)


def test_apply_pattern_rejects_overlap_and_null_substitution():
    overlap = ErrorPattern(
        InsertionVector.empty(3),
        DeletionVector.parse("100"),
        SubstitutionPattern.from_dict({1: 1}),
    )
    with pytest.raises(ValueError):
        apply_pattern(W("010"), overlap)
    same = ErrorPattern(
        InsertionVector.empty(3),
        DeletionVector.parse("000"),
        SubstitutionPattern.from_dict({2: 1}),
    )
    with pytest.raises(ValueError):
        apply_pattern(W("010"), same)


def test_pattern_json_roundtrip():
    p = ErrorPattern(
        InsertionVector.from_texts(["1", "", "", ""], 4),
        DeletionVector.parse("001"),
        SubstitutionPattern.from_dict({2: 3}),
    )
    obj = p.to_obj(4)
    assert obj == {"ins": ["1", "", "", ""], "del": "001", "sub": {"2": 3}}
    assert ErrorPattern.from_obj(obj, 4) == p


# --- enumeration -------------------------------------------------------------


def test_deletion_vector_counts():
    for n in range(0, 21):
        for t in range(0, min(n, 5) + 1):
            exactly = sum(1 for _ in enumerate_deletion_vectors(n, t, "exactly"))
            at_most = sum(1 for _ in enumerate_deletion_vectors(n, t, "at_most"))
            assert exactly == math.comb(n, t)
            assert at_most == sum(math.comb(n, i) for i in range(t + 1))


def test_deletion_vectors_distinct():
    vecs = list(enumerate_deletion_vectors(6, 2, "at_most"))
    assert len(vecs) == len(set(vecs)) == 22


def test_table_of_weight2_vectors_for_11011():
    # the 9 vectors mapping 11011 into {111, 110, 101}
    produced = {}
    x = W("11011")
    for d in enumerate_deletion_vectors(5, 2, "exactly"):
        produced.setdefault(apply_deletion(x, d).text, set()).add(d.text)
    assert produced["111"] == {"10100", "01100", "00110", "00101"}
    assert produced["110"] == {"00011"}
    assert produced["101"] == {"10010", "10001", "01010", "01001"}


def test_insertion_vector_counts_match_ball_volume():
    for q in (2, 3, 4):
        for n in range(0, 5):
            for t in range(0, 3):
                at_most = sum(1 for _ in enumerate_insertion_vectors(n, q, t, "at_most"))
                exactly = sum(1 for _ in enumerate_insertion_vectors(n, q, t, "exactly"))
                assert at_most == insertion_ball_volume(q, n, t)
                assert exactly == q**t * math.comb(n + t, t)


def test_insertion_vectors_distinct():
    vecs = list(enumerate_insertion_vectors(3, 2, 1, "at_most"))
    assert len(set(vecs)) == 9


# --- sampling ----------------------------------------------------------------


def test_sample_pattern_is_valid_and_deterministic():
    x = W("21300213", 4)
    a = sample_pattern(8, 4, 1, 2, 2, rng_seed=99, x=x)
    b = sample_pattern(8, 4, 1, 2, 2, rng_seed=99, x=x)
    assert a == b
    a.validate(8, 4)
    y = apply_pattern(x, a)
    assert len(y) == 8 - a.deletion.weight + a.insertion.total


def test_sample_pattern_requires_word_for_substitutions():
    with pytest.raises(ValueError):
        sample_pattern(5, 4, 1, 0, 0, rng_seed=1)
    sample_pattern(5, 4, 0, 1, 1, rng_seed=1)  # fine without x


def test_sampler_space_sizes():
    s = PatternSampler(3, 2, 0, 0, 1)
    assert s.insertion_space == 9
    assert s.edit_space == 1
    assert s.pattern_space == 9
    s = PatternSampler(10, 4, 1, 1, 0)
    assert s.edit_space == 1 + 10 + 30 + math.comb(10, 2) * 2 * 3


def test_single_insertion_patterns_uniform_and_output_frequencies():
    # q=2, n=3, only one insertion allowed: 9 equally likely patterns, four of
    # which turn 000 into 0000.
    sampler = PatternSampler(3, 2, 0, 0, 1)
    rng = random.Random(4242)
    outputs = Counter()
    draws = Counter()
    reps = 20000
    for _ in range(reps):
        draw = sampler.draw(rng)
        draws[draw] += 1
        outputs[sampler.apply_draw(draw, "000")] += 1
    assert len(draws) == 9
    assert max(draws.values()) < 1.15 * reps / 9
    assert min(draws.values()) > 0.85 * reps / 9
    assert abs(outputs["0000"] / reps - 4 / 9) < 0.02
    non_identity = reps - outputs["000"]
    assert abs(outputs["0000"] / non_identity - 0.5) < 0.02


def test_probability_of_full_insertion_budget():
    # with total length at most t_i, the top length keeps at least 1/(t_i+1) mass
    for (n, q, ti) in [(6, 2, 1), (6, 2, 2), (10, 4, 2)]:
        sampler = PatternSampler(n, q, 0, 0, ti)
        rng = random.Random(7)
        reps = 4000
        full = sum(
            1 for _ in range(reps) if sum(len(p) for p in sampler.sample(rng).insertion.parts) == ti
        )
        assert full / reps >= 1 / (ti + 1) - 0.03


def test_sample_and_apply_draw_agree():
    x = W("0123012301", 4)
    for ts, td, ti in [(1, 1, 1), (1, 1, 2), (0, 2, 2), (2, 0, 1)]:
        sampler = PatternSampler(10, 4, ts, td, ti)
        for seed in range(40):
            p = sampler.sample(random.Random(seed), x)
            out = sampler.apply_draw(sampler.draw(random.Random(seed)), x.text)
            assert apply_pattern(x, p).text == out


# Every budget shape up to two of each kind on a word of length 7, plus
# substitutions and deletions that cover the whole word.
COUNT_SHAPES = [(ts, td, ti) for ts in range(3) for td in range(3) for ti in range(3)] + [
    (7, 0, 0), (0, 7, 1), (3, 4, 2), (5, 2, 0)
]


@pytest.mark.parametrize("q", [4, 5, 13])
def test_draw_counts_equal_counts_of_applied_draw(q):
    # DrawOutputs.read counts an output from its draw in O(t); it must give
    # what counting the applied output gives.
    rng = random.Random(f"counts:{q}")
    symbols = alphabet(q)
    n = 7
    for shape in COUNT_SHAPES:
        sampler = PatternSampler(n, q, *shape)
        for _ in range(60):
            x = "".join(rng.choices(symbols, k=n))
            outputs = DrawOutputs(sampler, x)
            draw = sampler.draw(rng)
            y = sampler.apply_draw(draw, x)
            assert outputs.read(draw) == (draw, symbol_counts(y, symbols), len(y))
            assert outputs.raw(draw) == y


def _reference_draw(sampler, rng):
    # PatternSampler.draw as written with randrange and sample; draw must
    # make the same generator calls, so seeded streams never drift.
    n, q = sampler.n, sampler.q
    r = rng.randrange(sampler.insertion_space)
    total = next(total for cum, total in sampler._ins_cum if r < cum)
    chosen = sorted(rng.sample(range(n + total), total)) if total else []
    gaps = tuple(c - k for k, c in enumerate(chosen))
    ins_symbols = tuple(rng.randrange(q) for _ in range(total))
    r = rng.randrange(sampler.edit_space)
    n_del, n_sub = next((d, s) for cum, d, s in sampler._edit_cum if r < cum)
    picked = rng.sample(range(n), n_del + n_sub) if n_del + n_sub else []
    sub_positions = tuple(sorted(picked[:n_sub]))
    del_positions = tuple(sorted(picked[n_sub:]))
    sub_offsets = tuple(rng.randrange(q - 1) for _ in range(n_sub))
    return gaps, ins_symbols, del_positions, sub_positions, sub_offsets


@pytest.mark.parametrize(
    "n, q, ts, td, ti",
    [
        (20, 4, 1, 1, 1),  # sample's pool path: n + total <= 21
        (20, 4, 0, 0, 1),  # one pick from 21 gaps: the pool path's edge
        (21, 4, 0, 0, 1),  # one pick from 22 gaps: the set path's edge
        (2, 4, 1, 1, 0),  # two picks from two positions empty the pool
        (22, 4, 1, 1, 0),  # two picks, set path
        (21, 4, 1, 1, 1),  # two edits from 21 positions: the pool path's edge
        (20, 4, 1, 1, 2),  # two gaps from 22: the set path's edge
        (5, 4, 1, 1, 2),
        (100, 4, 1, 1, 1),  # sample's set path
        (200, 4, 1, 1, 1),
        (40, 4, 4, 4, 6),  # more than 5 picks: pool path up to 85
        (100, 4, 4, 4, 1),  # more than 5 picks, set path
        (10, 4, 0, 0, 0),  # both spaces hold one pattern
        (12, 2, 2, 1, 1),  # one replacement symbol: offsets range over [0, 1)
        (30, 13, 2, 1, 2),
    ],
)
def test_draw_consumes_generator_like_randrange_and_sample(n, q, ts, td, ti):
    sampler = PatternSampler(n, q, ts, td, ti)
    rng = random.Random(f"draw:{n}:{q}")
    ref = random.Random(f"draw:{n}:{q}")
    for _ in range(300):
        assert sampler.draw(rng) == _reference_draw(sampler, ref)
        assert rng.getstate() == ref.getstate()


@settings(max_examples=60)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**30))
def test_applied_pattern_length_invariant(ts, td, ti, seed):
    x = W("31020130", 4)
    p = sample_pattern(8, 4, ts, td, ti, rng_seed=seed, x=x)
    y = apply_pattern(x, p)
    assert len(y) == 8 - p.deletion.weight + p.insertion.total


@given(st.integers(0, 2**30))
def test_deletion_commutes_with_symbol_collapse(seed):
    # collapsing the alphabet to binary before or after deleting gives the same word
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    x = Word([rng.randrange(4) for _ in range(n)], 4)
    d = DeletionVector.from_positions(n, rng.sample(range(1, n + 1), rng.randrange(n + 1)))
    cut = rng.randrange(1, 4)
    collapse = lambda w: Word([1 if s >= cut else 0 for s in w.symbols], 2)
    assert collapse(apply_deletion(x, d)) == apply_deletion(collapse(x), d)
