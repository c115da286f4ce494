import math

import pytest

from seqrecon.channels import (
    ChannelModel,
    OutputCollection,
    enumerate_patterns,
    pattern_space_size,
    transmit_all,
    transmit_random,
)
from seqrecon.words import Word, hamming_ball_volume, insertion_ball_volume


def W(text, q=2):
    return Word.parse(text, q)


def counts_by_text(col):
    return {w.text: c for w, c in col.counts.items()}


def test_model_parsing():
    assert ChannelModel.parse("multiset") is ChannelModel.MULTISET
    assert ChannelModel.parse("non_multiset") is ChannelModel.NON_MULTISET
    assert ChannelModel.parse("Traditional") is ChannelModel.TRADITIONAL
    with pytest.raises(ValueError):
        ChannelModel.parse("bogus")


def test_single_deletion_multiset_of_111100():
    col = transmit_all(W("111100"), 1, "exactly", ChannelModel.MULTISET)
    assert col.kind == "multiset"
    assert counts_by_text(col) == {"11100": 4, "11110": 2}
    assert col.total() == 6


def test_single_deletion_multiset_of_111010():
    col = transmit_all(W("111010"), 1, "exactly", ChannelModel.MULTISET)
    assert counts_by_text(col) == {"11010": 3, "11110": 1, "11100": 1, "11101": 1}


def test_double_deletion_set_of_11101():
    col = transmit_all(W("11101"), 2, "exactly", ChannelModel.NON_MULTISET)
    assert col.kind == "set"
    assert counts_by_text(col) == {"111": 1, "110": 1, "101": 1}


def test_zero_budget_identity():
    x = W("0120", 3)
    for model in ChannelModel:
        col = transmit_all(x, 0, "exactly", model)
        assert col.words() == [x]
        assert col.total() == 1


def test_traditional_reach_containment():
    # a shorter-support word's outputs sit strictly inside its neighbour's
    reach_x = set(transmit_all(W("111100"), 1, "exactly", ChannelModel.TRADITIONAL).words())
    reach_xp = set(transmit_all(W("111010"), 1, "exactly", ChannelModel.TRADITIONAL).words())
    assert reach_x < reach_xp


def test_multiset_totals_match_pattern_counts():
    x = W("110100")
    for t in (1, 2):
        exactly = transmit_all(x, t, "exactly", ChannelModel.MULTISET)
        at_most = transmit_all(x, t, "at_most", ChannelModel.MULTISET)
        assert exactly.total() == math.comb(6, t)
        assert at_most.total() == sum(math.comb(6, i) for i in range(t + 1))


@pytest.mark.parametrize("error_type", ["deletion", "insertion"])
@pytest.mark.parametrize("mode", ["exactly", "at_most"])
def test_pattern_space_size_counts_enumerated_patterns(mode, error_type):
    for q in (2, 3, 4):
        for n in range(0, 6):
            x = Word([i % q for i in range(n)], q)
            for t in range(0, (n if error_type == "deletion" else 3) + 1):
                size = pattern_space_size(n, q, t, mode, error_type)
                assert size == sum(1 for _ in enumerate_patterns(x, t, mode, error_type))
                if mode == "at_most" and error_type == "deletion":
                    assert size == hamming_ball_volume(2, n, t)
                elif mode == "at_most":
                    assert size == insertion_ball_volume(q, n, t)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 2, 4, "at_most", "deletion"), "deletion budget t=4 infeasible for length 3"),
        ((3, 2, -1, "exactly", "insertion"), "insertion budget must be non-negative"),
        ((3, 2, 1, "exactly", "substitution"), "unknown error type 'substitution'"),
        ((-1, 2, 2, "exactly", "insertion"), "n and t must be non-negative"),
        ((-1, 2, 2, "at_most", "insertion"), "n and t must be non-negative"),
        ((-1, 2, 0, "exactly", "insertion"), "n and t must be non-negative"),
        ((4, 1, 2, "exactly", "insertion"), "alphabet size must be >= 2, got 1"),
        ((4, 1, 2, "at_most", "insertion"), "alphabet size must be >= 2, got 1"),
        ((4, 0, 0, "exactly", "insertion"), "alphabet size must be >= 2, got 0"),
        ((3, 2, 1, "sometimes", "deletion"), "mode must be 'exactly' or 'at_most', got 'sometimes'"),
    ],
    ids=[
        "deletion-t-above-n", "insertion-t-negative", "unknown-type", "exactly-n-negative",
        "at-most-n-negative", "exactly-n-negative-t-0", "exactly-q-1", "at-most-q-1", "exactly-q-0-t-0",
        "unknown-mode",
    ],
)
def test_pattern_space_size_refusals(args, message):
    with pytest.raises(ValueError) as excinfo:
        pattern_space_size(*args)
    assert str(excinfo.value) == message


def test_set_models_agree_with_multiset_support():
    x = W("21002", 3)
    m = transmit_all(x, 2, "at_most", ChannelModel.MULTISET)
    s = transmit_all(x, 2, "at_most", ChannelModel.NON_MULTISET)
    trad = transmit_all(x, 2, "at_most", ChannelModel.TRADITIONAL)
    assert s == m.as_set()
    assert trad == s


def test_insertion_multiset_of_000():
    col = transmit_all(W("000"), 1, "exactly", ChannelModel.MULTISET, error_type="insertion")
    assert counts_by_text(col) == {"0000": 4, "1000": 1, "0100": 1, "0010": 1, "0001": 1}
    assert col.total() == 8
    at_most = transmit_all(W("000"), 1, "at_most", ChannelModel.MULTISET, error_type="insertion")
    assert at_most.total() == 9


def test_transmit_all_refuses_oversized_enumeration():
    with pytest.raises(ValueError):
        transmit_all(W("0" * 30, 4), 8, "exactly", ChannelModel.MULTISET, error_type="insertion")
    with pytest.raises(ValueError):
        transmit_all(W("010"), 5, "exactly", ChannelModel.MULTISET)


def test_transmit_all_refusal_states_the_count():
    # C(40, 8) = 76,904,685 deletion patterns; the cap is 10,000,000.
    with pytest.raises(ValueError, match="^76904685 patterns exceed enumeration limit 10000000$"):
        transmit_all(W("01" * 20), 8, "exactly", ChannelModel.MULTISET)


def test_transmit_random_zero_budget_single_channel():
    x = W("0123", 4)
    col = transmit_random(x, 1, (0, 0, 0), ChannelModel.MULTISET, rng_seed=5)
    assert col.words() == [x]


def test_transmit_random_deterministic():
    x = W("0110")
    a = transmit_random(x, 40, (0, 2, 1), ChannelModel.MULTISET, rng_seed=11)
    b = transmit_random(x, 40, (0, 2, 1), ChannelModel.MULTISET, rng_seed=11)
    assert a == b
    assert a.total() == 40


def test_transmit_random_strict_patterns_unique():
    x = W("000")
    # pattern space is 9; asking for all 9 distinct patterns must work
    col = transmit_random(x, 9, (0, 0, 1), ChannelModel.MULTISET, rng_seed=3,
                          strict=True)
    assert col.distinct_patterns == 9
    assert counts_by_text(col) == {"000": 1, "0000": 4, "1000": 1, "0100": 1, "0010": 1, "0001": 1}
    with pytest.raises(ValueError):
        transmit_random(x, 10, (0, 0, 1), ChannelModel.MULTISET, rng_seed=3, strict=True)
    with pytest.raises(ValueError, match="^need at least one channel$"):
        transmit_random(x, 0, (0, 0, 1), ChannelModel.MULTISET, rng_seed=3)


def test_transmit_random_tracks_distinct_patterns():
    x = W("0101010101")
    col = transmit_random(x, 50, (0, 2, 0), ChannelModel.MULTISET, rng_seed=17)
    assert 1 <= col.distinct_patterns <= 50


def test_collection_json_roundtrip_and_order():
    col = transmit_all(W("111100"), 1, "at_most", ChannelModel.MULTISET)
    obj = col.to_obj()
    assert obj["kind"] == "multiset"
    # canonical order: by length, then symbols
    assert [item["word"] for item in obj["items"]] == ["11100", "11110", "111100"]
    assert OutputCollection.from_obj(obj, 2) == col
    raw = OutputCollection.of_raw("multiset", {"01": 2, "1": 1}, 2)
    assert repr(raw) == "OutputCollection(multiset, {1x1, 01x2})"
    assert W("01") in raw and W("10") not in raw
    # Equality ignores distinct_patterns.
    three, five = (OutputCollection.of_raw("multiset", {"01": 2}, 2, k) for k in (3, 5))
    assert (three.distinct_patterns, five.distinct_patterns) == (3, 5) and three == five


def test_collection_rejects_bad_multiplicities():
    with pytest.raises(ValueError):
        OutputCollection("multiset", {W("01"): 0})
    with pytest.raises(ValueError):
        OutputCollection("bag", {W("01"): 1})
