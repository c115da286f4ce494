import itertools
import random
import time
from collections import Counter

import pytest

from seqrecon.bounds import (
    adjacent_singleton_channels,
    levenshtein_deletion_bound,
    pattern_bound,
)
from seqrecon.channels import ChannelModel
from seqrecon.oracle import confusable_max, extremal_search
from seqrecon.patterns import apply_pattern
from seqrecon.words import Word

M = ChannelModel.MULTISET
NM = ChannelModel.NON_MULTISET
TR = ChannelModel.TRADITIONAL


def W(text, q=2):
    return Word.parse(text, q)


PAIR = (W("11101"), W("11011"))


def test_reference_pair_all_models():
    assert confusable_max(*PAIR, 2, "exactly", M).n_max_confusable == 8
    assert confusable_max(*PAIR, 2, "exactly", NM).n_max_confusable == 9
    assert confusable_max(*PAIR, 2, "exactly", TR).n_max_confusable == 3


def test_self_pair_is_never_distinguishable():
    x = W("110010")
    rep = confusable_max(x, x, 2, "exactly", M)
    assert rep.n_max_confusable == 15  # C(6,2): every pattern collides
    rep = confusable_max(x, x, 2, "at_most", NM)
    assert rep.n_max_confusable == 22  # V_2(6,2)
    rep = confusable_max(x, x, 1, "exactly", TR)
    assert rep.n_max_confusable == len(set(
        W("110010").text[:i] + W("110010").text[i + 1:] for i in range(6)
    ))


def test_shape_validation():
    with pytest.raises(ValueError):
        confusable_max(W("110"), W("1101"), 1, "exactly", M)
    with pytest.raises(ValueError):
        confusable_max(W("110"), W("011"), 4, "exactly", M)


def test_model_ordering_on_random_pairs():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(4, 8)
        q = rng.choice((2, 3))
        x = Word([rng.randrange(q) for _ in range(n)], q)
        xp = Word([rng.randrange(q) for _ in range(n)], q)
        if x == xp:
            continue
        t = rng.choice((1, 2))
        mode = rng.choice(("exactly", "at_most"))
        trad = confusable_max(x, xp, t, mode, TR).n_max_confusable
        mult = confusable_max(x, xp, t, mode, M).n_max_confusable
        nm = confusable_max(x, xp, t, mode, NM).n_max_confusable
        assert trad <= nm
        assert mult <= nm


def replay(words_and_patterns, model):
    out = Counter()
    for x, patterns in words_and_patterns:
        for p in patterns:
            out[apply_pattern(x, p)] += 1
    if model is M:
        return dict(out)
    return dict.fromkeys(out, 1)


@pytest.mark.parametrize("model", [TR, M, NM])
def test_witness_replays_to_identical_collections(model):
    x, xp = PAIR
    rep = confusable_max(x, xp, 2, "exactly", model, want_witness=True)
    w = rep.witness
    assert len(w.patterns_x) == len(w.patterns_x_prime) == rep.n_max_confusable
    left = replay([(x, w.patterns_x)], model)
    right = replay([(xp, w.patterns_x_prime)], model)
    assert left == right
    # and the witness's declared outputs agree with the replay
    declared = {wd: c for wd, c in w.outputs.counts.items()}
    assert declared == left


def test_insertion_oracle_symmetric_and_ordered():
    x, xp = W("0102", 3), W("0120", 3)
    a = confusable_max(x, xp, 1, "exactly", M, error_type="insertion")
    b = confusable_max(xp, x, 1, "exactly", M, error_type="insertion")
    assert a.n_max_confusable == b.n_max_confusable > 0
    nm = confusable_max(x, xp, 1, "exactly", NM, error_type="insertion")
    assert a.n_max_confusable <= nm.n_max_confusable


def test_extremal_small_nonmultiset():
    res = extremal_search(6, 2, 1, "exactly", NM)
    assert res.n_max_confusable == 4  # C(6,1) - C(2,1)
    texts = {(a.text, b.text) for a, b in res.pairs}
    assert ("000100", "001000") in texts
    assert res.searched_pairs == 64 * 63 // 2


def test_extremal_matches_closed_forms_at_n6():
    res = extremal_search(6, 2, 1, "exactly", NM)
    assert res.n_max_confusable + 1 == pattern_bound(6, 1, "exactly")
    res = extremal_search(6, 2, 1, "exactly", TR)
    assert res.n_max_confusable + 1 == levenshtein_deletion_bound(6, 1)


def test_extremal_traditional_n8_t2():
    res = extremal_search(8, 2, 2, "exactly", TR)
    assert res.n_max_confusable + 1 == levenshtein_deletion_bound(8, 2)


def test_centred_pair_multiset_confusability_matches_formula():
    for n in range(4, 11):
        for t in (1, 2):
            if n < t + 1:
                continue
            a = (n + 1) // 2
            x = W("0" * (a - 1) + "1" + "0" * (n - a))
            xp = W("0" * a + "1" + "0" * (n - a - 1))
            rep = confusable_max(x, xp, t, "exactly", M)
            assert rep.n_max_confusable == adjacent_singleton_channels(n, t, a) - 1


def test_indistinguishable_pairs_are_reported_separately():
    # with n < 2t+2 reversed words can emit identical multisets forever
    res = extremal_search(2, 2, 1, "exactly", M)
    flagged = {(a.text, b.text) for a, b in res.indistinguishable}
    assert ("01", "10") in flagged
    assert all(pair not in flagged for pair in {(a.text, b.text) for a, b in res.pairs})


def test_canonical_flag_dedupes_symbol_relabelings():
    plain = extremal_search(4, 2, 1, "exactly", M)
    canon = extremal_search(4, 2, 1, "exactly", M, canonical=True)
    assert canon.n_max_confusable == plain.n_max_confusable
    assert len(canon.pairs) <= len(plain.pairs)


def test_budget_guard():
    with pytest.raises(ValueError):
        extremal_search(10, 2, 2, "at_most", M, budget=1000)


def test_budget_refusal_counts_patterns_without_building_them():
    # C(24, 12) = 2704156 deletion patterns; the refusal must not enumerate them.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"search cost {2**48 * 2704156} exceeds budget 100000000"):
        extremal_search(24, 2, 12, "exactly", M)
    assert time.perf_counter() - start < 1.0


def test_larger_alphabet_extremal_matches_binary_maximum():
    # collapsing symbols cannot lower pattern-model confusability, so the
    # ternary maximum equals the binary one and binary pairs attain it
    binary = extremal_search(4, 2, 1, "exactly", M)
    ternary = extremal_search(4, 3, 1, "exactly", M)
    assert ternary.n_max_confusable == binary.n_max_confusable
    binary_pairs = {(a.text, b.text) for a, b in binary.pairs}
    ternary_pairs = {(a.text, b.text) for a, b in ternary.pairs}
    assert binary_pairs <= ternary_pairs


def test_parallel_scan_agrees_with_serial():
    serial = extremal_search(5, 2, 1, "exactly", M)
    parallel = extremal_search(5, 2, 1, "exactly", M, jobs=2)
    assert serial.n_max_confusable == parallel.n_max_confusable
    assert {(a.text, b.text) for a, b in serial.pairs} == {
        (a.text, b.text) for a, b in parallel.pairs
    }


def test_traditional_indistinguishable_pairs_are_reported_separately():
    # At n=4, t=2 some words reach the same set of distinct outputs; the
    # traditional model cannot tell them apart however many channels it reads.
    res = extremal_search(4, 2, 2, "exactly", TR)
    groups = [("0010", "0100"), ("0101", "0110", "1001", "1010"), ("1011", "1101")]
    expected = {pair for g in groups for pair in itertools.combinations(g, 2)}
    flagged = [(a.text, b.text) for a, b in res.indistinguishable]
    assert len(flagged) == 8 and set(flagged) == expected

    def outputs(w):
        return {tuple(s for i, s in enumerate(w.symbols) if i not in cut)
                for cut in itertools.combinations(range(4), 2)}

    assert res.pairs
    for a, b in res.pairs:
        assert outputs(a) != outputs(b)
        assert len(outputs(a) & outputs(b)) == res.n_max_confusable
