import copy
import itertools
import math
import pickle
import random
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from seqrecon.bounds import (
    adjacent_singleton_channels,
    levenshtein_deletion_bound,
    pattern_bound,
)
from seqrecon.channels import ChannelModel, OutputCollection, transmit_all
from seqrecon import oracle
from seqrecon.oracle import confusable_max, extremal_search
from seqrecon.patterns import (
    DeletionVector,
    ErrorPattern,
    InsertionVector,
    SubstitutionPattern,
    apply_pattern,
)
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


def test_confusable_max_refuses_before_enumerating():
    # C(34, 15) = 1,855,967,520 deletion patterns per word: hours to enumerate.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^1855967520 patterns exceed enumeration limit 10000000$"):
        confusable_max(W("01" * 17), W("10" * 17), 15, "exactly", M)
    assert time.perf_counter() - start < 1.0


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


def _listed_patterns(n, q, t, mode, error_type):
    """Every deletion or insertion pattern of the budget, listed with
    itertools in the documented order: ascending size, then deleted
    positions in lexicographic order, or insertion gap multisets in
    lexicographic order and then their symbols."""
    no_sub = SubstitutionPattern(())
    for size in range(t + 1) if mode == "at_most" else (t,):
        if error_type == "deletion":
            for positions in itertools.combinations(range(1, n + 1), size):
                yield ErrorPattern(InsertionVector.empty(n), DeletionVector.from_positions(n, positions), no_sub)
            continue
        for gaps in itertools.combinations_with_replacement(range(n + 1), size):
            for symbols in itertools.product(range(q), repeat=size):
                parts = [[] for _ in range(n + 1)]
                for g, s in zip(gaps, symbols):
                    parts[g].append(s)
                insertion = InsertionVector(tuple(map(tuple, parts)))
                yield ErrorPattern(insertion, DeletionVector((0,) * n), no_sub)


def _pattern_lists_reference(x, xp, t, mode, model, error_type):
    """The oracle that stores every pattern of both words, grouped by output.

    Returns (n_max, patterns on x, patterns on xp, witness outputs), the last
    three None when the words share no output.
    """
    out_x, out_xp = {}, {}
    for word, by_output in ((x, out_x), (xp, out_xp)):
        for v in _listed_patterns(len(word), word.q, t, mode, error_type):
            by_output.setdefault(apply_pattern(word, v), []).append(v)
    common = [y for y in out_x if y in out_xp]
    if model is TR:
        n_max = len(common)
        px = [out_x[y][0] for y in common]
        pxp = [out_xp[y][0] for y in common]
        counts = {y: 1 for y in common}
    elif model is M:
        px, pxp, counts = [], [], {}
        for y in common:
            take = min(len(out_x[y]), len(out_xp[y]))
            px.extend(out_x[y][:take])
            pxp.extend(out_xp[y][:take])
            counts[y] = take
        n_max = len(px)
    else:
        n_max = min(sum(len(out_x[y]) for y in common), sum(len(out_xp[y]) for y in common))

        def cover(by_output):
            chosen = [by_output[y][0] for y in common]
            for y in common:
                for p in by_output[y][1:]:
                    if len(chosen) == n_max:
                        return chosen
                    chosen.append(p)
            return chosen

        px, pxp, counts = cover(out_x), cover(out_xp), {y: 1 for y in common}
    if not n_max:
        return 0, None, None, None
    return n_max, px, pxp, OutputCollection(model.collection_kind, counts)


def test_confusable_max_matches_pattern_lists_reference():
    rng = random.Random(2406)
    cases = [
        (W("110010"), W("110010"), 2, "deletion"),  # x == x'
        (W("0000"), W("1111"), 1, "deletion"),  # no shared output
        (W("0102", 3), W("0120", 3), 1, "insertion"),
    ]
    for q in (2, 3, 4):
        for error_type, t_values, lengths in (("deletion", (0, 1, 2), (3, 8)), ("insertion", (1,), (2, 5))):
            for _ in range(12):
                n = rng.randrange(*lengths)
                x = Word([rng.randrange(q) for _ in range(n)], q)
                xp = Word([rng.randrange(q) for _ in range(n)], q)
                cases.append((x, xp, rng.choice(t_values), error_type))
    shared_none = 0
    for x, xp, t, error_type in cases:
        for mode in ("exactly", "at_most"):
            for model in (TR, M, NM):
                n_max, px, pxp, outputs = _pattern_lists_reference(x, xp, t, mode, model, error_type)
                for want_witness in (False, True):
                    rep = confusable_max(x, xp, t, mode, model, error_type, want_witness=want_witness)
                    assert rep.n_max_confusable == n_max, (x, xp, t, mode, model, error_type)
                    if not want_witness or outputs is None:
                        assert rep.witness is None
                        continue
                    w = rep.witness
                    assert w.patterns_x == px and w.patterns_x_prime == pxp
                    assert w.outputs == outputs
                shared_none += outputs is None
    assert shared_none > 0


def test_confusable_max_keeps_output_counts_not_patterns():
    # C(24, 4) = 10,626 patterns per word; the count needs only their outputs.
    x, xp = W("01" * 12), W("10" * 12)
    tracemalloc.start()
    try:
        rep = confusable_max(x, xp, 4, "exactly", M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_max_confusable > 0
    assert peak < 5_000_000


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


@pytest.mark.parametrize("n, q, t, model", [(1, 2, 1, M), (2, 2, 2, TR), (0, 2, 0, NM), (0, 3, 0, M)])
def test_no_distinguishable_pair_counts_zero(n, q, t, model):
    result = extremal_search(n, q, t, "exactly", model)
    assert result.n_max_confusable == 0
    assert result.pairs == []
    assert len(result.indistinguishable) == result.searched_pairs == math.comb(q**n, 2)


@pytest.mark.parametrize("n, t", [(-1, 0), (-1, 2), (-3, -1)])
def test_extremal_search_refuses_negative_length(n, t):
    with pytest.raises(ValueError, match="^n and t must be non-negative$"):
        extremal_search(n, 2, t, "exactly", M)


def test_extremal_search_refuses_t_above_n():
    with pytest.raises(ValueError, match="^t=4 infeasible for n=3$"):
        extremal_search(3, 2, 4, "exactly", M)


def test_budget_guard():
    with pytest.raises(ValueError):
        extremal_search(10, 2, 2, "at_most", M, budget=1000)


def test_budget_refusal_counts_patterns_without_building_them():
    # C(24, 12) = 2704156 deletion patterns; the refusal must not enumerate them.
    supersequences = sum(math.comb(24, i) for i in range(13))
    start = time.perf_counter()
    with pytest.raises(
        ValueError, match=f"search cost {2**24 * 2704156 * supersequences} exceeds budget 100000000"
    ):
        extremal_search(24, 2, 12, "exactly", M)
    assert time.perf_counter() - start < 1.0


def test_default_budget_admits_what_the_index_scan_runs_fast():
    # 2^11 words * 55 outputs * 67 supersequences, about 7.5M; the all-pairs
    # price of 2^22 * 55 refused this sub-second search.
    res = extremal_search(11, 2, 2, "exactly", M)
    assert res.n_max_confusable == max(adjacent_singleton_channels(11, 2, a) for a in range(1, 11)) - 1


def test_larger_alphabet_extremal_matches_binary_maximum():
    # The q-ary maximum equals the binary one and binary pairs attain it.
    # The q-ary scan starts from the binary maximum, so a lower q-ary
    # maximum would show as no attaining pair rather than as a lower count.
    cases = [(4, 3, 1, M)] + [
        (n, q, t, model)
        for n, q in ((7, 3), (8, 3), (6, 4))
        for t in (1, 2)
        for model in (M, NM)
    ]
    for n, q, t, model in cases:
        binary = extremal_search(n, 2, t, "exactly", model)
        qary = extremal_search(n, q, t, "exactly", model, budget=2**31)
        assert qary.n_max_confusable == binary.n_max_confusable, (n, q, t, model)
        assert qary.pairs
        binary_pairs = {(a.text, b.text) for a, b in binary.pairs}
        assert binary_pairs <= {(a.text, b.text) for a, b in qary.pairs}


def test_large_alphabet_counts_are_pinned_and_fast():
    # Recorded with the scan that visited every word.  The relabelling group
    # has 2 * q! elements, 10,080 at q = 7, against 2,401 words at n = 4: a
    # table of every element's image of every word would take seconds.  The
    # four searches took 0.11-0.18 s together on a 2-vCPU VM before the
    # orbit scan; the bound is twice the slower figure.
    pins = [((4, 7), M, 3, 42), ((4, 7), TR, 2, 3402), ((3, 8), M, 2, 532), ((3, 8), TR, 2, 476)]
    elapsed = 0.0
    for (n, q), model, best, count in pins:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            res = extremal_search(n, q, 1, "exactly", model)
            times.append(time.perf_counter() - start)
        elapsed += min(times)
        assert (res.n_max_confusable, len(res.pairs)) == (best, count), (n, q, model)
    assert elapsed < 0.35


def test_outputs_are_enumerated_once_per_orbit(monkeypatch):
    # Reversal x complement orbits of the binary words of length 8, by brute force.
    n = 8
    words = ["".join(w) for w in itertools.product("01", repeat=n)]
    flip = str.maketrans("01", "10")
    orbits = {min(w, w[::-1], w.translate(flip), w[::-1].translate(flip)) for w in words}
    assert len(orbits) == 72
    calls = Counter()
    keep_getters = oracle._keep_getters

    def counted(*args):
        def count(getter, k):
            def call(x):
                calls[k] += 1
                return getter(x)
            return call
        return [count(getter, k) for k, getter in enumerate(keep_getters(*args))]

    monkeypatch.setattr(oracle, "_keep_getters", counted)
    res = extremal_search(n, 2, 2, "exactly", M)
    assert res.n_max_confusable == max(adjacent_singleton_channels(n, 2, a) for a in range(1, n)) - 1
    assert len(calls) == math.comb(n, 2)
    assert set(calls.values()) == {len(orbits)}


@pytest.mark.parametrize("canonical", [False, True])
def test_result_words_are_wrapped_once(canonical):
    res = extremal_search(3, 5, 2, "exactly", M, canonical=canonical)
    assert res.pairs and res.indistinguishable
    shared = {}
    for pair in res.pairs + res.indistinguishable:
        for word in pair:
            assert shared.setdefault(word.raw, word) is word
    assert type(res.pairs[0][0]) is Word
    uses = Counter(word.raw for pair in res.pairs for word in pair)
    assert max(uses.values()) > 1
    if not canonical:
        assert {w.raw for pair in res.pairs for w in pair} & {w.raw for pair in res.indistinguishable for w in pair}


def test_parallel_scan_agrees_with_serial():
    serial = extremal_search(5, 2, 1, "exactly", M)
    parallel = extremal_search(5, 2, 1, "exactly", M, jobs=2)
    assert serial.n_max_confusable == parallel.n_max_confusable
    assert {(a.text, b.text) for a, b in serial.pairs} == {
        (a.text, b.text) for a, b in parallel.pairs
    }


def test_words_and_results_copy_and_pickle():
    x, xp = Word.parse("0101", 2), Word.parse("1010", 2)
    report = confusable_max(x, xp, 1, "exactly", M, want_witness=True)
    assert report.witness is not None
    values = [
        Word.parse("0120", 4),
        Word.parse("11,0,3", 12),
        transmit_all(Word.parse("0110", 2), 1, "at_most", M),
        report,
        extremal_search(5, 2, 1, "exactly", M),
    ]
    for value in values:
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    # A result crosses a process boundary by pickle.
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(extremal_search, 5, 2, 1, "exactly", M).result() == values[-1]


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


def all_pairs_reference(n, q, t, mode, model):
    """The plain scan over every word pair, in (i, j) order.

    Returns (n_max, pairs, indistinguishable, searched_pairs) as texts.
    """
    words = [Word(s, q) for s in itertools.product(range(q), repeat=n)]
    weights = range(t + 1) if mode == "at_most" else (t,)
    cuts = [set(c) for w in weights for c in itertools.combinations(range(n), w)]
    outs = [
        Counter(tuple(s for k, s in enumerate(x.symbols) if k not in cut) for cut in cuts)
        for x in words
    ]
    best, pairs, never = 0, [], []  # 0 with no pairs when none is distinguishable
    for i, j in itertools.combinations(range(len(words)), 2):
        oi, oj = outs[i], outs[j]
        common = [y for y in oi if y in oj]
        if model is M:
            val = sum(min(oi[y], oj[y]) for y in common)
            same = oi == oj
        elif model is NM:
            val = min(sum(oi[y] for y in common), sum(oj[y] for y in common))
            same = oi.keys() == oj.keys()
        else:
            val = len(common)
            same = oi.keys() == oj.keys()
        pair = (words[i].text, words[j].text)
        if same:
            never.append(pair)
        elif val > best:
            best, pairs = val, [pair]
        elif val == best:
            pairs.append(pair)
    return best, pairs, never, math.comb(len(words), 2)


# (2, 7, 6) and (2, 7, 7) have at-most totals of 127 and 128, the largest
# that fits 8-bit lanes and the smallest that needs 16-bit ones.
EQUIVALENCE_CASES = (
    [(2, n, t) for n in range(2, 7) for t in range(n + 1)]
    + [(3, 4, t) for t in range(3)]
    + [(2, 7, 6), (2, 7, 7), (3, 5, 2)]
    + [(4, 3, t) for t in range(1, 4)]
    # Palindromes and self-complementary words have orbits smaller than the
    # group; at q = 4, n = 4 and q = 5, n = 3 the group outnumbers the words.
    # At q = 11 the raw symbols run past "9".
    + [(4, 4, 1), (4, 4, 2), (5, 3, 1), (5, 3, 2), (11, 2, 1)]
)


@pytest.mark.parametrize("q,n,t", EQUIVALENCE_CASES)
def test_extremal_search_matches_all_pairs_reference(q, n, t):
    for mode in ("exactly", "at_most"):
        for model in (TR, M, NM):
            res = extremal_search(n, q, t, mode, model)
            got = (
                res.n_max_confusable,
                [(a.text, b.text) for a, b in res.pairs],
                [(a.text, b.text) for a, b in res.indistinguishable],
                res.searched_pairs,
            )
            assert got == all_pairs_reference(n, q, t, mode, model), (mode, model)
            if t == 0:  # no pair shares an output: every pair attains count 0
                assert got[0] == 0 and len(got[1]) == got[3]
            if t == n and mode == "exactly":  # every word yields only the empty output
                assert got[:2] == (0, []) and len(got[2]) == got[3]


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("t", [1, 2])
def test_optimal_counts_beyond_n10(n, t):
    for mode in ("exactly", "at_most"):
        res = extremal_search(n, 2, t, mode, NM, budget=2**31)
        assert res.n_max_confusable + 1 == pattern_bound(n, t, mode), mode
    res = extremal_search(n, 2, t, "exactly", M, budget=2**31)
    best_adjacent = max(adjacent_singleton_channels(n, t, a) for a in range(1, n))
    assert res.n_max_confusable == best_adjacent - 1


def test_optimal_counts_at_n13_three_deletions():
    # The paper's t = 3 counts at n = 13, exactly three deletions: 267
    # non-multiset channels and 211 multiset ones still leave a pair
    # confusable.
    n, t = 13, 3
    res = extremal_search(n, 2, t, "exactly", NM, budget=2**31)
    assert res.n_max_confusable + 1 == pattern_bound(n, t, "exactly") == 267
    res = extremal_search(n, 2, t, "exactly", M, budget=2**31)
    best_adjacent = max(adjacent_singleton_channels(n, t, a) for a in range(1, n))
    assert res.n_max_confusable == best_adjacent - 1 == 211


def test_optimal_counts_at_n14_three_deletions():
    # The paper's t = 3 counts at n = 14, exactly three deletions: 344
    # non-multiset channels and 274 multiset ones still leave a pair
    # confusable.
    n, t = 14, 3
    res = extremal_search(n, 2, t, "exactly", NM, budget=2**32)
    assert res.n_max_confusable + 1 == pattern_bound(n, t, "exactly") == 345
    res = extremal_search(n, 2, t, "exactly", M, budget=2**32)
    best_adjacent = max(adjacent_singleton_channels(n, t, a) for a in range(1, n))
    assert res.n_max_confusable == best_adjacent - 1 == 274
