import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqrecon.codebook import (
    DEFAULT_RARITY,
    CodeParams,
    code_size_lower_bound,
    excluded_count,
    is_codeword,
    sample_codeword,
    third_symbol_floor,
    top_two_threshold,
)
from seqrecon.words import Word


def brute_force_members(q, n, params=None):
    params = params or CodeParams(q=q, n=n)
    return [
        syms
        for syms in itertools.product(range(q), repeat=n)
        if is_codeword(Word(syms, q), params)
    ]


def test_threshold_values():
    assert top_two_threshold(CodeParams(q=4, n=10)) == 9
    assert top_two_threshold(CodeParams(q=4, n=100)) == 84
    assert top_two_threshold(CodeParams(q=6, n=10)) == 9


def test_membership_examples():
    p4 = CodeParams(q=4, n=10)
    assert not is_codeword(Word.parse("0000011112", 4), p4)  # 5+4 hits the threshold
    assert is_codeword(Word.parse("0001112223", 4), p4)
    p6 = CodeParams(q=6, n=10)
    assert is_codeword(Word.parse("1200321021", 6), p6)


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(q=3, n=10)
    with pytest.raises(ValueError, match="^requires n >= 1, got 0$"):
        CodeParams(q=4, n=0)
    with pytest.raises(ValueError):
        CodeParams(q=4, n=10, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        is_codeword(Word.parse("000", 4), CodeParams(q=4, n=10))


def excluded_reference(params):
    """The exclusion overcount as a plain math.comb sum."""
    q, n, tau = params.q, params.n, top_two_threshold(params)
    return math.comb(q, 2) * sum(math.comb(n, i) * 2**i * (q - 2) ** (n - i) for i in range(tau, n + 1))


def test_excluded_count_value():
    # q=4, n=10, threshold 9: 6 * (C(10,9) 2^9 2 + C(10,10) 2^10)
    assert excluded_count(CodeParams(q=4, n=10)) == 67584
    assert code_size_lower_bound(CodeParams(q=4, n=10)) == 4**10 - 67584
    # The threshold's extremes: 1 for p just above 1, n for p above n.
    for q in (4, 5, 8):
        for n, p, tau in [(10, "1001/1000", 1), (37, "1001/1000", 1), (10, "11", 10), (37, "38", 37)]:
            params = CodeParams(q=q, n=n, p=p)
            assert top_two_threshold(params) == tau
            assert excluded_count(params) == excluded_reference(params)


@pytest.mark.parametrize("q", [4, 5, 8])
def test_excluded_count_equals_its_binomial_sum_at_large_n(q):
    for n, p in [(1000, None), (3000, None), (5000, None), (2000, "3/2")]:
        params = CodeParams(q=q, n=n, p=p)
        assert excluded_count(params) == excluded_reference(params), (n, p)


@pytest.mark.parametrize("q,n", [(4, 6), (4, 8), (5, 6)])
def test_excluded_count_bounds_true_exclusion(q, n):
    params = CodeParams(q=q, n=n)
    members = len(brute_force_members(q, n, params))
    true_excluded = q**n - members
    # pair-counting can double count, never undercount
    assert excluded_count(params) >= true_excluded
    assert code_size_lower_bound(params) <= members


def test_lower_bound_positive_for_moderate_lengths():
    for n in range(16, 25):
        assert code_size_lower_bound(CodeParams(q=4, n=n)) > 0


def test_third_symbol_floor_values():
    assert third_symbol_floor(CodeParams(q=4, n=100)) == 9
    assert third_symbol_floor(CodeParams(q=4, n=10)) == 1


def test_third_symbol_floor_holds_exhaustively():
    params = CodeParams(q=4, n=8)
    floor = third_symbol_floor(params)
    for syms in brute_force_members(4, 8, params):
        counts = sorted(Counter(syms).values(), reverse=True)
        counts += [0] * (4 - len(counts))
        assert counts[2] >= floor
        assert counts[1] >= floor


@given(st.lists(st.integers(0, 3), min_size=10, max_size=10), st.permutations(range(4)))
def test_membership_invariant_under_symbol_permutation(symbols, perm):
    params = CodeParams(q=4, n=10)
    w = Word(symbols, 4)
    relabeled = Word([perm[s] for s in symbols], 4)
    assert is_codeword(w, params) == is_codeword(relabeled, params)


def test_sample_codeword_uniform_and_member():
    params = CodeParams(q=4, n=12)
    rng = random.Random(31)
    for _ in range(50):
        assert is_codeword(sample_codeword(params, rng), params)
    assert sample_codeword(params, random.Random(8)) == sample_codeword(params, random.Random(8))


def test_rarity_override_shifts_threshold():
    # larger p admits more words (higher threshold)
    default = CodeParams(q=4, n=40)
    bigger = CodeParams(q=4, n=40, p=Fraction(12))
    assert top_two_threshold(bigger) > top_two_threshold(default)
    assert code_size_lower_bound(bigger) > code_size_lower_bound(default)
    # p is stored exactly
    assert bigger.rarity == Fraction(12)


@pytest.mark.parametrize("p", [None, Fraction(3)])
def test_cached_threshold_equals_the_fraction_formula(p):
    # top_two_threshold is cached per (q, n, p); the first call and the
    # cached one both give the exact ceiling.
    rarity = DEFAULT_RARITY if p is None else p
    for n in range(1, 2001):
        expected = math.ceil((rarity - 1) * n / rarity)
        for q in (4, 7):
            assert top_two_threshold(CodeParams(q=q, n=n, p=p)) == expected
            assert top_two_threshold(CodeParams(q=q, n=n, p=p)) == expected
