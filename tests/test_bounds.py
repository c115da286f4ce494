import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from seqrecon import bounds


def test_levenshtein_deletion_bound_values():
    assert bounds.levenshtein_deletion_bound(4, 1) == 3
    assert bounds.levenshtein_deletion_bound(6, 1) == 3
    assert bounds.levenshtein_deletion_bound(8, 2) == 13


def test_levenshtein_deletion_bound_domain():
    with pytest.raises(ValueError):
        bounds.levenshtein_deletion_bound(4, 3)
    with pytest.raises(ValueError):
        bounds.levenshtein_deletion_bound(5, 0)


def test_levenshtein_insertion_bound_values():
    for n in (1, 5, 12):
        for q in (2, 4, 7):
            assert bounds.levenshtein_insertion_bound(n, q, 1) == 3
    assert bounds.levenshtein_insertion_bound(3, 2, 2) == 11
    assert bounds.levenshtein_insertion_bound(4, 4, 2) == 37
    with pytest.raises(ValueError):
        bounds.levenshtein_insertion_bound(3, 2, 0)


def test_pattern_bound_values():
    assert bounds.pattern_bound(6, 1, "at_most") == 5
    assert bounds.pattern_bound(6, 1, "exactly") == 5
    assert bounds.pattern_bound(8, 2, "exactly") == 26
    assert bounds.pattern_bound(6, 1, "at-most") == 5  # dash alias
    with pytest.raises(ValueError):
        bounds.pattern_bound(5, 2, "exactly")


def test_multiset_t1_threshold_values():
    assert bounds.multiset_t1_threshold(4) == 3
    assert bounds.multiset_t1_threshold(6) == 4
    # odd lengths: the still-ambiguous count is floor(n/2)+1, one below the
    # guaranteed-unique channel number
    assert bounds.multiset_t1_threshold(7) == 4


def test_t1_threshold_sits_one_below_pattern_bound():
    for n in range(4, 26):
        assert bounds.multiset_t1_threshold(n) + 1 == bounds.pattern_bound(n, 1, "at_most")


def test_adjacent_singleton_channels_values():
    assert bounds.adjacent_singleton_channels(6, 1, 3) == 5
    assert bounds.adjacent_singleton_channels(6, 2, 2) == 13
    assert bounds.adjacent_singleton_channels(8, 2, 4) == 20
    with pytest.raises(ValueError):
        bounds.adjacent_singleton_channels(6, 1, 6)
    with pytest.raises(ValueError):
        bounds.adjacent_singleton_channels(3, 3, 1)


def test_adjacent_never_exceeds_pattern_bound():
    for n in range(6, 11):
        for t in (1, 2):
            if n < 2 * t + 2:
                continue
            cap = bounds.pattern_bound(n, t, "exactly")
            for a in range(1, n):
                assert bounds.adjacent_singleton_channels(n, t, a) <= cap


def test_cumulative_half_bound_values():
    assert bounds.cumulative_half_bound(8, 2) == 25
    assert bounds.cumulative_half_bound(6, 2) == 16
    assert bounds.cumulative_half_bound(12, 2) == 49
    with pytest.raises(ValueError):
        bounds.cumulative_half_bound(9, 2)
    with pytest.raises(ValueError):
        bounds.cumulative_half_bound(8, 4)


def test_cumulative_half_bound_quadratic_form_at_t2():
    for n in range(6, 31, 2):
        assert bounds.cumulative_half_bound(n, 2) == n**2 // 4 + n + 1


def test_cumulative_gap_between_extremal_pair_families():
    # at t=2 and n=6h the off-centre adjacent pair needs n^2/36 - n/6 more
    # channels than the centred pair under the at-most model
    t = 2
    for h in range(2, 7):
        n = 6 * h
        a = 2 * h
        adjacent_cumulative = 1 + sum(
            bounds.adjacent_singleton_channels(n, i, a) - 1 for i in range(1, t + 1)
        )
        gap = adjacent_cumulative - bounds.cumulative_half_bound(n, t)
        assert gap == n**2 // 36 - n // 6


def test_weight_gap_confusable_values():
    assert bounds.weight_gap_confusable(4, 2, 1, 1) == 2
    assert bounds.weight_gap_confusable(6, 3, 1, 2) == 9
    with pytest.raises(ValueError):
        bounds.weight_gap_confusable(6, 3, 3, 2)  # gap exceeds deletions



def _term_by_term(name, *args):
    """The bound as the sum of math.comb products that defines it."""
    c = math.comb
    if name == "levenshtein_deletion_bound":
        n, t = args
        return 2 * sum(c(n - t - 1, i) for i in range(t)) + 1
    if name == "levenshtein_insertion_bound":
        n, q, t = args
        return sum(c(n + t, i) * (q - 1) ** i * (1 - (-1) ** (t - i)) for i in range(t)) + 1
    if name == "pattern_bound":
        n, t, mode = args
        half = (n + 1) // 2 - 1
        if mode == "at_most":
            return sum(c(n, i) - c(half, i) for i in range(t + 1)) + 1
        return c(n, t) - c(half, t) + 1
    if name == "cumulative_half_bound":
        n, t = args
        half = n // 2 - 1
        crossing = sum(c(half, i // 2) * c(half, (i + 1) // 2) for i in range(t + 1))
        return sum(c(n, i) for i in range(t + 1)) - crossing + 1
    n, w1, b, t = args
    return sum(
        min(c(w1, i) * c(n - w1, t - i), c(w1 - b, i - b) * c(n - w1 + b, t + b - i))
        for i in range(b, t + 1)
    )


def test_bound_sums_equal_their_term_by_term_definitions():
    # Each sum steps from term to term by a ratio of small integers; it must
    # equal the sum of the binomials it stands for, over the whole domain.
    checked = 0
    for n in range(2, 31):
        for t in range(1, n + 1):
            cases = [("levenshtein_insertion_bound", n, q, t) for q in (2, 3, 4, 13)]
            if t <= n - 2:
                cases.append(("levenshtein_deletion_bound", n, t))
            if n >= 2 * t + 2:
                cases += [("pattern_bound", n, t, mode) for mode in ("exactly", "at_most")]
                if n % 2 == 0 and t >= 2:
                    cases.append(("cumulative_half_bound", n, t))
            cases += [
                ("weight_gap_confusable", n, w1, b, t)
                for w1 in range(1, n + 1)
                for b in range(1, min(t, w1) + 1)
            ]
            for name, *args in cases:
                assert getattr(bounds, name)(*args) == _term_by_term(name, *args), (name, args)
                checked += 1
    assert checked > 20000


_PRIME = 2**61 - 1


def _binomials_mod_prime(top):
    """C(m, k) mod _PRIME for 0 <= m <= top, from factorial tables."""
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % _PRIME
    inv = [1] * (top + 1)
    inv[top] = pow(fact[top], _PRIME - 2, _PRIME)
    for i in range(top, 0, -1):
        inv[i - 1] = inv[i] * i % _PRIME
    return lambda m, k: fact[m] * inv[k] * inv[m - k] % _PRIME if 0 <= k <= m else 0


def _large_pattern_at_most(c):
    n, t, half = 200000, 50000, 99999
    return sum(c(n, i) - c(half, i) for i in range(t + 1)) + 1


def _large_levenshtein_insertion(c):
    n, q, t = 100000, 4, 30000
    return sum(2 * c(n + t, i) * pow(q - 1, i, _PRIME) for i in range(t) if (t - i) % 2) + 1


def _large_weight_gap(c):
    # At b = 1 the first product over the second is w1 (t-i+1) / (i (n-w1+1)),
    # so the smaller one is known without computing either.
    n, w1, t = 100000, 50000, 20000
    z = n - w1
    return sum(
        c(w1, i) * c(z, t - i) if w1 * (t - i + 1) <= i * (z + 1) else c(w1 - 1, i - 1) * c(z + 1, t + 1 - i)
        for i in range(1, t + 1)
    )


@pytest.mark.parametrize(
    "argv, reference",
    [
        ("pattern --n 200000 --t 50000 --mode at-most", _large_pattern_at_most),
        ("levenshtein-insertion --n 100000 --q 4 --t 30000", _large_levenshtein_insertion),
        ("weight-gap --n 100000 --w1 50000 --b 1 --t 20000", _large_weight_gap),
    ],
    ids=["pattern", "levenshtein-insertion", "weight-gap"],
)
def test_large_bound_sums_finish_exactly(argv, reference):
    # Each ran past 20 s when every term was its own math.comb; the results
    # have 20,000 to 49,000 digits.  The value is checked modulo a prime.
    proc = subprocess.run(
        [sys.executable, "-m", "seqrecon", "bounds", *argv.split()],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = json.loads(proc.stdout)["value"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert value % _PRIME == reference(_binomials_mod_prime(200000)) % _PRIME


def test_binom_ratio_values():
    assert bounds.binom_ratio(20, 2) == Fraction(81, 36)
    assert float(bounds.binom_ratio(20, 2)) == 2.25
    assert bounds.binom_ratio_limit(2) == 2
    assert bounds.binom_ratio_limit(4) == 6
    assert abs(float(bounds.binom_ratio(1000, 2)) / 2 - 1) < 0.005
    with pytest.raises(ValueError):
        bounds.binom_ratio(21, 2)
    with pytest.raises(ValueError):
        bounds.binom_ratio(20, 3)


def test_binom_ratio_decreases_towards_limit():
    last = None
    for n in range(14, 200, 2):
        value = bounds.binom_ratio(n, 4)
        assert value >= bounds.binom_ratio_limit(4)
        if last is not None:
            assert value <= last
        last = value


def test_harmonic_number():
    assert bounds.harmonic_number(0) == 0.0
    assert bounds.harmonic_number(1) == 1.0
    assert abs(bounds.harmonic_number(4) - 25 / 12) < 1e-12
    # asymptotic branch stays continuous with the exact one
    exact = bounds.harmonic_number(1_000_000)
    assert abs(exact - (math.log(1_000_001) + bounds.EULER_GAMMA)) < 1e-6


def test_pccp_expectation():
    assert bounds.pccp_expectation(1, 2) == 1.0
    assert abs(bounds.pccp_expectation(2, 2) - 3.0) < 1e-12  # 2*(H2-H0)
    with pytest.raises(ValueError):
        bounds.pccp_expectation(3, 2)


def test_pccp_expectation_exact_at_large_m():
    for j, m in ((3, 10**12), (1, 10**7 + 5), (5, 10**9)):
        exact = m * sum(Fraction(1, i) for i in range(m - j + 1, m + 1))
        got = bounds.pccp_expectation(j, m)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact, (j, m, got)


def _harmonic_50_digits(n: int) -> Decimal:
    """H_n for n > 10^5 from its asymptotic series, to about 50 digits."""
    gamma = Decimal("0.57721566490153286060651209008240243104215933593992")
    d = Decimal(n)
    return d.ln() + gamma + 1 / (2 * d) - 1 / (12 * d**2) + 1 / (120 * d**4) - 1 / (252 * d**6)


def test_pccp_expectation_precise_beyond_a_million_draws():
    # Each case takes another path for j > 10^6: m - j = 0, m - j <= 10^6,
    # j <= m/2 and j > m/2.
    cases = ((10**8, 10**8), (3 * 10**6, 3 * 10**6 + 999_999), (2 * 10**6, 10**12), (10**12 - 10**7, 10**12))
    with localcontext() as ctx:
        ctx.prec = 50
        for j, m in cases:
            rest = _harmonic_50_digits(m - j) if m > j else 0
            ref = Decimal(m) * (_harmonic_50_digits(m) - rest)
            got = bounds.pccp_expectation(j, m)
            assert abs(Decimal(got) - ref) <= ref * Decimal("1e-12"), (j, m, got)


def test_pccp_expectation_time_is_bounded():
    start = time.perf_counter()
    bounds.pccp_expectation(10**8, 10**8)
    assert time.perf_counter() - start < 0.5


def test_expectations_beyond_the_float_range():
    # Integer arguments with no float value, and results with none, are
    # refused; huge arguments with a float result are evaluated.
    assert abs(bounds.harmonic_number(10**200) - (200 * math.log(10) + bounds.EULER_GAMMA)) < 1e-9
    got = bounds.pccp_expectation(10**200, 10**200)
    assert abs(got / 10**200 - bounds.harmonic_number(10**200)) < 1e-9
    for call in (
        lambda: bounds.pccp_expectation(1, 10**400),
        lambda: bounds.pccp_expectation(10**307, 10**307),
        lambda: bounds.expected_unique_patterns(10**400, 5),
        lambda: bounds.expected_unique_patterns(5, 10**400),
    ):
        with pytest.raises(ValueError, match="float range"):
            call()


def test_expected_unique_patterns():
    assert bounds.expected_unique_patterns(17, 0) == 0.0
    assert abs(bounds.expected_unique_patterns(17, 1) - 1.0) < 1e-12
    value = bounds.expected_unique_patterns(166751, 100)
    assert 99.9 <= value <= 100.0
    with pytest.raises(ValueError):
        bounds.expected_unique_patterns(0, 5)


def test_expected_unique_monotone_saturating():
    m = 56
    prev = 0.0
    for N in (1, 5, 20, 100, 1000):
        val = bounds.expected_unique_patterns(m, N)
        assert prev < val < m
        prev = val
