"""Closed-form channel-count bounds and expectation formulas.

Every bound returns an exact integer computed with big-integer binomials.
Each function validates the hypotheses under which its formula is known to
hold and refuses out-of-domain calls rather than extrapolate.  The
expectation helpers are the only floating-point surface.

Binomial sums are summed from words._ratio_terms (see words.py); V_2(n, t),
the sum of C(n, i) over i <= t, is the sum of _ball_terms(2, n, t).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .patterns import check_mode
from .words import _ball_terms, _ratio_terms

EULER_GAMMA = 0.5772156649015328606065120900824024


def levenshtein_deletion_bound(n: int, t: int) -> int:
    """Minimal channel count guaranteeing unique reconstruction of any binary
    word under exactly t deletions in the traditional model."""
    if not 1 <= t <= n - 2:
        raise ValueError(f"requires 1 <= t <= n-2, got t={t}, n={n}")
    return 2 * sum(_ball_terms(2, n - t - 1, t - 1)) + 1


def levenshtein_insertion_bound(n: int, q: int, t: int) -> int:
    """Minimal channel count for unique reconstruction of any q-ary word under
    exactly t insertions in the traditional model."""
    if t < 1:
        raise ValueError(f"requires t >= 1, got {t}")
    if q < 2 or n < 1:
        raise ValueError("requires q >= 2 and n >= 1")
    # The sum of C(n+t, i) (q-1)^i (1 - (-1)^(t-i)) over i < t: only the
    # terms with t - i odd are nonzero, and each is twice C(n+t, i) (q-1)^i.
    m, r = n + t, (q - 1) ** 2
    start = (t - 1) % 2
    ratios = (((m - i) * (m - i - 1) * r, (i + 1) * (i + 2)) for i in range(start, t - 2, 2))
    return 2 * sum(_ratio_terms(math.comb(m, start) * (q - 1) ** start, ratios)) + 1


def pattern_bound(n: int, t: int, mode: str) -> int:
    """Channels sufficient for unique reconstruction under unique deletion
    patterns, in both the multiset and non-multiset models (tight for the
    non-multiset model)."""
    mode = check_mode(mode)
    if t < 1 or n < 2 * t + 2:
        raise ValueError(f"requires t >= 1 and n >= 2t+2, got t={t}, n={n}")
    half = (n + 1) // 2 - 1
    if mode == "at_most":
        return sum(_ball_terms(2, n, t)) - sum(_ball_terms(2, half, t)) + 1
    return math.comb(n, t) - math.comb(half, t) + 1


def multiset_t1_threshold(n: int) -> int:
    """Largest channel count that still leaves two words confusable in the
    multiset model at t = 1, i.e. V_2(n,1) - V_2(ceil(n/2)-1, 1).

    Equals floor(n/2) + 1; one more channel forces unique reconstruction.
    """
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
    return sum(_ball_terms(2, n, 1)) - sum(_ball_terms(2, (n + 1) // 2 - 1, 1))


def adjacent_singleton_channels(n: int, t: int, a: int) -> int:
    """Exact minimal channels distinguishing the two weight-one words with
    their nonzero symbol at positions a and a+1, multiset model, exactly t
    deletions.  One fewer channel is not enough."""
    if t < 1 or n < t + 1:
        raise ValueError(f"requires t >= 1 and n >= t+1, got t={t}, n={n}")
    if not 1 <= a <= n - 1:
        raise ValueError(f"requires 1 <= a <= n-1, got a={a}")
    k = (a * t + a) // n
    return math.comb(n, t) - math.comb(a - 1, k) * math.comb(n - a - 1, t - k) + 1


def cumulative_half_bound(n: int, t: int) -> int:
    """Exact channels distinguishing the two centred weight-one words under at
    most t deletions, multiset model, even n."""
    if n % 2:
        raise ValueError(f"requires even n, got {n}")
    if t < 2 or n < 2 * t + 2:
        raise ValueError(f"requires t >= 2 and n >= 2t+2, got t={t}, n={n}")
    half = n // 2 - 1
    # Term i is C(half, floor(i/2)) C(half, ceil(i/2)); either step from i
    # to i + 1 raises one of the two lower indices from k = floor(i/2).
    crossing = sum(_ratio_terms(1, ((half - i // 2, i // 2 + 1) for i in range(t))))
    return sum(_ball_terms(2, n, t)) - crossing + 1


def weight_gap_confusable(n: int, w1: int, b: int, t: int) -> int:
    """Maximum channels on which two binary words whose weights differ by b
    can yield identical output multisets under exactly t deletions.

    Attained by the sorted words 1^w1 0^(n-w1) and 1^(w1-b) 0^(n-w1+b).
    """
    if b < 1 or b > t:
        raise ValueError(f"requires 1 <= b <= t, got b={b}, t={t}")
    if not b <= w1 <= n or t > n:
        raise ValueError(f"requires b <= w1 <= n and t <= n, got w1={w1}, n={n}, t={t}")
    # The sum over b <= i <= t of min(C(w1, i) C(n-w1, t-i),
    # C(w1-b, i-b) C(n-w1+b, t+b-i)); both products are nonzero exactly for
    # lo <= i <= hi, and the checks above give lo <= hi.
    z = n - w1
    lo, hi = max(b, t - z), min(t, w1)
    steps = range(lo, hi)
    first = _ratio_terms(
        math.comb(w1, lo) * math.comb(z, t - lo),
        (((w1 - i) * (t - i), (i + 1) * (z - t + i + 1)) for i in steps),
    )
    second = _ratio_terms(
        math.comb(w1 - b, lo - b) * math.comb(z + b, t + b - lo),
        (((w1 - i) * (t + b - i), (i - b + 1) * (z - t + i + 1)) for i in steps),
    )
    return sum(map(min, first, second))


def binom_ratio(n: int, t: int) -> Fraction:
    """C(n/2-1, t/2)^2 / C(n/2-1, t) as an exact rational (n, t even)."""
    if n % 2 or t % 2:
        raise ValueError(f"requires even n and t, got n={n}, t={t}")
    if t < 2 or n < 2 * t + 2:
        raise ValueError(f"requires t >= 2 and n >= 2t+2, got t={t}, n={n}")
    half = n // 2 - 1
    return Fraction(math.comb(half, t // 2) ** 2, math.comb(half, t))


def binom_ratio_limit(t: int) -> int:
    """Large-n limit of binom_ratio: the central binomial C(t, t/2)."""
    if t % 2 or t < 2:
        raise ValueError(f"requires even t >= 2, got {t}")
    return math.comb(t, t // 2)


def _check_float_range(name: str, value: int) -> None:
    """Refuse an integer argument that has no float value."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} exceeds the float range (about {sys.float_info.max:.3g})") from None


def harmonic_number(m: int) -> float:
    """m-th harmonic number; exact summation up to 10^6, asymptotic above.

    The asymptotic terms divide integers, so any m is accepted."""
    if m < 0:
        raise ValueError(f"requires m >= 0, got {m}")
    if m <= 1_000_000:
        return math.fsum(1.0 / k for k in range(1, m + 1))
    return (
        math.log(m)
        + EULER_GAMMA
        + 1 / (2 * m)
        - 1 / (12 * m * m)
        + 1 / (120 * m**4)
    )


def pccp_expectation(j: int, m: int) -> float:
    """Expected draws (with replacement, m equally likely patterns) until j
    distinct patterns have been seen: m * (H_m - H_{m-j}).

    Relative error near machine precision for every 1 <= j <= m, at a cost of
    at most 10^6 terms.  Refuses an m beyond the float range and a result
    beyond it.
    """
    if not 1 <= j <= m:
        raise ValueError(f"requires 1 <= j <= m, got j={j}, m={m}")
    _check_float_range("m", m)
    k = m - j
    if j <= 1_000_000:
        # The tail sum costs O(j) and cancels nothing.
        value = m * math.fsum(1.0 / i for i in range(k + 1, m + 1))
    elif k <= 1_000_000:
        # j > k here, so m > 2k and H_m - H_k >= ln 2: little cancellation.
        value = m * (harmonic_number(m) - harmonic_number(k))
    else:
        # H_m - H_k from the asymptotic series of each, taken as one difference:
        # ln(m/k) - j/(2mk) + j(m+k)/(12 m^2 k^2); the next term is below 1/k^4.
        log_ratio = -math.log1p(-j / m) if 2 * j <= m else math.log(m / k)
        value = m * (log_ratio - j / (2 * m * k) + j * (m + k) / (12 * (m * k) ** 2))
    if math.isinf(value):
        raise ValueError("the expectation exceeds the float range")
    return value


def expected_unique_patterns(m: int, n_channels: int) -> float:
    """Expected number of distinct patterns across n_channels uniform draws
    from m patterns: m * (1 - ((m-1)/m)^N)."""
    if m < 1 or n_channels < 0:
        raise ValueError(f"requires m >= 1 and N >= 0, got m={m}, N={n_channels}")
    _check_float_range("m", m)
    _check_float_range("N", n_channels)
    if m == 1:
        return 0.0 if n_channels == 0 else 1.0
    return m * -math.expm1(n_channels * math.log1p(-1.0 / m))
