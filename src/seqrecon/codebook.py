"""The frequency-restricted code used by the streaming decoder.

A word of Z_q^n belongs to the code when its two most common symbols together
occupy fewer than ceil((p-1)n/p) positions, with p = 2^4/e by default.  The
threshold is computed with exact rational arithmetic (e as a 50+ digit
rational) so the ceiling never flips from rounding.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .words import Word, _ratio_terms, alphabet, symbol_counts

# e = sum 1/k!; 45 terms give ~56 correct decimal digits, far beyond what any
# ceiling near an integer boundary can distinguish for n up to 10^6.
_E = sum(Fraction(1, math.factorial(k)) for k in range(45))
DEFAULT_RARITY = Fraction(16, 1) / _E  # 2^4 / e


@dataclass(frozen=True)
class CodeParams:
    """Alphabet, length and the frequency parameter p (default 2^4/e).  p
    is stored as a Fraction and may be given as anything Fraction accepts,
    such as the text "13/2"."""

    q: int
    n: int
    p: Fraction | str | None = None

    def __post_init__(self):
        if self.q < 4:
            raise ValueError(f"the code requires q >= 4, got q={self.q}")
        if self.n < 1:
            raise ValueError(f"requires n >= 1, got {self.n}")
        if self.p is not None:
            try:
                object.__setattr__(self, "p", Fraction(self.p))
            except ZeroDivisionError:
                raise ValueError(f"p={self.p} has a zero denominator") from None
            if self.p <= 1:
                raise ValueError("p must exceed 1")

    @property
    def rarity(self) -> Fraction:
        return self.p if self.p is not None else DEFAULT_RARITY


@functools.lru_cache(maxsize=256)
def top_two_threshold(params: CodeParams) -> int:
    """ceil((p-1) * n / p): a word is excluded when its two most common
    symbols together reach this many positions.  Cached per (q, n, p):
    run_sim asks for it on every call, and the exact arithmetic on the
    default p's 50-digit rational costs several times the cache lookup."""
    p = params.rarity
    return math.ceil((p - 1) * params.n / p)


def is_codeword(w: Word, params: CodeParams) -> bool:
    """Membership test: top-two symbol counts must sum below the threshold."""
    if w.q != params.q or len(w) != params.n:
        raise ValueError(f"word has (q={w.q}, n={len(w)}), code expects (q={params.q}, n={params.n})")
    return _top_two(symbol_counts(w.raw, alphabet(params.q))) < top_two_threshold(params)


def _top_two(counts: tuple[int, ...]) -> int:
    first, second = sorted(counts, reverse=True)[:2]
    return first + second


@functools.lru_cache(maxsize=16)
def excluded_count(params: CodeParams) -> int:
    """C(q,2) * sum_{i>=threshold} C(n,i) 2^i (q-2)^(n-i), exactly.

    Counts, per symbol pair, the words whose positions in that pair reach the
    threshold; words with several qualifying pairs are counted once per pair,
    so this can overcount the excluded words (it never undercounts).  Cached
    per (q, n, p), so code_size_lower_bound after it does not sum again.
    """
    q, n = params.q, params.n
    tau = top_two_threshold(params)
    # Term i + 1 is term i times 2(n-i) / ((i+1)(q-2)).
    first = math.comb(n, tau) * 2**tau * (q - 2) ** (n - tau)
    ratios = ((2 * (n - i), (i + 1) * (q - 2)) for i in range(tau, n))
    return math.comb(q, 2) * sum(_ratio_terms(first, ratios))


def code_size_lower_bound(params: CodeParams) -> int:
    """q^n minus the excluded-word overcount; a valid lower bound on |C|."""
    return params.q**params.n - excluded_count(params)


def third_symbol_floor(params: CodeParams) -> int:
    """Every codeword's third most common symbol occurs at least this often:
    ceil(n / ((q-2) p)), by pigeonhole on the non-top-two positions."""
    p = params.rarity
    return math.ceil(Fraction(params.n) / ((params.q - 2) * p))


def sample_raw_codeword(symbols: str, n: int, tau: int, rng: random.Random) -> str:
    """Uniform codeword in raw form via rejection sampling on membership.

    symbols is alphabet(q) and tau the code's top_two_threshold.  Each attempt
    is one rng.choices(symbols, k=n) call.
    """
    while True:
        x = "".join(rng.choices(symbols, k=n))
        if _top_two(symbol_counts(x, symbols)) < tau:
            return x


def sample_codeword(params: CodeParams, rng: random.Random) -> Word:
    """Uniform codeword via rejection sampling on membership."""
    symbols = alphabet(params.q)
    x = sample_raw_codeword(symbols, params.n, top_two_threshold(params), rng)
    return Word.from_raw(x, params.q)
