"""q-ary words and the elementary counting functions everything else builds on.

Symbols are integers in [0, q-1].  Coordinate positions are 1-based in every
public function that talks about positions.  The alphabet is carried around as
the plain integer q.

Hot paths (sampling, channel outputs, decoding) hold a word in one raw form: a
str in which symbol s is the character chr(48 + s).  For q <= 10 that is the
digit string Word.text prints ("0123"); above that it runs on past "9"
(":" is 10, ";" is 11) with no ceiling on q.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator

_OFFSET = 48  # ord("0"): symbol s is the character chr(_OFFSET + s)


def _to_raw(symbols: Iterable[int]) -> str:
    return "".join([chr(_OFFSET + s) for s in symbols])


class Word:
    """Immutable q-ary word.

    The text form is a digit string for q <= 10 ("11101") and a
    comma-separated list of integers for larger alphabets ("1,12,0").
    The empty word is valid and prints as "".
    """

    __slots__ = ("symbols", "q")

    def __init__(self, symbols: Iterable[int], q: int):
        if q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {q}")
        if isinstance(symbols, str):
            raise ValueError("symbols must be integers; use Word.parse for text")
        syms = tuple(symbols)
        for s in syms:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} outside alphabet [0, {q - 1}]")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def parse(cls, text: str, q: int) -> "Word":
        """Parse the text form for alphabet q (see class docstring)."""
        text = text.strip()
        if text == "":
            return cls((), q)
        if q <= 10 and "," not in text:
            try:
                syms = tuple(int(c) for c in text)
            except ValueError:
                raise ValueError(f"bad word text {text!r} for q={q}") from None
        else:
            syms = tuple(int(part) for part in text.split(","))
        return cls(syms, q)

    @classmethod
    def from_raw(cls, raw: str, q: int) -> "Word":
        """The word held in raw form (see the module docstring)."""
        return cls([ord(c) - _OFFSET for c in raw], q)

    @property
    def raw(self) -> str:
        return _to_raw(self.symbols)

    @property
    def text(self) -> str:
        if self.q <= 10:
            return self.raw
        return ",".join(map(str, self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.q == other.q
            and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.q))

    def __repr__(self) -> str:
        return f"Word({self.text!r}, q={self.q})"


def alphabet(q: int) -> str:
    """The q symbols in raw form, in symbol order."""
    return _to_raw(range(q))


def as_raw(y) -> str:
    """The raw form of a Word or of a sequence of symbol ints.  A str is taken
    to be in raw form already and comes back unchanged."""
    if isinstance(y, str):
        return y
    return _to_raw(y)


def symbol_counts(raw: str, symbols: str) -> tuple[int, ...]:
    """Occurrences of each symbol of the alphabet string `symbols` in raw.

    Raises ValueError when raw holds a character outside the alphabet.
    """
    found = Counter(raw)
    counts = tuple(map(found.__getitem__, symbols))
    if sum(counts) != len(raw):
        raise ValueError(f"output contains symbols outside the q={len(symbols)} alphabet")
    return counts


def support(w: Word) -> set[int]:
    """1-based positions of the nonzero symbols of w."""
    return {i + 1 for i, s in enumerate(w.symbols) if s != 0}


def weight(w: Word) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for s in w.symbols if s != 0)


def hamming_distance(w: Word, z: Word) -> int:
    """Number of coordinates where w and z differ (equal lengths required)."""
    if w.q != z.q:
        raise ValueError("alphabet mismatch")
    if len(w) != len(z):
        raise ValueError(f"length mismatch: {len(w)} vs {len(z)}")
    return sum(1 for a, b in zip(w.symbols, z.symbols) if a != b)


def hamming_ball_volume(q: int, n: int, t: int) -> int:
    """Number of words within Hamming distance t of a fixed word of length n.

    Exact integer: sum over i <= t of (q-1)^i * C(n, i).
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if not 0 <= t <= n:
        raise ValueError(f"radius t={t} outside [0, n={n}]")
    return sum((q - 1) ** i * math.comb(n, i) for i in range(t + 1))


def insertion_ball_volume(q: int, n: int, t: int) -> int:
    """Number of insertion vectors of total length <= t on a word of length n.

    Equals sum over i <= t of q^i * C(n+i, i) (stars and bars); independent of
    the word the insertions are applied to.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 0 or t < 0:
        raise ValueError("n and t must be non-negative")
    return sum(q**i * math.comb(n + i, i) for i in range(t + 1))
