"""q-ary words and the elementary counting functions everything else builds on.

Symbols are integers in [0, q-1].  Coordinate positions are 1-based in every
public function that talks about positions.  The alphabet is carried around as
the plain integer q.

Every word is held in one raw form: a str in which symbol s is the character
chr(48 + s).  For q <= 10 that is the digit string Word.text prints ("0123");
above that it runs on past "9" (":" is 10, ";" is 11) with no ceiling on q.
Word stores the raw form itself, so Word.raw and a Word's equality and hash
touch no per-symbol work; symbols are derived from it when asked for, and
symbol_counts, the one symbol counter, counts them in a checked raw form.

Every exact binomial sum of the package is summed from _ratio_terms: each
term comes from the one before by a ratio of small integers, in time linear
in its digits, where a math.comb per term costs far more at thousands of digits.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

_OFFSET = 48  # ord("0"): symbol s is the character chr(_OFFSET + s)


def _to_raw(symbols: Iterable[int]) -> str:
    return "".join([chr(_OFFSET + s) for s in symbols])


def _check_alphabet_size(q: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")


def _to_symbols(raw: str) -> tuple[int, ...]:
    return tuple([ord(c) - _OFFSET for c in raw])


def _ascii_symbols_only(text: str, q: int) -> bool:
    """Whether text is ASCII and holds only symbols of the q alphabet in raw
    form: one bytes pass that deletes them must leave nothing.  isascii()
    comes first because text read with surrogateescape may hold a lone
    surrogate, which cannot be encoded.  Above q = 79 some symbols are not
    ASCII, so a False here leaves the caller its per-symbol path."""
    return text.isascii() and not text.encode().translate(None, alphabet(q).encode())


class Word:
    """Immutable q-ary word, stored in raw form (see the module docstring).

    The text form is a digit string for q <= 10 ("11101") and a
    comma-separated list of integers for larger alphabets ("1,12,0").
    The empty word is valid and prints as "".
    """

    __slots__ = ("raw", "q")

    def __init__(self, symbols: Iterable[int], q: int):
        _check_alphabet_size(q)
        if isinstance(symbols, str):
            raise ValueError("symbols must be integers; use Word.parse for text")
        syms = tuple(symbols)
        for s in syms:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} outside alphabet [0, {q - 1}]")
        object.__setattr__(self, "raw", _to_raw(syms))
        object.__setattr__(self, "q", q)

    @classmethod
    def _of_raw(cls, raw: str, q: int) -> "Word":
        """Wrap a raw form already known to hold only alphabet symbols."""
        _check_alphabet_size(q)
        word = cls.__new__(cls)
        object.__setattr__(word, "raw", raw)
        object.__setattr__(word, "q", q)
        return word

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a Word through from_raw, not through __setattr__.
        return (Word.from_raw, (self.raw, self.q))

    @classmethod
    def parse(cls, text: str, q: int) -> "Word":
        """Parse the text form for alphabet q (see class docstring)."""
        text = text.strip()
        if text == "" or (q <= 10 and _ascii_symbols_only(text, q)):
            return cls._of_raw(text, q)  # empty, or only alphabet digits: the raw form
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
        if not _ascii_symbols_only(raw, q):
            return cls(_to_symbols(raw), q)  # raises on a symbol outside the alphabet
        return cls._of_raw(raw, q)

    @property
    def symbols(self) -> tuple[int, ...]:
        return _to_symbols(self.raw)

    @property
    def text(self) -> str:
        if self.q <= 10:
            return self.raw
        return ",".join(map(str, self))

    def __len__(self) -> int:
        return len(self.raw)

    def __iter__(self) -> Iterator[int]:
        return (ord(c) - _OFFSET for c in self.raw)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _to_symbols(self.raw[i])
        return ord(self.raw[i]) - _OFFSET

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.q == other.q and self.raw == other.raw

    def __hash__(self) -> int:
        return hash((self.raw, self.q))

    def __repr__(self) -> str:
        return f"Word({self.text!r}, q={self.q})"


@functools.lru_cache(maxsize=64)
def alphabet(q: int) -> str:
    """The q symbols in raw form, in symbol order."""
    return _to_raw(range(q))


def symbol_counts(raw: str, symbols: str) -> tuple[int, ...]:
    """Occurrences of each symbol of the alphabet string `symbols` in raw, a
    raw form already checked to hold only those symbols: one str.count pass
    per symbol but the last, whose count is what the length leaves."""
    head = tuple(map(raw.count, symbols[:-1]))
    return head + (len(raw) - sum(head),)


def support(w: Word) -> set[int]:
    """1-based positions of the nonzero symbols of w."""
    return {i + 1 for i, s in enumerate(w) if s != 0}


def weight(w: Word) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for s in w if s != 0)


def hamming_distance(w: Word, z: Word) -> int:
    """Number of coordinates where w and z differ (equal lengths required)."""
    if w.q != z.q:
        raise ValueError("alphabet mismatch")
    if len(w) != len(z):
        raise ValueError(f"length mismatch: {len(w)} vs {len(z)}")
    return sum(1 for a, b in zip(w.raw, z.raw) if a != b)


def _ratio_terms(first: int, ratios: Iterable[tuple[int, int]]) -> Iterator[int]:
    """first, then each next term as the one before times a over b, for the
    (a, b) of `ratios` in order.  Every term must be an integer, so the
    floor division is exact."""
    term = first
    yield term
    for a, b in ratios:
        term = term * a // b
        yield term


def _ball_terms(q: int, n: int, t: int) -> Iterator[int]:
    """(q-1)^i * C(n, i), the words at Hamming distance i, for i <= min(t, n)."""
    return _ratio_terms(1, (((q - 1) * (n - i), i + 1) for i in range(min(t, n))))


def _insertion_terms(q: int, n: int, t: int) -> Iterator[int]:
    """q^i * C(n+i, i), the insertion vectors of total length i, for i <= t."""
    return _ratio_terms(1, ((q * (n + i + 1), i + 1) for i in range(t)))


def hamming_ball_volume(q: int, n: int, t: int) -> int:
    """Number of words within Hamming distance t of a fixed word of length n.

    Exact integer: sum over i <= t of (q-1)^i * C(n, i).
    """
    _check_alphabet_size(q)
    if not 0 <= t <= n:
        raise ValueError(f"radius t={t} outside [0, n={n}]")
    return sum(_ball_terms(q, n, t))


def insertion_ball_volume(q: int, n: int, t: int) -> int:
    """Number of insertion vectors of total length <= t on a word of length n.

    Equals sum over i <= t of q^i * C(n+i, i) (stars and bars); independent of
    the word the insertions are applied to.
    """
    _check_alphabet_size(q)
    if n < 0 or t < 0:
        raise ValueError("n and t must be non-negative")
    return sum(_insertion_terms(q, n, t))
