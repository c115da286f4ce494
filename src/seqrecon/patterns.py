"""Error events for a single channel and how to apply and sample them.

Patterns are sampled, enumerated, counted and applied in one raw form, the
draw that PatternSampler.draw returns: the tuple (gaps, ins_symbols,
del_positions, sub_positions, sub_offsets) of 0-based positions and symbol
ints.  One body, PatternSampler.apply_draw, applies a draw to a word in raw
form (see words.py).  The pattern objects below are the validated, readable
form of the same event, built only where one is shown or read back (a
witness, a JSON record): pattern_to_draw and draw_to_pattern map between
the two, and apply_pattern maps a pattern to its draw and applies that.

A deletion vector is a binary mask over the n coordinates of the transmitted
word.  An insertion vector is an ordered tuple of n+1 (possibly empty) q-ary
words, one per gap of the transmitted word.  A substitution pattern maps
1-based positions to replacement symbols.  An error pattern combines the
three; deletions and substitutions address original coordinates only and may
not overlap, and inserted symbols are never deleted or substituted.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .words import Word, _ball_terms, _check_alphabet_size, _insertion_terms, alphabet, symbol_counts


def check_mode(mode: str) -> str:
    m = mode.replace("-", "_").lower()
    if m not in ("exactly", "at_most"):
        raise ValueError(f"mode must be 'exactly' or 'at_most', got {mode!r}")
    return m


def as_rng(seed: "int | str | random.Random | None") -> random.Random:
    """Accept a seed or an existing generator; None gives a fresh seeded-by-OS one."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


_MASK_TEXT = bytes.maketrans(b"\0\1", b"01")


@dataclass(frozen=True)
class DeletionVector:
    """Binary mask d over [1, n]; position i is deleted when d_i = 1."""

    mask: tuple[int, ...]

    def __post_init__(self):
        if not set(self.mask) <= {0, 1}:
            raise ValueError("deletion mask entries must be 0 or 1")

    @classmethod
    def from_positions(cls, n: int, positions: Sequence[int]) -> "DeletionVector":
        mask = [0] * n
        for p in positions:
            if not 1 <= p <= n:
                raise ValueError(f"position {p} outside [1, {n}]")
            mask[p - 1] = 1
        return cls(tuple(mask))

    @classmethod
    def parse(cls, text: str) -> "DeletionVector":
        return cls(tuple(int(c) for c in text))

    @property
    def weight(self) -> int:
        return sum(self.mask)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, b in enumerate(self.mask) if b)

    @property
    def text(self) -> str:
        return bytes(self.mask).translate(_MASK_TEXT).decode()


@dataclass(frozen=True)
class InsertionVector:
    """n+1 ordered part words; part i is inserted after original symbol i (0 = front)."""

    parts: tuple[tuple[int, ...], ...]

    @classmethod
    def empty(cls, n: int) -> "InsertionVector":
        return cls(((),) * (n + 1))

    @classmethod
    def from_texts(cls, texts: Sequence[str], q: int) -> "InsertionVector":
        return cls(tuple(Word.parse(t, q).symbols for t in texts))

    @property
    def total(self) -> int:
        return sum(len(p) for p in self.parts)

    def part_texts(self, q: int) -> list[str]:
        return [Word(p, q).text if p else "" for p in self.parts]


@dataclass(frozen=True)
class SubstitutionPattern:
    """Sorted (1-based position, new symbol) pairs; positions are distinct."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        positions = [p for p, _ in self.entries]
        if len(set(positions)) != len(positions):
            raise ValueError("substitution positions must be distinct")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> "SubstitutionPattern":
        return cls(tuple(sorted(mapping.items())))

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)


@dataclass(frozen=True)
class ErrorPattern:
    """One channel's combined insertion / deletion / substitution event."""

    insertion: InsertionVector
    deletion: DeletionVector
    substitution: SubstitutionPattern

    @classmethod
    def empty(cls, n: int) -> "ErrorPattern":
        return cls(InsertionVector.empty(n), DeletionVector((0,) * n), SubstitutionPattern(()))

    def validate(self, n: int, q: int) -> None:
        if len(self.deletion.mask) != n:
            raise ValueError(f"deletion mask length {len(self.deletion.mask)} != {n}")
        if len(self.insertion.parts) != n + 1:
            raise ValueError(f"insertion vector has {len(self.insertion.parts)} parts, expected {n + 1}")
        for part in self.insertion.parts:
            for s in part:
                if not 0 <= s < q:
                    raise ValueError(f"inserted symbol {s} outside alphabet [0, {q - 1}]")
        deleted = set(self.deletion.positions)
        for p, s in self.substitution.entries:
            if not 1 <= p <= n:
                raise ValueError(f"substitution position {p} outside [1, {n}]")
            if not 0 <= s < q:
                raise ValueError(f"substituted symbol {s} outside alphabet [0, {q - 1}]")
            if p in deleted:
                raise ValueError(f"position {p} both deleted and substituted")

    def to_obj(self, q: int) -> dict:
        return {
            "ins": self.insertion.part_texts(q),
            "del": self.deletion.text,
            "sub": {str(p): s for p, s in self.substitution.entries},
        }

    @classmethod
    def from_obj(cls, obj: dict, q: int) -> "ErrorPattern":
        return cls(
            InsertionVector.from_texts(obj["ins"], q),
            DeletionVector.parse(obj["del"]),
            SubstitutionPattern.from_dict({int(p): int(s) for p, s in obj["sub"].items()}),
        )


def pattern_to_draw(p: ErrorPattern, x: Word) -> tuple:
    """The raw draw (see PatternSampler.draw) of a validated pattern on x.
    Raises on a substitution that keeps x's symbol, which no draw holds."""
    parts, entries = p.insertion.parts, p.substitution.entries
    for pos, s in entries:
        if s == x[pos - 1]:
            raise ValueError(f"substitution at position {pos} does not change the symbol")
    return (
        tuple(g for g, part in enumerate(parts) for _ in part),
        tuple(s for part in parts for s in part),
        tuple(i for i, b in enumerate(p.deletion.mask) if b),
        tuple(pos - 1 for pos, _ in entries),
        tuple(s - (s > x[pos - 1]) for pos, s in entries),
    )


def draw_to_pattern(draw, n: int, x: Word | None = None) -> ErrorPattern:
    """The ErrorPattern of a raw draw on a word of length n.  x is needed
    only when the draw substitutes: an offset names the replacement among
    the q-1 symbols differing from x at that position."""
    gaps, ins_symbols, del_pos, sub_pos, sub_off = draw
    parts = [()] * (n + 1)
    for g, s in zip(gaps, ins_symbols):
        parts[g] += (s,)
    mask = [0] * n
    for p in del_pos:
        mask[p] = 1
    entries = [(p + 1, off + (off >= x[p])) for p, off in zip(sub_pos, sub_off)]
    return ErrorPattern(
        InsertionVector(tuple(parts)), DeletionVector(tuple(mask)), SubstitutionPattern(tuple(entries))
    )


def apply_pattern(x: Word, p: ErrorPattern) -> Word:
    """Apply substitutions, then deletions, then insertions.

    Substitutions and deletions address original coordinates of x; insertion
    parts are interleaved at the original gaps, so a part survives even when
    its neighbouring symbol is deleted.  The pattern is validated, mapped to
    its draw, and applied by the body of PatternSampler.apply_draw.
    """
    p.validate(len(x), x.q)
    return Word.from_raw(_apply_draw(pattern_to_draw(p, x), x.raw, alphabet(x.q)), x.q)


def _apply_draw(draw, x_raw: str, symbols: str) -> str:
    """Apply a raw draw to a word in raw form over the alphabet string
    `symbols`; O(n + t).  Substitutions come first, then deletions, then
    insertions; under the disjointness invariants the order does not matter."""
    gaps, ins_symbols, del_pos, sub_pos, sub_off = draw
    out = list(x_raw)
    for p, off in zip(sub_pos, sub_off):
        # The replacement skips the original symbol: off, or off + 1 from it on.
        new = symbols[off]
        out[p] = new if new < out[p] else symbols[off + 1]
    for p in reversed(del_pos):
        del out[p]
    # Gap g sits after original symbol g, so after the deletions it sits
    # after g minus the deleted positions before it.  Inserting from the
    # last gap backwards leaves the earlier anchors in place.
    for g, s in zip(reversed(gaps), reversed(ins_symbols)):
        out.insert(g - bisect_left(del_pos, g), symbols[s])
    return "".join(out)


def _sample_range(getrandbits, m: int, k: int) -> list[int]:
    """rng.sample(range(m), k), where getrandbits is rng's bound method.
    One or two picks, the shapes of one edit or of one deletion plus one
    substitution, are drawn here through the same getrandbits calls as the
    stdlib makes, without its pool of m values or its set of taken ones."""
    if k == 1 or k == 2:
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if k == 1:
            return [j]
        if m <= 21:
            # The stdlib's pool path, taken while m is at most its set size
            # of 21: pick from the m - 1 values left after the last one took
            # j's place.
            top = m - 1
            bits = top.bit_length()
            i = getrandbits(bits)
            while i >= top:
                i = getrandbits(bits)
            return [j, top if i == j else i]
        i = getrandbits(bits)
        while i >= m or i == j:
            i = getrandbits(bits)
        return [j, i]
    return getrandbits.__self__.sample(range(m), k)


class PatternSampler:
    """Exact uniform sampler over the error-pattern space for fixed budgets.

    The space is the product of all insertion vectors of total length <= t_ins
    with all disjoint (delete-positions, substitute-positions, replacement
    symbols) choices of at most t_del deletions and t_sub substitutions.  A
    draw picks the insertion length and the edit counts using the exact
    integer weights, then picks positions uniformly without replacement, so
    no pattern is drawn and rejected.  Each number is drawn as
    rng.randrange draws it and each set of positions as rng.sample picks it:
    the inline loops and _sample_range's short paths make the same
    getrandbits calls, so a seeded generator gives the same patterns, and
    is left in the same state, as a draw written with those two.  Draws
    consume the generator identically whether or not the pattern is
    materialised against a concrete word.
    """

    def __init__(self, n: int, q: int, t_sub: int, t_del: int, t_ins: int):
        _check_alphabet_size(q)
        if min(t_sub, t_del, t_ins) < 0:
            raise ValueError("budgets must be non-negative")
        if t_sub + t_del > n:
            raise ValueError(f"t_sub + t_del = {t_sub + t_del} exceeds word length {n}")
        self.n = n
        self.q = q
        self.t_sub = t_sub
        self.t_del = t_del
        self.t_ins = t_ins
        self._alphabet = alphabet(q)

        # (cumulative weight, total length)
        self._ins_cum = list(zip(accumulate(_insertion_terms(q, n, t_ins)), range(t_ins + 1)))
        self.insertion_space = self._ins_cum[-1][0]

        # Shape (j, i) weighs C(n, j) deletion sets times ball term i on the n - j kept positions.
        self._edit_cum: list[tuple[int, int, int]] = []  # (cumulative, n_del, n_sub)
        acc = 0
        for j, deletions in enumerate(_ball_terms(2, n, t_del)):
            for i, term in enumerate(_ball_terms(q, n - j, t_sub)):
                acc += deletions * term
                self._edit_cum.append((acc, j, i))
        self.edit_space = acc
        self.pattern_space = self.insertion_space * self.edit_space
        self._ins_bits = self.insertion_space.bit_length()
        self._edit_bits = self.edit_space.bit_length()

    def draw(self, rng: random.Random):
        """Raw uniform draw, independent of the transmitted word.

        Returns (gaps, ins_symbols, del_positions, sub_positions, sub_offsets)
        with 0-based positions; substitution offsets are in [0, q-2] and index
        the replacement symbol among the q-1 symbols differing from the
        original.  The common shapes take short paths that make the same
        generator calls: one insertion draws its gap and its symbol
        directly, no edit returns at once, and a draw without substitutions
        or without deletions sorts no empty slice and draws no offset.
        """
        n, q = self.n, self.q
        getrandbits = rng.getrandbits
        # Each `while` loop below is randrange(m): getrandbits(m.bit_length())
        # until the value is below m (one call even when m == 1).
        m, bits = self.insertion_space, self._ins_bits
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        for cum, total in self._ins_cum:
            if r < cum:
                break
        if total == 1:
            # sample(range(n + 1), 1) is one randrange(n + 1): the gap.
            m = n + 1
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            bits = q.bit_length()
            s = getrandbits(bits)
            while s >= q:
                s = getrandbits(bits)
            gaps, ins_symbols = (j,), (s,)
        elif total:
            # Uniform gap multiset of size `total` over the n+1 gaps, via the
            # standard bijection with `total`-subsets of [0, n+total).
            chosen = sorted(_sample_range(getrandbits, n + total, total))
            gaps = tuple(map(operator.sub, chosen, range(total)))
            ins = []
            bits = q.bit_length()
            for _ in range(total):
                s = getrandbits(bits)
                while s >= q:
                    s = getrandbits(bits)
                ins.append(s)
            ins_symbols = tuple(ins)
        else:
            gaps = ins_symbols = ()

        m, bits = self.edit_space, self._edit_bits
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        for cum, n_del, n_sub in self._edit_cum:
            if r < cum:
                break
        if not n_sub:
            if not n_del:
                return gaps, ins_symbols, (), (), ()
            picked = _sample_range(getrandbits, n, n_del)
            return gaps, ins_symbols, tuple(sorted(picked)), (), ()
        picked = _sample_range(getrandbits, n, n_del + n_sub)
        sub_positions = tuple(sorted(picked[:n_sub]))
        del_positions = tuple(sorted(picked[n_sub:])) if n_del else ()
        offsets = []
        m = q - 1
        bits = m.bit_length()
        for _ in range(n_sub):
            s = getrandbits(bits)
            while s >= m:
                s = getrandbits(bits)
            offsets.append(s)
        return gaps, ins_symbols, del_positions, sub_positions, tuple(offsets)

    def sample(self, rng: random.Random, x: Word | None = None) -> ErrorPattern:
        """Uniform ErrorPattern.  x is required when t_sub > 0 because the
        replacement symbol is one of the q-1 symbols differing from x there."""
        draw = self.draw(rng)
        if draw[3] and x is None:  # the draw substitutes
            raise ValueError("sampling substitutions requires the transmitted word x")
        if x is not None and len(x) != self.n:
            raise ValueError(f"x has length {len(x)}, sampler built for {self.n}")
        return draw_to_pattern(draw, self.n, x)

    def apply_draw(self, draw, x_raw: str) -> str:
        """Apply a raw draw to the transmitted word in raw form; O(n + t)."""
        return _apply_draw(draw, x_raw, self._alphabet)


class DrawOutputs:
    """The outputs of one transmitted word x, each given as a raw draw of a
    PatternSampler: an output adapter for StreamDecoder.

    read() gives a draw's output counts in O(t) from x's counts: x's symbol
    leaves at each deleted and each substituted position, and each
    replacement and each inserted symbol joins.  They equal
    symbol_counts(apply_draw(draw, x)).  The decoder stores the draw itself;
    raw() applies it to x, which the decoder does only for the six words of
    a certificate and for the answer of a zero-budget decode.
    """

    __slots__ = ("sampler", "x_raw", "_x", "_counts")

    def __init__(self, sampler: PatternSampler, x_raw: str):
        if len(x_raw) != sampler.n:
            raise ValueError(f"x has length {len(x_raw)}, sampler built for {sampler.n}")
        self.sampler = sampler
        self.x_raw = x_raw
        self._x = Word.from_raw(x_raw, sampler.q).symbols
        self._counts = symbol_counts(x_raw, sampler._alphabet)

    def read(self, draw) -> tuple:
        """(draw, output symbol counts, output length)."""
        _, ins_symbols, del_pos, sub_pos, sub_off = draw
        x = self._x
        counts = list(self._counts)
        for p in del_pos:
            counts[x[p]] -= 1
        for p, off in zip(sub_pos, sub_off):
            s = x[p]
            counts[s] -= 1
            counts[off + (off >= s)] += 1
        for s in ins_symbols:
            counts[s] += 1
        return draw, tuple(counts), self.sampler.n - len(del_pos) + len(ins_symbols)

    def raw(self, draw) -> str:
        """The output of a draw, in raw form."""
        return self.sampler.apply_draw(draw, self.x_raw)


def sample_pattern(
    n: int,
    q: int,
    t_sub: int,
    t_del: int,
    t_ins: int,
    rng_seed: "int | str | random.Random | None" = None,
    x: Word | None = None,
) -> ErrorPattern:
    """One uniform draw from the pattern space (see PatternSampler).

    Deterministic given the seed.  Repeated draws should reuse a
    PatternSampler plus one generator instead of reseeding per call.
    """
    rng = as_rng(rng_seed)
    return PatternSampler(n, q, t_sub, t_del, t_ins).sample(rng, x)
