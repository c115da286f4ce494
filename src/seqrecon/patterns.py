"""Error events for a single channel and how to apply, enumerate and sample them.

A deletion vector is a binary mask over the n coordinates of the transmitted
word.  An insertion vector is an ordered tuple of n+1 (possibly empty) q-ary
words, one per gap of the transmitted word.  A substitution pattern maps
1-based positions to replacement symbols.  An error pattern combines the
three; deletions and substitutions address original coordinates only and may
not overlap, and inserted symbols are never deleted or substituted.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .words import Word, alphabet, symbol_counts

Mode = str  # "exactly" | "at_most"


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


@dataclass(frozen=True)
class DeletionVector:
    """Binary mask d over [1, n]; position i is deleted when d_i = 1."""

    mask: tuple[int, ...]

    def __post_init__(self):
        for b in self.mask:
            if b not in (0, 1):
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
        return "".join(str(b) for b in self.mask)


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
        return [Word(p, q).text for p in self.parts]


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

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class ErrorPattern:
    """One channel's combined insertion / deletion / substitution event."""

    insertion: InsertionVector
    deletion: DeletionVector
    substitution: SubstitutionPattern

    @classmethod
    def empty(cls, n: int) -> "ErrorPattern":
        return cls(InsertionVector.empty(n), DeletionVector((0,) * n), SubstitutionPattern(()))

    @classmethod
    def of_deletion(cls, d: DeletionVector) -> "ErrorPattern":
        n = len(d.mask)
        return cls(InsertionVector.empty(n), d, SubstitutionPattern(()))

    @classmethod
    def of_insertion(cls, v: InsertionVector) -> "ErrorPattern":
        n = len(v.parts) - 1
        return cls(v, DeletionVector((0,) * n), SubstitutionPattern(()))

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


def apply_deletion(x: Word, d: DeletionVector) -> Word:
    """Remove every coordinate of x flagged by the mask, keeping relative order."""
    if len(d.mask) != len(x):
        raise ValueError(f"mask length {len(d.mask)} != word length {len(x)}")
    return Word.from_raw("".join([c for c, b in zip(x.raw, d.mask) if not b]), x.q)


def apply_insertion(x: Word, v: InsertionVector) -> Word:
    """Insert part i of v after the i-th symbol of x (part 0 goes in front)."""
    if len(v.parts) != len(x) + 1:
        raise ValueError(f"insertion vector has {len(v.parts)} parts for word of length {len(x)}")
    out: list[int] = list(v.parts[0])
    for s, part in zip(x.symbols, v.parts[1:]):
        out.append(s)
        out.extend(part)
    return Word(out, x.q)


def apply_pattern(x: Word, p: ErrorPattern) -> Word:
    """Apply substitutions, then deletions, then insertions.

    Substitutions and deletions address original coordinates of x; insertion
    parts are interleaved at the original gaps, so a part survives even when
    its neighbouring symbol is deleted.  The stage order is fixed for
    determinism; under the disjointness invariants the result does not depend
    on it.
    """
    n = len(x)
    p.validate(n, x.q)
    symbols = list(x.symbols)
    for pos, s in p.substitution.entries:
        if symbols[pos - 1] == s:
            raise ValueError(f"substitution at position {pos} does not change the symbol")
        symbols[pos - 1] = s
    out: list[int] = list(p.insertion.parts[0])
    for i in range(n):
        if not p.deletion.mask[i]:
            out.append(symbols[i])
        out.extend(p.insertion.parts[i + 1])
    return Word(out, x.q)


def enumerate_deletion_vectors(n: int, t: int, mode: Mode = "exactly") -> Iterator[DeletionVector]:
    """All deletion vectors of weight exactly t, or at most t.

    Yields C(n, t) vectors for "exactly" and V_2(n, t) for "at_most".
    """
    mode = check_mode(mode)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside [0, n={n}]")
    weights = range(t + 1) if mode == "at_most" else (t,)
    for w in weights:
        for positions in itertools.combinations(range(n), w):
            mask = [0] * n
            for p in positions:
                mask[p] = 1
            yield DeletionVector(tuple(mask))


def _gap_multisets(n: int, total: int) -> Iterator[tuple[int, ...]]:
    # Weak compositions of `total` over the n+1 gaps, as sorted gap index tuples.
    yield from itertools.combinations_with_replacement(range(n + 1), total)


def _vector_from_gaps(n: int, gaps: Sequence[int], symbols: Sequence[int]) -> InsertionVector:
    parts: list[list[int]] = [[] for _ in range(n + 1)]
    for g, s in zip(gaps, symbols):
        parts[g].append(s)
    return InsertionVector(tuple(tuple(p) for p in parts))


def enumerate_insertion_vectors(n: int, q: int, t: int, mode: Mode = "exactly") -> Iterator[InsertionVector]:
    """All insertion vectors of total length exactly t or at most t.

    Yields q^t * C(n+t, t) vectors for "exactly"; the at-most count equals
    insertion_ball_volume(q, n, t).
    """
    mode = check_mode(mode)
    if t < 0:
        raise ValueError("t must be non-negative")
    totals = range(t + 1) if mode == "at_most" else (t,)
    for total in totals:
        for gaps in _gap_multisets(n, total):
            for symbols in itertools.product(range(q), repeat=total):
                yield _vector_from_gaps(n, gaps, symbols)


def _sample_range(getrandbits, m: int, k: int) -> list[int]:
    """random.Random.sample(range(m), k), in selection order, through the same
    getrandbits calls.  Like the stdlib, it swap-removes from a pool of all m
    values when that list is smaller than a k-entry set, and otherwise redraws
    any value already taken.  One or two picks, the shapes of one insertion
    or of one deletion plus one substitution, make those calls without
    building the pool or the set."""
    setsize = 21
    if k == 1 or k == 2:
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if k == 1:
            return [j]
        if m <= setsize:
            # The pool path: pick from the m - 1 values left after the last
            # one took j's place.
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
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    picked = []
    if m <= setsize:
        pool = list(range(m))
        for top in range(m, m - k, -1):
            bits = top.bit_length()
            j = getrandbits(bits)
            while j >= top:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[top - 1]
    else:
        taken = set()
        bits = m.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= m or j in taken:
                j = getrandbits(bits)
            taken.add(j)
            picked.append(j)
    return picked


class PatternSampler:
    """Exact uniform sampler over the error-pattern space for fixed budgets.

    The space is the product of all insertion vectors of total length <= t_ins
    with all disjoint (delete-positions, substitute-positions, replacement
    symbols) choices of at most t_del deletions and t_sub substitutions.  A
    draw picks the insertion length and the edit counts using the exact
    integer weights, then picks positions uniformly without replacement, so
    no pattern is drawn and rejected.  Every number is drawn through
    rng.getrandbits in exactly the calls that random.Random.randrange and
    random.Random.sample make, so a seeded generator gives the same patterns,
    and is left in the same state, as a draw written with those two.  Draws
    consume the generator identically whether or not the pattern is
    materialised against a concrete word.
    """

    def __init__(self, n: int, q: int, t_sub: int, t_del: int, t_ins: int):
        if q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {q}")
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

        self._ins_cum: list[tuple[int, int]] = []  # (cumulative weight, total length)
        acc = 0
        for i in range(t_ins + 1):
            acc += q**i * math.comb(n + i, i)
            self._ins_cum.append((acc, i))
        self.insertion_space = acc

        self._edit_cum: list[tuple[int, int, int]] = []  # (cumulative, n_del, n_sub)
        acc = 0
        for j in range(t_del + 1):
            for i in range(t_sub + 1):
                if i + j > n:
                    continue
                acc += math.comb(n, i + j) * math.comb(i + j, i) * (q - 1) ** i
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
        original.
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
        if total:
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
        if n_del + n_sub:
            picked = _sample_range(getrandbits, n, n_del + n_sub)
            sub_positions = tuple(sorted(picked[:n_sub]))
            del_positions = tuple(sorted(picked[n_sub:]))
        else:
            sub_positions = del_positions = ()
        offsets = []
        m = q - 1
        bits = m.bit_length()
        for _ in range(n_sub):
            s = getrandbits(bits)
            while s >= m:
                s = getrandbits(bits)
            offsets.append(s)
        sub_offsets = tuple(offsets)
        return gaps, ins_symbols, del_positions, sub_positions, sub_offsets

    def sample(self, rng: random.Random, x: Word | None = None) -> ErrorPattern:
        """Uniform ErrorPattern.  x is required when t_sub > 0 because the
        replacement symbol is one of the q-1 symbols differing from x there."""
        gaps, ins_symbols, del_pos, sub_pos, sub_off = self.draw(rng)
        n, q = self.n, self.q
        if sub_pos and x is None:
            raise ValueError("sampling substitutions requires the transmitted word x")
        if x is not None and len(x) != n:
            raise ValueError(f"x has length {len(x)}, sampler built for {n}")
        entries = []
        for p, off in zip(sub_pos, sub_off):
            orig = x[p]
            new = off + (1 if off >= orig else 0)
            entries.append((p + 1, new))
        mask = [0] * n
        for p in del_pos:
            mask[p] = 1
        return ErrorPattern(
            _vector_from_gaps(n, gaps, ins_symbols),
            DeletionVector(tuple(mask)),
            SubstitutionPattern(tuple(entries)),
        )

    def apply_draw(self, draw, x_raw: str) -> str:
        """Apply a raw draw to the transmitted word in raw form; O(n + t)."""
        gaps, ins_symbols, del_pos, sub_pos, sub_off = draw
        symbols = self._alphabet
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
