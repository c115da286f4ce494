"""The three channel semantics and batch transmission experiments.

In the traditional model every channel emits a distinct output word.  In the
two error-pattern models every channel applies a distinct error pattern; the
receiver sees the resulting multiset of outputs (multiset model) or only the
set of distinct outputs (non-multiset model).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .patterns import PatternSampler, as_rng, check_mode
from .words import Word, alphabet, hamming_ball_volume, insertion_ball_volume

ENUMERATION_LIMIT = 10_000_000  # most patterns enumerate_patterns builds on one word


class ChannelModel(enum.Enum):
    TRADITIONAL = "traditional"
    MULTISET = "multiset"
    NON_MULTISET = "non-multiset"

    @classmethod
    def parse(cls, name: str) -> "ChannelModel":
        key = name.strip().lower().replace("_", "-")
        for model in cls:
            if model.value == key:
                return model
        raise ValueError(f"unknown channel model {name!r}")

    @property
    def collection_kind(self) -> str:
        return "multiset" if self is ChannelModel.MULTISET else "set"


@dataclass(slots=True, repr=False)
class OutputCollection:
    """Words received from a batch of channels, with multiplicities.

    kind is "set" or "multiset"; a set collection stores every count as 1.
    Words are kept in a canonical (length, symbols) order, the same as the
    (length, raw form) order, for stable serialisation and equality.
    Equality compares kind and counts and ignores distinct_patterns.
    """

    kind: str
    counts: dict[Word, int]
    distinct_patterns: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("set", "multiset"):
            raise ValueError(f"kind must be 'set' or 'multiset', got {self.kind!r}")
        for w, c in self.counts.items():
            if c < 1:
                raise ValueError(f"multiplicity {c} for {w!r} must be >= 1")
        counts = dict.fromkeys(self.counts, 1) if self.kind == "set" else self.counts
        self.counts = dict(sorted(counts.items(), key=lambda wc: (len(wc[0]), wc[0].raw)))

    def total(self) -> int:
        return sum(self.counts.values())

    def words(self) -> list[Word]:
        return list(self.counts)

    def as_set(self) -> "OutputCollection":
        return OutputCollection("set", self.counts)

    def __contains__(self, word: Word) -> bool:
        return word in self.counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{w.text}x{c}" for w, c in self.counts.items())
        return f"OutputCollection({self.kind}, {{{inner}}})"

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "items": [{"word": w.text, "count": c} for w, c in self.counts.items()],
        }

    @classmethod
    def from_obj(cls, obj: dict, q: int) -> "OutputCollection":
        counts = {Word.parse(item["word"], q): item["count"] for item in obj["items"]}
        return cls(obj["kind"], counts)

    @classmethod
    def of_raw(cls, kind: str, counts: dict[str, int], q: int, distinct_patterns: int | None = None):
        """The collection of outputs counted in raw form: one Word per
        distinct output."""
        return cls(kind, {Word.from_raw(y, q): c for y, c in counts.items()}, distinct_patterns)


def _sizes(t: int, mode: str):
    return range(t + 1) if check_mode(mode) == "at_most" else (t,)


def pattern_space_size(n: int, q: int, t: int, mode: str, error_type: str = "deletion") -> int:
    """Deletion or insertion patterns of size exactly t, or at most t, on a
    q-ary word of length n: C(n, i) deletion and q^i * C(n+i, i) insertion
    patterns of size i; the at-most counts are the two ball volumes."""
    exactly = check_mode(mode) == "exactly"
    if error_type == "deletion":
        if not 0 <= t <= n:
            raise ValueError(f"deletion budget t={t} infeasible for length {n}")
        return math.comb(n, t) if exactly else hamming_ball_volume(2, n, t)
    if error_type == "insertion":
        if t < 0:
            raise ValueError("insertion budget must be non-negative")
        if exactly:
            # The one-term ball refuses n < 0 and q < 2, as the at-most count does.
            insertion_ball_volume(q, n, 0)
            return q**t * math.comb(n + t, t)
        return insertion_ball_volume(q, n, t)
    raise ValueError(f"unknown error type {error_type!r}")


def deletion_sets(n: int, t: int, mode: str):
    """The deleted 0-based positions of every deletion pattern of weight
    exactly t, or at most t, on a word of length n: ascending weight, then
    lexicographic.  Each is a draw's del_positions."""
    return itertools.chain.from_iterable(itertools.combinations(range(n), w) for w in _sizes(t, mode))


def _deletion_outputs(raw: str, t: int, mode: str):
    for dropped in deletion_sets(len(raw), t, mode):
        # The kept characters are the runs between the dropped positions.
        runs, start = [], 0
        for d in dropped:
            runs.append(raw[start:d])
            start = d + 1
        runs.append(raw[start:])
        yield ((), (), dropped, (), ()), "".join(runs)


def _insertion_outputs(raw: str, q: int, t: int, mode: str):
    symbols = alphabet(q)
    for total in _sizes(t, mode):
        for gaps in itertools.combinations_with_replacement(range(len(raw) + 1), total):
            # Gap g sits after g original symbols: each inserted symbol
            # follows the slice of x up to its gap.
            heads = [raw[a:b] for a, b in zip((0,) + gaps, gaps)]
            tail = raw[gaps[-1]:] if gaps else raw
            for ins in itertools.product(range(q), repeat=total):
                yield (gaps, ins, (), (), ()), "".join([h + symbols[s] for h, s in zip(heads, ins)]) + tail


def enumerate_patterns(x: Word, t: int, mode: str, error_type: str = "deletion"):
    """Lazily yield (draw, output) for every pattern of the given type and
    budget on x: the draw as PatternSampler.draw gives it, the output in raw
    form.  Patterns come by ascending size, then deletion sets in
    lexicographic order, or insertion gap multisets in lexicographic order
    and then their symbols.  Refuses, before building any, when there are
    more than ENUMERATION_LIMIT."""
    count = pattern_space_size(len(x), x.q, t, mode, error_type)
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"{count} patterns exceed enumeration limit {ENUMERATION_LIMIT}")
    if error_type == "deletion":
        return _deletion_outputs(x.raw, t, mode)
    return _insertion_outputs(x.raw, x.q, t, mode)


def transmit_all(
    x: Word,
    t: int,
    mode: str,
    model: ChannelModel,
    error_type: str = "deletion",
) -> OutputCollection:
    """Send x through one channel per error pattern of the given type and budget.

    The multiset model keys multiplicities by the number of patterns that
    produce each output; the other two models collapse to the set of distinct
    outputs.  Refuses more than ENUMERATION_LIMIT patterns.
    """
    counts = Counter(y for _, y in enumerate_patterns(x, t, mode, error_type))
    return OutputCollection.of_raw(model.collection_kind, counts, x.q, counts.total())


def transmit_random(
    x: Word,
    n_channels: int,
    budgets: tuple[int, int, int],
    model: ChannelModel,
    rng_seed: "int | str | None" = None,
    strict: bool = False,
) -> OutputCollection:
    """Send x through n_channels channels with i.i.d. uniform error patterns.

    budgets is (t_sub, t_del, t_ins); each channel draws at most that many
    errors of each type.  With strict=True duplicate patterns are resampled so
    all channels carry distinct patterns, which fails when n_channels exceeds
    the pattern-space size.  Deterministic given the seed.
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    t_sub, t_del, t_ins = budgets
    sampler = PatternSampler(len(x), x.q, t_sub, t_del, t_ins)
    if strict and n_channels > sampler.pattern_space:
        raise ValueError(
            f"strict mode infeasible: {n_channels} channels but only "
            f"{sampler.pattern_space} distinct patterns"
        )
    rng = as_rng(rng_seed)
    outputs: Counter[str] = Counter()
    seen: set = set()
    for _ in range(n_channels):
        while True:
            draw = sampler.draw(rng)
            if not strict or draw not in seen:
                break
        seen.add(draw)
        outputs[sampler.apply_draw(draw, x.raw)] += 1
    return OutputCollection.of_raw(model.collection_kind, outputs, x.q, len(seen))
