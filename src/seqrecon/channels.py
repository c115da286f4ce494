"""The three channel semantics and batch transmission experiments.

In the traditional model every channel emits a distinct output word.  In the
two error-pattern models every channel applies a distinct error pattern; the
receiver sees the resulting multiset of outputs (multiset model) or only the
set of distinct outputs (non-multiset model).
"""

from __future__ import annotations

import enum
import math
from collections import Counter

from .patterns import (
    PatternSampler,
    apply_deletion,
    apply_insertion,
    as_rng,
    check_mode,
    enumerate_deletion_vectors,
    enumerate_insertion_vectors,
)
from .words import Word

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


class OutputCollection:
    """Words received from a batch of channels, with multiplicities.

    kind is "set" or "multiset"; a set collection stores every count as 1.
    Words are kept in a canonical (length, symbols) order, the same as the
    (length, raw form) order, for stable serialisation and equality.
    """

    __slots__ = ("kind", "counts", "distinct_patterns")

    def __init__(self, kind: str, counts: dict[Word, int], distinct_patterns: int | None = None):
        if kind not in ("set", "multiset"):
            raise ValueError(f"kind must be 'set' or 'multiset', got {kind!r}")
        for w, c in counts.items():
            if c < 1:
                raise ValueError(f"multiplicity {c} for {w!r} must be >= 1")
        if kind == "set":
            counts = {w: 1 for w in counts}
        items = sorted(counts.items(), key=lambda wc: (len(wc[0]), wc[0].raw))
        self.kind = kind
        self.counts = dict(items)
        self.distinct_patterns = distinct_patterns

    def total(self) -> int:
        return sum(self.counts.values())

    def words(self) -> list[Word]:
        return list(self.counts)

    def as_set(self) -> "OutputCollection":
        return OutputCollection("set", dict.fromkeys(self.counts, 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OutputCollection)
            and self.kind == other.kind
            and self.counts == other.counts
        )

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


def pattern_space_size(n: int, q: int, t: int, mode: str, error_type: str = "deletion") -> int:
    """Deletion or insertion patterns of size exactly t, or at most t, on a
    q-ary word of length n: C(n, i) deletion and q^i * C(n+i, i) insertion
    patterns of size i."""
    mode = check_mode(mode)
    if error_type == "deletion":
        if not 0 <= t <= n:
            raise ValueError(f"deletion budget t={t} infeasible for length {n}")
        size = lambda i: math.comb(n, i)
    elif error_type == "insertion":
        if t < 0:
            raise ValueError("insertion budget must be non-negative")
        size = lambda i: q**i * math.comb(n + i, i)
    else:
        raise ValueError(f"unknown error type {error_type!r}")
    return sum(map(size, range(t + 1) if mode == "at_most" else (t,)))


def enumerate_patterns(x: Word, t: int, mode: str, error_type: str = "deletion"):
    """Lazily yield (vector, output) for every pattern of the given type and
    budget on x.  Refuses, before building any, when there are more than
    ENUMERATION_LIMIT."""
    count = pattern_space_size(len(x), x.q, t, mode, error_type)
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"{count} patterns exceed enumeration limit {ENUMERATION_LIMIT}")
    if error_type == "deletion":
        vectors, apply = enumerate_deletion_vectors(len(x), t, mode), apply_deletion
    else:
        vectors, apply = enumerate_insertion_vectors(len(x), x.q, t, mode), apply_insertion
    return ((v, apply(x, v)) for v in vectors)


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
    return OutputCollection(model.collection_kind, dict(counts), distinct_patterns=counts.total())


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
    outputs: Counter[Word] = Counter()
    seen: set = set()
    distinct = 0
    for _ in range(n_channels):
        while True:
            draw = sampler.draw(rng)
            if not strict or draw not in seen:
                break
        if draw not in seen:
            seen.add(draw)
            distinct += 1
        outputs[Word.from_raw(sampler.apply_draw(draw, x.raw), x.q)] += 1
    return OutputCollection(model.collection_kind, dict(outputs), distinct_patterns=distinct)
