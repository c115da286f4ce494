"""Brute-force ground truth for confusability between transmitted words.

For a word pair and an error budget, the oracle enumerates every pattern on
both words and reports the largest channel count N for which the two words
can produce identical output collections under each channel model:

  traditional  - N = number of distinct outputs reachable from both words;
  multiset     - N = sum over common outputs of min(multiplicity_x, multiplicity_x');
  non-multiset - largest N with pattern sets D on x and D' on x' of size N
                 whose output sets coincide; for a candidate common-output
                 subset Y this is feasible iff |Y| <= N <= min of the two
                 total multiplicities into Y, so the full common-output set
                 realises the maximum: its min-sum always covers |Y|, since
                 every common output has multiplicity >= 1 on both sides.

The extremal search decides all C(q^n, 2) word pairs but visits only those
that share a deletion output: it indexes each output to the words producing
it, then walks, for each word, the later producers of its outputs.  Its cost
is about q^n * C(n, t) outputs times the number of supersequences of one
output, against q^(2n) * C(n, t) for a scan of all pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from .bounds import _v2
from .channels import ChannelModel, OutputCollection, pattern_count
from .patterns import (
    ErrorPattern,
    apply_deletion,
    apply_insertion,
    check_mode,
    enumerate_deletion_vectors,
    enumerate_insertion_vectors,
)
from .words import Word


@dataclass
class ConfusabilityWitness:
    """Pattern sets replaying a maximal confusable experiment."""

    patterns_x: list[ErrorPattern]
    patterns_x_prime: list[ErrorPattern]
    outputs: OutputCollection


@dataclass
class ConfusabilityReport:
    x: Word
    x_prime: Word
    t: int
    mode: str
    model: ChannelModel
    error_type: str
    n_max_confusable: int
    witness: ConfusabilityWitness | None = None


def _pattern_outputs(x: Word, t: int, mode: str, error_type: str):
    """Map output Word -> list of patterns of the given type producing it."""
    by_output: dict[Word, list] = {}
    if error_type == "deletion":
        if not 0 <= t <= len(x):
            raise ValueError(f"deletion budget t={t} infeasible for length {len(x)}")
        for d in enumerate_deletion_vectors(len(x), t, mode):
            by_output.setdefault(apply_deletion(x, d), []).append(d)
    elif error_type == "insertion":
        if t < 0:
            raise ValueError("insertion budget must be non-negative")
        for v in enumerate_insertion_vectors(len(x), x.q, t, mode):
            by_output.setdefault(apply_insertion(x, v), []).append(v)
    else:
        raise ValueError(f"unknown error type {error_type!r}")
    return by_output


def _as_patterns(raw_list, error_type: str) -> list[ErrorPattern]:
    if error_type == "deletion":
        return [ErrorPattern.of_deletion(d) for d in raw_list]
    return [ErrorPattern.of_insertion(v) for v in raw_list]


def _nonmultiset_nmax(common: list[Word], mult_x: dict, mult_xp: dict) -> int:
    """Maximum feasible N, realised by the whole common-output set."""
    return min(sum(mult_x[y] for y in common), sum(mult_xp[y] for y in common))


def confusable_max(
    x: Word,
    x_prime: Word,
    t: int,
    mode: str,
    model: ChannelModel,
    error_type: str = "deletion",
    want_witness: bool = False,
) -> ConfusabilityReport:
    """Largest channel count at which x and x_prime can be confused."""
    mode = check_mode(mode)
    if len(x) != len(x_prime) or x.q != x_prime.q:
        raise ValueError("words must share length and alphabet")
    out_x = _pattern_outputs(x, t, mode, error_type)
    out_xp = _pattern_outputs(x_prime, t, mode, error_type)
    mult_x = {y: len(ps) for y, ps in out_x.items()}
    mult_xp = {y: len(ps) for y, ps in out_xp.items()}
    common = [y for y in mult_x if y in mult_xp]

    witness = None
    if model is ChannelModel.TRADITIONAL:
        n_max = len(common)
        if want_witness and n_max:
            px = [out_x[y][0] for y in common]
            pxp = [out_xp[y][0] for y in common]
            witness = _make_witness(px, pxp, error_type, model, {y: 1 for y in common})
    elif model is ChannelModel.MULTISET:
        n_max = sum(min(mult_x[y], mult_xp[y]) for y in common)
        if want_witness and n_max:
            px, pxp, counts = [], [], {}
            for y in common:
                take = min(mult_x[y], mult_xp[y])
                px.extend(out_x[y][:take])
                pxp.extend(out_xp[y][:take])
                counts[y] = take
            witness = _make_witness(px, pxp, error_type, model, counts)
    elif model is ChannelModel.NON_MULTISET:
        n_max = _nonmultiset_nmax(common, mult_x, mult_xp)
        if want_witness and n_max:
            px = _cover_with(out_x, common, n_max)
            pxp = _cover_with(out_xp, common, n_max)
            witness = _make_witness(px, pxp, error_type, model, {y: 1 for y in common})
    else:
        raise ValueError(f"unknown model {model}")
    return ConfusabilityReport(
        x, x_prime, t, mode, model, error_type, n_max, witness
    )


def _cover_with(by_output, subset, n: int) -> list:
    """Exactly n patterns whose outputs cover `subset` and stay inside it."""
    chosen = [by_output[y][0] for y in subset]
    for y in subset:
        for p in by_output[y][1:]:
            if len(chosen) == n:
                return chosen
            chosen.append(p)
    return chosen


def _make_witness(px, pxp, error_type, model, counts) -> ConfusabilityWitness:
    kind = "multiset" if model is ChannelModel.MULTISET else "set"
    return ConfusabilityWitness(
        _as_patterns(px, error_type),
        _as_patterns(pxp, error_type),
        OutputCollection(kind, counts),
    )


@dataclass
class ExtremalResult:
    """Word pairs attaining the maximum confusable channel count."""

    n_max_confusable: int
    pairs: list[tuple[Word, Word]]
    indistinguishable: list[tuple[Word, Word]] = field(default_factory=list)
    searched_pairs: int = 0


def _keep_getters(n: int, t: int, mode: str):
    """Precomputed extractors mapping a word tuple to each deletion output."""
    weights = range(t + 1) if mode == "at_most" else (t,)
    getters = []
    for w in weights:
        for dropped in itertools.combinations(range(n), w):
            kept = tuple(i for i in range(n) if i not in dropped)
            if len(kept) == 0:
                getters.append(lambda s: ())
            elif len(kept) == 1:
                k = kept[0]
                getters.append(lambda s, k=k: (s[k],))
            else:
                getters.append(itemgetter(*kept))
    return getters


def _producer_rows(words: list[tuple], n: int, t: int, mode: str) -> list[list[tuple]]:
    """Each word's deletion outputs, as (multiplicity, producers) rows.

    `producers` is shared by every word with that output and holds each
    producer's (word index, multiplicity), highest index first, so popping
    it when the scan reaches word i leaves exactly the producers j > i.
    """
    getters = _keep_getters(n, t, mode)
    index: dict[tuple, list[tuple[int, int]]] = {}
    rows = []
    for j, w in enumerate(words):
        row = []
        for y, c in Counter(getter(w) for getter in getters).items():
            producers = index.setdefault(y, [])
            producers.append((j, c))
            row.append((c, producers))
        rows.append(row)
    for producers in index.values():
        producers.reverse()
    return rows


def _scan_pairs(words: list[tuple], n: int, t: int, mode: str, model: ChannelModel, initial_best: int):
    """Best count, attaining pairs and indistinguishable pairs, as word indices.

    Visits word i's producer rows, then its partners j > i in ascending
    order, so pairs come out in (i, j) order.  A pair sharing no output
    counts 0, and is listed only when no other pair counts more.
    """
    rows = _producer_rows(words, n, t, mode)
    traditional = model is ChannelModel.TRADITIONAL
    if traditional:
        totals = [len(row) for row in rows]
    else:
        totals = [sum(c for c, _ in row) for row in rows]
    best = initial_best
    best_pairs: list[tuple[int, int]] = []
    never: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        # mine[j] and theirs[j]: how much of word i's and of word j's total
        # their shared outputs cover (one sum serves both in the multiset and
        # traditional models); the pair's count is the smaller one.
        if model is ChannelModel.NON_MULTISET:
            mine, theirs = {}, {}
            get, get_theirs = mine.get, theirs.get
            for c, producers in row:
                producers.pop()
                for j, cj in producers:
                    mine[j] = get(j, 0) + c
                    theirs[j] = get_theirs(j, 0) + cj
        else:
            mine = theirs = {}
            get = mine.get
            for c, producers in row:
                producers.pop()
                if traditional or c == 1:
                    for j, _ in producers:
                        mine[j] = get(j, 0) + 1
                else:
                    for j, cj in producers:
                        mine[j] = get(j, 0) + (c if c < cj else cj)
        if not mine:
            continue
        ti = totals[i]
        top = max(mine.values())
        if top < best and top < ti:
            continue  # no pair of word i reaches `best` or covers it whole
        for j in sorted(mine):
            si = mine[j]
            sj = theirs[j]
            if si == ti and sj == totals[j]:
                never.append((i, j))
                continue
            val = si if si < sj else sj
            if val > best:
                best = val
                best_pairs = [(i, j)]
            elif val == best:
                best_pairs.append((i, j))
    if best < 1:
        # Every pair that shares an output is indistinguishable; the rest count 0.
        shared = set(never)
        zero = [ij for ij in itertools.combinations(range(len(words)), 2) if ij not in shared]
        if zero:
            best, best_pairs = 0, zero
    return best, best_pairs, never


def _canonical_pair(xi: tuple, xj: tuple, q: int) -> tuple:
    """Relabel symbols by first occurrence across the concatenated pair."""
    relabel: dict[int, int] = {}
    for s in xi + xj:
        if s not in relabel:
            relabel[s] = len(relabel)
    a = tuple(relabel[s] for s in xi)
    b = tuple(relabel[s] for s in xj)
    return (a, b) if a <= b else (b, a)


def extremal_search(
    n: int,
    q: int,
    t: int,
    mode: str,
    model: ChannelModel,
    canonical: bool = False,
    budget: int = 100_000_000,
    jobs: int = 1,
) -> ExtremalResult:
    """Exhaustive search for the word pairs hardest to distinguish.

    Deletion errors only.  Pairs that can never be distinguished (identical
    full output collections, possible when n < 2t+2) are excluded from the
    maximum and reported separately.  `searched_pairs` is C(q^n, 2), though
    only the pairs sharing an output are visited (see the module docstring
    for the cost).  Refuses when q^(2n) times the pattern count exceeds
    `budget`.  `jobs` is accepted and has no effect: the scan runs in one
    process.
    """
    mode = check_mode(mode)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} infeasible for n={n}")
    cost = q ** (2 * n) * pattern_count(partial(_v2, n), t, mode)
    if cost > budget:
        raise ValueError(f"search cost {cost} exceeds budget {budget}")

    # For q > 2 the binary sub-search only seeds `best`; the scan prunes
    # nothing with it.  It stays while the benchmark's traced run times it
    # as `oracle.presearch_ms`, and can go with a change to that metric in
    # `seqbench/`.
    initial_best = -1
    if q > 2 and model is not ChannelModel.TRADITIONAL:
        initial_best = extremal_search(n, 2, t, mode, model, budget=budget).n_max_confusable

    words = list(itertools.product(range(q), repeat=n))
    best, pair_ids, never_ids = _scan_pairs(words, n, t, mode, model, initial_best)
    to_word = lambda i: Word(words[i], q)
    if canonical:
        seen = set()
        pairs = []
        for i, j in pair_ids:
            key = _canonical_pair(words[i], words[j], q)
            if key not in seen:
                seen.add(key)
                pairs.append((Word(key[0], q), Word(key[1], q)))
    else:
        pairs = [(to_word(i), to_word(j)) for i, j in pair_ids]
    never = [(to_word(i), to_word(j)) for i, j in never_ids]
    searched = len(words) * (len(words) - 1) // 2
    return ExtremalResult(best, pairs, never, searched)
