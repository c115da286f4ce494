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
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter

from .channels import ChannelModel, OutputCollection
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


def _deletion_output_counter(symbols: tuple, keep_sets) -> Counter:
    return Counter(getter(symbols) for getter in keep_sets)


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


def _scan_pairs(args):
    n, q, t, mode, model_name, lo, hi, initial_best = args
    model = ChannelModel(model_name)
    getters = _keep_getters(n, t, mode)
    words = list(itertools.product(range(q), repeat=n))
    outs = [_deletion_output_counter(w, getters) for w in words]
    totals = [sum(o.values()) for o in outs]
    best = initial_best
    best_pairs: list[tuple[int, int]] = []
    never: list[tuple[int, int]] = []
    for i in range(lo, hi):
        oi = outs[i]
        for j in range(i + 1, len(words)):
            oj = outs[j]
            if model is ChannelModel.MULTISET:
                val = 0
                for y, c in oi.items():
                    cj = oj.get(y)
                    if cj:
                        val += c if c < cj else cj
                if val == totals[i] and val == totals[j]:
                    never.append((i, j))
                    continue
            elif model is ChannelModel.NON_MULTISET:
                si = sj = 0
                for y, c in oi.items():
                    cj = oj.get(y)
                    if cj:
                        si += c
                        sj += cj
                val = si if si < sj else sj
                if si == totals[i] and sj == totals[j]:
                    never.append((i, j))
                    continue
            else:
                val = sum(1 for y in oi if y in oj)
                if val == len(oi) and val == len(oj):
                    never.append((i, j))
                    continue
            if val > best:
                best = val
                best_pairs = [(i, j)]
            elif val == best:
                best_pairs.append((i, j))
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
    maximum and reported separately.  Refuses when q^(2n) times the pattern
    count exceeds `budget`.
    """
    mode = check_mode(mode)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} infeasible for n={n}")
    pattern_count = len(_keep_getters(n, t, mode))
    cost = q ** (2 * n) * pattern_count
    if cost > budget:
        raise ValueError(f"search cost {cost} exceeds budget {budget}")

    # Collapsing the alphabet onto {0, 1} at a differing coordinate can only
    # raise a pair's pattern-model confusability, so for q > 2 the binary
    # sub-search yields the exact maximum up front and the full scan merely
    # collects the attaining pairs.
    initial_best = -1
    if q > 2 and model is not ChannelModel.TRADITIONAL:
        initial_best = extremal_search(n, 2, t, mode, model, budget=budget).n_max_confusable

    total_words = q**n
    if jobs > 1:
        bounds = [round(k * total_words / jobs) for k in range(jobs + 1)]
        tasks = [
            (n, q, t, mode, model.value, bounds[k], bounds[k + 1], initial_best)
            for k in range(jobs)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_pairs, tasks))
    else:
        parts = [_scan_pairs((n, q, t, mode, model.value, 0, total_words, initial_best))]

    best = max(p[0] for p in parts)
    pair_ids = [ij for p in parts if p[0] == best for ij in p[1]]
    never_ids = [ij for p in parts for ij in p[2]]

    words = list(itertools.product(range(q), repeat=n))
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
    searched = total_words * (total_words - 1) // 2
    return ExtremalResult(best, pairs, never, searched)
