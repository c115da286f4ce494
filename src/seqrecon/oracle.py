"""Brute-force ground truth for confusability between transmitted words.

For a word pair and an error budget, the oracle enumerates every pattern on
both words and reports the largest channel count N for which the two words
can produce identical output collections under each channel model.

The count depends only on c(y) and c'(y), the numbers of patterns on x and
on x' that produce each output y the two words share.  Each model covers
every shared output y with take(y) patterns on x and take'(y) on x', and N is
the smaller of the two totals:

  traditional  - (1, 1): N is the number of shared outputs;
  multiset     - (min(c, c'), min(c, c')): N = sum of min(c(y), c'(y));
  non-multiset - (c, c'): N = min(sum of c(y), sum of c'(y)).  Pattern sets D
                 on x and D' on x' of size N whose output sets are one
                 subset Y of the shared outputs exist iff |Y| <= N <= the
                 smaller total into Y, so the whole shared set realises the
                 maximum: since c, c' >= 1, its smaller total covers |Y|.

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
from operator import itemgetter

from .channels import ChannelModel, OutputCollection, deletion_sets, enumerate_patterns, pattern_space_size
from .patterns import ErrorPattern, check_mode, draw_to_pattern
from .words import Word, alphabet, hamming_ball_volume

DEFAULT_BUDGET = 100_000_000  # extremal_search's default search cost cap


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


def confusable_max(
    x: Word,
    x_prime: Word,
    t: int,
    mode: str,
    model: ChannelModel,
    error_type: str = "deletion",
    want_witness: bool = False,
) -> ConfusabilityReport:
    """Largest channel count at which x and x_prime can be confused.

    Enumerates each word once and keeps only its output counts, in raw
    form, from which the cover rule of the module docstring gives the count.
    A witness enumerates both words a second time, keeps the draws of at
    most take(y) patterns per shared output y, and turns only those into
    ErrorPatterns.
    """
    mode = check_mode(mode)
    if len(x) != len(x_prime) or x.q != x_prime.q:
        raise ValueError("words must share length and alphabet")
    c, c_prime = (Counter(y for _, y in enumerate_patterns(w, t, mode, error_type)) for w in (x, x_prime))
    common = [y for y in c if y in c_prime]  # in x's enumeration order
    if model is ChannelModel.TRADITIONAL:
        take = take_prime = dict.fromkeys(common, 1)
    elif model is ChannelModel.MULTISET:
        take = take_prime = {y: min(c[y], c_prime[y]) for y in common}
    else:
        take, take_prime = {y: c[y] for y in common}, {y: c_prime[y] for y in common}
    n_max = min(sum(take.values()), sum(take_prime.values()))

    witness = None
    if want_witness and n_max:
        chosen = []
        for word, quota in ((x, take), (x_prime, take_prime)):
            kept = {y: (quota[y], []) for y in common}  # (quota, draws): one lookup per pattern
            for draw, y in enumerate_patterns(word, t, mode, error_type):
                slot = kept.get(y)
                if slot and len(slot[1]) < slot[0]:
                    slot[1].append(draw)
            groups = [g for _, g in kept.values()]
            if model is ChannelModel.NON_MULTISET:
                # One pattern per shared output, then fill output by output.
                draws = [g[0] for g in groups] + [d for g in groups for d in g[1:]]
            else:
                draws = [d for g in groups for d in g]
            chosen.append([draw_to_pattern(d, len(word), word) for d in draws[:n_max]])
        witness = ConfusabilityWitness(*chosen, OutputCollection.of_raw(model.collection_kind, take, x.q))
    return ConfusabilityReport(
        x, x_prime, t, mode, model, error_type, n_max, witness
    )


@dataclass
class ExtremalResult:
    """Word pairs attaining the maximum confusable channel count."""

    n_max_confusable: int
    pairs: list[tuple[Word, Word]]
    indistinguishable: list[tuple[Word, Word]] = field(default_factory=list)
    searched_pairs: int = 0


def _keep_getters(n: int, t: int, mode: str):
    """One key function per deletion set, in enumerate_patterns' order,
    mapping a word in raw form to a key of its deletion output: the tuple of
    kept characters, one character when one is kept, () when none is.
    Outputs of one length have keys of one type, so equal keys mean equal
    outputs."""
    getters = []
    for dropped in deletion_sets(n, t, mode):
        kept = [i for i in range(n) if i not in dropped]
        getters.append(itemgetter(*kept) if kept else lambda s: ())
    return getters


def _producer_rows(words: list[str], n: int, t: int, mode: str) -> list[list[tuple]]:
    """Each word's deletion outputs, as (multiplicity, producers) rows.

    `producers` is shared by every word with that output and holds each
    producer's (word index, multiplicity), highest index first, so popping
    it when the scan reaches word i leaves exactly the producers j > i.
    """
    getters = _keep_getters(n, t, mode)
    index: dict[tuple | str, list[tuple[int, int]]] = {}
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


def _scan_pairs(words: list[str], n: int, t: int, mode: str, model: ChannelModel, initial_best: int):
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
        # their shared outputs cover under the cover rule of the module
        # docstring (one sum serves both in the multiset and traditional
        # models); the pair's count is the smaller one.
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
    if not best:
        # Every pair that shares an output is indistinguishable; the rest count 0.
        shared = set(never)
        best_pairs = [ij for ij in itertools.combinations(range(len(words)), 2) if ij not in shared]
    return best, best_pairs, never


def _canonical_pair(xi: str, xj: str) -> tuple[str, str]:
    """Relabel symbols by first occurrence across the concatenated pair, in
    raw form: the first symbol seen becomes 0, the next new one 1, ..."""
    seen = "".join(dict.fromkeys(xi + xj))
    relabel = str.maketrans(seen, alphabet(len(seen)))
    a, b = xi.translate(relabel), xj.translate(relabel)
    return (a, b) if a <= b else (b, a)


def extremal_search(
    n: int,
    q: int,
    t: int,
    mode: str,
    model: ChannelModel,
    canonical: bool = False,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> ExtremalResult:
    """Exhaustive search for the word pairs hardest to distinguish.

    Deletion errors only.  Words are built and scanned in raw form (see
    words.py) and wrapped as Words only for the result.  Pairs that can
    never be distinguished (identical full output collections, possible
    when n < 2t+2) are excluded from the maximum and reported separately.
    A pair sharing no output counts 0; when no pair is distinguishable at
    all (as for n = 0, or t = n in the exactly mode) the count is 0 and
    `pairs` is empty.  `canonical` lists each pair once up to a relabelling
    of symbols, relabelled by first occurrence.  `searched_pairs` is
    C(q^n, 2), though only the pairs sharing an output are visited (see the
    module docstring for the cost).  Refuses when q^n times the pattern
    count times the supersequences of one output exceeds `budget`.  `jobs`
    is accepted and has no effect: the scan runs in one process.
    """
    mode = check_mode(mode)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} infeasible for n={n}")
    # A length n-t word has sum_{i<=t} C(n, i)(q-1)^i supersequences of
    # length n (Levenshtein), the Hamming ball volume; shorter outputs of
    # an at-most search have fewer.
    cost = q**n * pattern_space_size(n, q, t, mode) * hamming_ball_volume(q, n, t)
    if cost > budget:
        raise ValueError(f"search cost {cost} exceeds budget {budget}")

    # For q > 2 the binary sub-search only seeds `best`; the scan prunes
    # nothing with it.  It stays while the benchmark's traced run times it
    # as `oracle.presearch_ms`, and can go with a change to that metric in
    # `seqbench/`.
    initial_best = 0
    if q > 2 and model is not ChannelModel.TRADITIONAL:
        initial_best = extremal_search(n, 2, t, mode, model, budget=budget).n_max_confusable

    words = list(map("".join, itertools.product(alphabet(q), repeat=n)))
    best, pair_ids, never_ids = _scan_pairs(words, n, t, mode, model, initial_best)
    to_word = lambda i: Word.from_raw(words[i], q)
    if canonical:
        keys = dict.fromkeys(_canonical_pair(words[i], words[j]) for i, j in pair_ids)
        pairs = [(Word.from_raw(a, q), Word.from_raw(b, q)) for a, b in keys]
    else:
        pairs = [(to_word(i), to_word(j)) for i, j in pair_ids]
    never = [(to_word(i), to_word(j)) for i, j in never_ids]
    searched = len(words) * (len(words) - 1) // 2
    return ExtremalResult(best, pairs, never, searched)
