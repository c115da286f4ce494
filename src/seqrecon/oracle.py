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

The extremal search decides all C(q^n, 2) word pairs a word at a time, in
packed ints: word j owns lane j, w bits wide, the narrowest of 8, 16, 32 and
64 with 2^(w-1) above the pattern count, so each lane's top bit is a free
guard bit.  An output with many producers is stored once as two packed ints,
its producers' counts c_j(y) and their presence, and added with one int
addition (the multiset min(c, c_j) by guard-bit subtraction); one with few
producers adds them one by one to a lane buffer.  Pair rules run on all lanes
at once, and only lanes that reach the best count so far are unpacked.
Packed outputs take about (packed outputs) * q^n * w/8 bytes.
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


def _at_least(a: int, b: int, guard: int) -> int:
    """The guard bits of the lanes of packed ints where a >= b."""
    return ((a | guard) - b) & guard


def _lane_min(a: int, b: int, guard: int, w: int) -> int:
    """Lane-wise minimum of packed ints: where a >= b, a loses a - b."""
    d = (a | guard) - b
    g = d & guard
    return a - (d & (g - (g >> (w - 1))))


def _scan_pairs(words: list[str], q: int, n: int, t: int, mode: str, model: ChannelModel, initial_best: int):
    """Best count, attaining pairs and indistinguishable pairs, as word indices.

    From the last word down, word i sums in each lane j < i how much of its
    own and of word j's total their shared outputs cover (the cover rule of
    the module docstring), then unpacks the lanes that reach `best` or cover
    both totals.  A pair sharing no output counts 0, and is listed only when
    no other pair counts more.
    """
    getters = _keep_getters(n, t, mode)
    nonmultiset = model is ChannelModel.NON_MULTISET
    size = len(words)
    w, fmt = next((b, f) for b, f in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if len(getters) < 1 << (b - 1))
    # At most t, the empty deletion set keeps the whole word: no other word produces it.
    whole = mode == "at_most"
    getters = getters[whole:]
    step = w // 8
    # An output n - s long has hamming_ball_volume(q, n, s) producers; a visit
    # adds about half of them to a lane buffer, or adds a packed int of
    # size * step bytes a few times (four times as many for the multiset min).
    work = size * step * (4 if model is ChannelModel.MULTISET else 1)
    packed_lengths = {n - s for s in range(t + 1) if 200 * hamming_ball_volume(q, n, s) >= work}

    index: dict[tuple | str, list] = {}
    rows, totals = [], []  # rows: per word, its (listed, packed) outputs as (c, producers)
    for j, x in enumerate(words):
        counts = Counter(getter(x) for getter in getters)
        if model is ChannelModel.TRADITIONAL:
            counts = dict.fromkeys(counts, 1)
        totals.append(sum(counts.values()) + whole)
        row = ([], [])
        for y, c in counts.items():
            producers = index.setdefault(y, [])
            producers.append((j, c))
            row[len(y) in packed_lengths].append((c, producers))
        rows.append(row)

    buffer, spare = bytearray(size * step), bytearray(size * step)
    lanes, spare_lanes = memoryview(buffer).cast(fmt), memoryview(spare).cast(fmt)

    def drain(buf: bytearray, nbytes: int) -> int:  # and zero what it read
        value = int.from_bytes(buf[:nbytes], "little")
        buf[:nbytes] = bytes(nbytes)
        return value

    def pack(items) -> int:
        for j, c in items:
            lanes[j] = c
        return drain(buffer, size * step)

    ones = pack((j, 1) for j in range(size))
    guard = ones << (w - 1)
    total_lanes = pack(enumerate(totals))
    for y, producers in index.items():
        if len(y) in packed_lengths:  # the rows share this list: it becomes (counts, presence)
            mult = pack(producers)
            presence = _at_least(mult, ones, guard) >> (w - 1)
            producers[:] = mult, (mult if presence == mult else presence)

    levels = {}  # v -> v in every lane
    level = lambda v: levels.get(v) or levels.setdefault(v, v * ones)

    best, best_pairs, never = initial_best, [], []
    for i in range(size - 1, 0, -1):
        listed, packed = rows[i]
        mine = theirs = 0
        if packed:
            low = (1 << i * w) - 1  # lanes j < i
            if nonmultiset:
                by_take = {}  # c -> presence of the packed outputs word i produces c times
                for c, (mult, presence) in packed:
                    by_take[c] = by_take.get(c, 0) + (presence & low)
                    theirs += mult & low
                mine = sum(c * lanes_c for c, lanes_c in by_take.items())
            else:
                guard_i, takes = guard & low, {}  # takes: c -> c in every lane j < i
                for c, (mult, presence) in packed:
                    if c == 1:
                        mine += presence & low
                    else:
                        take = takes.get(c) or takes.setdefault(c, level(c) & low)
                        mine += _lane_min(mult & low, take, guard_i, w)
        if listed:
            for c, producers in listed:
                producers.pop()  # word i: the later words popped theirs
                if nonmultiset:
                    for j, cj in producers:
                        lanes[j] += c
                        spare_lanes[j] += cj
                else:
                    for j, cj in producers:
                        lanes[j] += c if c < cj else cj
            mine += drain(buffer, i * step)
            if nonmultiset:
                theirs += drain(spare, i * step)
        # The lanes j >= i hold 0, below every level tested.  A lane that
        # reaches `best` or covers word i whole has mine and theirs >= floor
        # (in the non-multiset model every word's total is the pattern count).
        if not nonmultiset:
            theirs = mine
        floor = level(min(max(best, 1), totals[i]))
        if not _at_least(mine, floor, guard) & _at_least(theirs, floor, guard):
            continue
        value = _lane_min(mine, theirs, guard, w) if nonmultiset else mine
        covered = _at_least(mine, level(totals[i]), guard) & _at_least(theirs, total_lanes, guard)
        reach = _at_least(value, level(max(best, 1)), guard) | covered
        nbytes = i * step
        flags = reach.to_bytes(nbytes, "little")[step - 1 :: step]
        is_covered = covered and covered.to_bytes(nbytes, "little")[step - 1 :: step]
        values = memoryview(value.to_bytes(nbytes, "little")).cast(fmt)
        j = flags.find(128)
        while j >= 0:
            if is_covered and is_covered[j]:
                never.append((j, i))
            elif values[j] > best:
                best, best_pairs = values[j], [(j, i)]
            elif values[j] == best:
                best_pairs.append((j, i))
            j = flags.find(128, j + 1)
    best_pairs.sort()
    never.sort()
    if not best:
        # Every pair that shares an output is indistinguishable; the rest count 0.
        shared = set(never)
        best_pairs = [ij for ij in itertools.combinations(range(size), 2) if ij not in shared]
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
    C(q^n, 2), though only the lanes that reach the best count so far are
    unpacked.  Refuses when q^n times the pattern count times the
    supersequences of one output exceeds `budget`.  `jobs` is accepted and
    has no effect: the scan runs in one process.

    The scan's packed outputs take about (outputs with many producers) *
    q^n * w/8 bytes for w-bit lanes (see the module docstring).  For q > 2 the
    binary maximum seeds the best count: lanes below it are not unpacked.
    """
    mode = check_mode(mode)
    if n < 0:
        raise ValueError("n and t must be non-negative")
    if not 0 <= t <= n:
        raise ValueError(f"t={t} infeasible for n={n}")
    # A length n-t word has sum_{i<=t} C(n, i)(q-1)^i supersequences of
    # length n (Levenshtein), the Hamming ball volume; shorter outputs of
    # an at-most search have fewer.
    cost = q**n * pattern_space_size(n, q, t, mode) * hamming_ball_volume(q, n, t)
    if cost > budget:
        raise ValueError(f"search cost {cost} exceeds budget {budget}")

    # The benchmark's traced run times this sub-search as `oracle.presearch_ms`.
    initial_best = 0
    if q > 2 and model is not ChannelModel.TRADITIONAL:
        initial_best = extremal_search(n, 2, t, mode, model, budget=budget).n_max_confusable

    words = list(map("".join, itertools.product(alphabet(q), repeat=n)))
    best, pair_ids, never_ids = _scan_pairs(words, q, n, t, mode, model, initial_best)
    to_word = lambda i: Word.from_raw(words[i], q)
    if canonical:
        keys = dict.fromkeys(_canonical_pair(words[i], words[j]) for i, j in pair_ids)
        pairs = [(Word.from_raw(a, q), Word.from_raw(b, q)) for a, b in keys]
    else:
        pairs = [(to_word(i), to_word(j)) for i, j in pair_ids]
    never = [(to_word(i), to_word(j)) for i, j in never_ids]
    searched = len(words) * (len(words) - 1) // 2
    return ExtremalResult(best, pairs, never, searched)
