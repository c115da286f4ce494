"""Streaming Las Vegas decoder for simultaneous insertion/deletion/substitution errors.

Channel outputs are fed in one at a time.  For every ordered symbol pair
(a, b) the decoder keeps the output that minimises the count of a while
maximising the count of b, and similarly for (a, {b, c}) with the count of
symbols outside the triple.  Once six stored outputs exhibit the maximal
count swings for some symbol triple, every error location is pinned down and
the transmitted word is rebuilt exactly; with unbounded input this happens
with probability approaching one, and a nonempty result is always correct.
Requires q >= 4: with fewer symbols the positions of the untouched symbols
cannot be recovered.

The decoder decides on symbol counts alone and reads words only to rebuild
the transmitted one from a certificate.  So an output adapter turns each
output into a stored token, its symbol counts and its length, and turns a
token back into the raw form of seqrecon.words (one character per symbol,
for every q) only for the six words of a certificate.  The default,
RawOutputs, takes outputs that are words: the token is the raw form, which
a Word stores, so pushing one costs no conversion.  Any other output is
made a checked Word first, and every output is counted by symbol_counts.
Simulation stores raw draws of a PatternSampler instead and counts them in
O(t) (patterns.DrawOutputs).  StreamDecoder.read is the one read loop: it
stops at the first decision, at the end of the stream or at
DecoderConfig.read_cap reads.

A read pays for what it changes.  Frontier.update skips the pair slots and,
apart, the triple slots anchored at a symbol the new output holds too many
of to displace any of them.  It marks an anchor triple only when an input of
its certificate check changes: the two scores of one of its six slots, or
the stored counts of its y1.  A slot whose score improves marks every
triple using it; a tie with other counts marks only the triples using the
slot as y1.  The scan checks the marked triples alone, and is exact: an
unmarked triple fails again the check it failed at the last scan.  The
slots and anchor triples of each q are tabulated once per process
(_slot_table), with one index over all slots, and each distinct slot is
stored once: at q = 4 the count outside {a, b, c} is the count of the
fourth symbol d, so triple slot (a, {b, c}) takes pair slot (a, d)'s rule
and always holds the same output, and the table maps it there.  The merge
that rebuilds the word makes four fixed tests a round, one per class of
symbol, of which at most one can match (reconstruction_steps); its tables
are built once per anchor triple.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .words import Word, alphabet, symbol_counts

# Measured median reads-to-halt at q=4 for common parameter points, used to
# size the default read cap; keys are (n, t_sub, t_del, t_ins).
_BASELINE_MEDIANS = {
    (20, 1, 1, 1): 390,
    (60, 1, 1, 1): 280,
    (100, 1, 1, 1): 263,
    (200, 1, 1, 1): 252,
    (100, 2, 1, 1): 3506,
    (100, 1, 2, 1): 1166,
    (100, 1, 1, 2): 1059,
    (100, 1, 2, 2): 4685,
    (100, 0, 0, 1): 6,
    (100, 0, 1, 1): 20,
    (100, 0, 0, 2): 29,
    (100, 0, 0, 3): 118,
}


@dataclass(frozen=True)
class DecoderConfig:
    """Alphabet, length and per-channel error budgets."""

    q: int
    n: int
    t_sub: int
    t_del: int
    t_ins: int
    max_reads: int | None = None

    def __post_init__(self):
        if self.q < 4:
            raise ValueError(f"decoding requires q >= 4, got q={self.q}")
        if self.n < 1:
            raise ValueError(f"requires n >= 1, got {self.n}")
        if min(self.t_sub, self.t_del, self.t_ins) < 0:
            raise ValueError("budgets must be non-negative")
        if self.t_sub + self.t_del > self.n:
            raise ValueError("t_sub + t_del exceeds the word length")
        if self.max_reads is not None and self.max_reads < 1:
            raise ValueError("max_reads must be positive")

    @functools.cached_property
    def count_swing(self) -> int:
        """Maximal gap between one symbol's counts in two outputs of the same
        word: t_del + t_ins + 2 t_sub.  Computed once per config, since push
        and find_certificate read it on every read."""
        return self.t_del + self.t_ins + 2 * self.t_sub

    @functools.cached_property
    def output_lengths(self) -> range:
        """The lengths an output can have: n - t_del to n + t_ins.  Computed
        once per config, like count_swing."""
        return range(self.n - self.t_del, self.n + self.t_ins + 1)

    @property
    def read_cap(self) -> int:
        """Most outputs a decode reads: max_reads when set, else 50 times the
        measured q=4 median for this point, else 1,000,000."""
        if self.max_reads is not None:
            return self.max_reads
        median = _BASELINE_MEDIANS.get((self.n, self.t_sub, self.t_del, self.t_ins))
        return 50 * median if self.q == 4 and median else 1_000_000


class _SlotTable(NamedTuple):
    """The slots and anchor triples of one alphabet size, shared by every
    Frontier of that size (see _slot_table)."""

    pair_index: dict  # (a, b) -> slot, grouped by a
    tri_index: dict  # (a, b, c) with b < c -> slot, grouped by a; a pair slot at q = 4
    pair_groups: tuple  # per symbol a: ((slot, b), ...) of the pair slots (a, b)
    tri_groups: tuple  # per symbol a: ((slot, b, c), ...) of the triple slots of its own
    anchors: tuple  # (s1, s2, s3, k1, ..., k6) per permutation, in lexicographic order
    slot_anchors: tuple  # per slot: indices into anchors of the triples using it
    y1_anchors: tuple  # per slot: indices into anchors of the triples using it as k1


@functools.lru_cache(maxsize=16)
def _slot_table(q: int) -> _SlotTable:
    symbols = range(q)
    pair_index = {key: k for k, key in enumerate(itertools.permutations(symbols, 2))}
    tri_index = {}
    tri_groups = [[] for _ in symbols]
    size = len(pair_index)
    for a in symbols:
        for b, c in itertools.combinations((s for s in symbols if s != a), 2):
            outside = [d for d in symbols if d not in (a, b, c)]
            if len(outside) == 1:
                # The count outside {a, b, c} is M_d: pair slot (a, d)'s rule.
                tri_index[(a, b, c)] = pair_index[(a, outside[0])]
            else:
                tri_index[(a, b, c)] = size
                tri_groups[a].append((size, b, c))
                size += 1

    def tri(a, b, c):
        return tri_index[(a, min(b, c), max(b, c))]

    anchors = []
    slot_anchors = [[] for _ in range(size)]
    y1_anchors = [[] for _ in range(size)]
    for i, (s1, s2, s3) in enumerate(itertools.permutations(symbols, 3)):
        slots = (
            pair_index[(s3, s1)],
            pair_index[(s1, s2)],
            pair_index[(s2, s3)],
            tri(s1, s2, s3),
            tri(s2, s1, s3),
            tri(s3, s1, s2),
        )
        anchors.append((s1, s2, s3) + slots)
        for k in slots:
            slot_anchors[k].append(i)
        y1_anchors[slots[0]].append(i)
    return _SlotTable(
        pair_index,
        tri_index,
        tuple(tuple((k, b) for (x, b), k in pair_index.items() if x == a) for a in symbols),
        tuple(map(tuple, tri_groups)),
        tuple(anchors),
        tuple(map(tuple, slot_anchors)),
        tuple(map(tuple, y1_anchors)),
    )


class Frontier:
    """Best-so-far outputs per ordered symbol pair and per symbol triple.

    Slot (a, b) is displaced by a new output y when M_a(y) <= stored M_a and
    M_b(y) >= stored M_b, both non-strict and both at once; slot (a, b, c)
    uses M_a and the count outside {a, b, c}.  Ties displace.  The (a, b, c)
    rule is symmetric in b, c so those slots are stored once per unordered
    {b, c} and looked up under any order.  A slot stores the output's token
    (see StreamDecoder) with its symbol counts, its M_a and its second score
    (M_b, or the count outside), so certificate checks need no recount and
    never read a word.

    Every slot has one index into the same four lists, pair slots first.  At
    q = 4 the count outside {a, b, c} is M_d, d the fourth symbol, so slot
    (a, b, c) takes pair slot (a, d)'s rule from the same first output and
    always holds what (a, d) holds: the table maps the key to that pair slot
    and gives it no slot of its own.

    The slots anchored at a symbol a, (a, b) and its own (a, b, c), form its
    group.  `_pair_gate[a]` is the largest M_a stored in its pair slots and
    `_tri_gate[a]` the largest in its own triple slots, or -1 when it has
    none (q = 4): an output with more a's than a gate displaces none of
    those slots, ties included, so update() skips them.

    `pending` holds the indices into the table's anchors of the anchor
    triples whose check may have changed since the last scan:
    find_certificate() checks only those, and the caller clears the set
    after a scan that found nothing.  The check reads each of the six
    slots' M_a and second score, and of y1, pair slot (s3, s1), also the
    stored counts (its length and M_s2).  So a displacement that lowers M_a
    or raises the second score marks every triple using the slot.  A tie,
    which keeps both scores, marks only the triples using the slot as y1
    (`y1_anchors`, pair slots only), and only when the stored counts
    change; a triple slot's tie marks nothing.  The first output takes the
    same update() path as every other: it beats every slot's initial bounds
    (M_a infinite, second score -1) and passes every gate with slots behind
    it, so it enters every slot, lowers those gates to its counts and marks
    every anchor triple once.
    """

    __slots__ = (
        "q",
        "_table",
        "_word",
        "_counts",
        "_ma",
        "_mb",
        "_pair_gate",
        "_tri_gate",
        "pending",
    )

    def __init__(self, q: int):
        if q < 4:
            raise ValueError(f"requires q >= 4, got q={q}")
        self.q = q
        self._table = table = _slot_table(q)
        size = len(table.slot_anchors)
        # Bounds that the first output beats in every slot.
        self._word = [None] * size
        self._counts = [None] * size
        self._ma = [math.inf] * size
        self._mb = [-1] * size
        self._pair_gate = [math.inf] * q
        self._tri_gate = [math.inf if table.tri_groups[0] else -1] * q
        self.pending: set[int] = set()

    def update(self, token, counts: tuple[int, ...], length: int) -> None:
        """Offer one output's token, with its symbol counts and length, to
        every slot, and mark as pending the anchor triples whose check may
        have changed (see the class docstring)."""
        table = self._table
        pair_gate, tri_gate, pending = self._pair_gate, self._tri_gate, self.pending
        words, stored, ma, mb, slot_anchors = self._word, self._counts, self._ma, self._mb, table.slot_anchors
        for a, ca in enumerate(counts):
            if ca <= pair_gate[a]:
                lowered = False
                for k, b in table.pair_groups[a]:
                    cb = counts[b]
                    if ca <= ma[k] and cb >= mb[k]:
                        if ca < ma[k] or cb > mb[k]:
                            pending.update(slot_anchors[k])
                            lowered = lowered or ca < ma[k]
                        elif stored[k] != counts:
                            pending.update(table.y1_anchors[k])
                        words[k] = token
                        stored[k] = counts
                        ma[k] = ca
                        mb[k] = cb
                if lowered:
                    pair_gate[a] = max([ma[k] for k, _ in table.pair_groups[a]])
            if ca <= tri_gate[a]:
                lowered = False
                rest = length - ca
                for k, b, c in table.tri_groups[a]:
                    out = rest - counts[b] - counts[c]
                    if ca <= ma[k] and out >= mb[k]:
                        if ca < ma[k] or out > mb[k]:
                            pending.update(slot_anchors[k])
                            lowered = lowered or ca < ma[k]
                        words[k] = token
                        stored[k] = counts
                        ma[k] = ca
                        mb[k] = out
                if lowered:
                    tri_gate[a] = max([ma[k] for k, _, _ in table.tri_groups[a]])

    def get_pair(self, a: int, b: int):
        """(stored token, M_a, M_b) for slot (a, b)."""
        k = self._table.pair_index[(a, b)]
        return self._word[k], self._ma[k], self._mb[k]

    def get_triple(self, a: int, b: int, c: int):
        """(stored token, M_a, count outside {a,b,c}) for slot (a, b, c)."""
        k = self._table.tri_index[(a,) + tuple(sorted((b, c)))]
        return self._word[k], self._ma[k], self._mb[k]


@dataclass(frozen=True)
class Certificate:
    """Six stored outputs whose count swings pin down every error location.

    anchors = (s1, s2, s3); words = (y1..y6) where y1, y2, y3 are the pair
    slots (s3,s1), (s1,s2), (s2,s3) and y4, y5, y6 the triple slots
    (s1,{s2,s3}), (s2,{s1,s3}), (s3,{s1,s2}).
    """

    anchors: tuple[int, int, int]
    words: tuple[str, ...]

    def word_texts(self, q: int) -> list[str]:
        return [Word.from_raw(w, q).text for w in self.words]


def find_certificate(frontier: Frontier, cfg: DecoderConfig) -> Certificate | None:
    """Check the frontier's pending anchor triples, in no particular order;
    return the lowest-index one (lexicographic order) whose six slots
    satisfy all seven count equalities, or None.  The certificate's words
    are the six slots' stored tokens.

    A triple that is not pending still fails the check it failed at an
    earlier scan (see Frontier), so the lowest pending hit is the first hit
    of a scan over all triples.
    """
    swing = cfg.count_swing
    grow = cfg.t_ins + cfg.t_sub
    anchors = frontier._table.anchors
    ma, mb, stored = frontier._ma, frontier._mb, frontier._counts
    # Each count compared is a stored scalar: pair slot k1 = (s3, s1) stores
    # M_s3 in ma and M_s1 in mb, k2 = (s1, s2) M_s1 and M_s2, k3 = (s2, s3)
    # M_s2 and M_s3; triple slots k4, k5, k6 store M_s1, M_s2, M_s3 in ma
    # and the count outside the triple in mb.
    first = None
    for i in frontier.pending:
        s1, s2, s3, k1, k2, k3, k4, k5, k6 = anchors[i]
        m2 = ma[k2]
        if mb[k1] != m2 + swing:
            continue
        m3, m1 = ma[k3], ma[k1]
        if mb[k2] != m3 + swing or mb[k3] != m1 + swing:
            continue
        if m2 != ma[k4] or m3 != ma[k5] or m1 != ma[k6]:
            continue
        c1 = stored[k1]
        target = sum(c1) - mb[k1] - c1[s2] - m1 + grow
        if mb[k4] == target and mb[k5] == target and mb[k6] == target and (first is None or i < first):
            first = i
    if first is None:
        return None
    words = frontier._word
    s1, s2, s3, *slots = anchors[first]
    return Certificate((s1, s2, s3), tuple([words[k] for k in slots]))


@functools.lru_cache(maxsize=256)
def _residue_tables(q: int, s1: int, s2: int, s3: int) -> tuple:
    """certificate_residues' six str.translate tables for one anchor triple."""
    raw = alphabet(q)
    a, b, c = raw[s1], raw[s2], raw[s3]
    rest = raw.translate(str.maketrans("", "", a + b + c))
    return tuple(str.maketrans("", "", d) for d in (a + c, a + b, b + c, rest + a, rest + b, rest + c))


def certificate_residues(cert: Certificate, cfg: DecoderConfig) -> list[str]:
    """The six reduced words: y1..y3 with their two modified symbols removed,
    y4..y6 restricted to their two unmodified anchor symbols."""
    return [y.translate(t) for y, t in zip(cert.words, _residue_tables(cfg.q, *cert.anchors))]


def _merge(residues: list[str], n: int) -> tuple[str, bool]:
    """The merge of reconstruction_steps: (emitted symbols, whether every
    reduced word was consumed).  Reduced word i, counted from 0, ends in the
    sentinel chr(i), outside every alphabet, so a consumed word never matches."""
    ends = "\0\1\2\3\4\5"
    w1, w2, w3, w4, w5, w6 = [iter(z + end) for z, end in zip(residues, ends)]
    h1, h2, h3, h4, h5, h6 = map(next, (w1, w2, w3, w4, w5, w6))
    out = []
    for _ in range(n):
        if h1 == h2 == h3:
            out.append(h1)
            h1, h2, h3 = next(w1), next(w2), next(w3)
        elif h3 == h5 == h6:
            out.append(h3)
            h3, h5, h6 = next(w3), next(w5), next(w6)
        elif h1 == h4 == h6:
            out.append(h1)
            h1, h4, h6 = next(w1), next(w4), next(w6)
        elif h2 == h4 == h5:
            out.append(h2)
            h2, h4, h5 = next(w2), next(w4), next(w5)
        else:
            break
    return "".join(out), h1 + h2 + h3 + h4 + h5 + h6 == ends


def reconstruction_steps(residues: list[str], n: int) -> Iterator[tuple]:
    """Merge rounds of the six reduced words from certificate_residues().

    Symbols outside the anchor triple lie in reduced words 1, 2, 3; s1 in 3,
    5, 6; s2 in 1, 4, 6; s3 in 2, 4, 5.  Each round emits the symbol heading
    all three words of its class and pops those heads.  Any two classes
    share a word, whose head is in one class only, so at most one class
    matches: its symbol is the unique one heading exactly three words.
    Yields (symbol, offsets) after every round, where offsets[i] is how much
    of reduced word i has been consumed.  Stops silently when no class
    matches or after n rounds.  The rounds replay _merge, reconstruct()'s
    path: a round pops every word its symbol heads.
    """
    offsets = (0,) * 6
    for sym in _merge(residues, n)[0]:
        offsets = tuple([p + z.startswith(sym, p) for p, z in zip(offsets, residues)])
        yield sym, offsets


def reconstruct(cert: Certificate, cfg: DecoderConfig) -> str:
    """Rebuild the transmitted word, in raw form, from a certificate.

    Returns "" when the merge invariant is violated (which a certificate from
    honest channel outputs never does).
    """
    word, consumed = _merge(certificate_residues(cert, cfg), cfg.n)
    return word if consumed and len(word) == cfg.n else ""


class RawOutputs:
    """StreamDecoder's default output adapter: an output is a raw str, a Word
    or a sequence of symbol ints, and its token is its raw form.

    A Word of this alphabet, or of a smaller one, was checked when built.
    read() makes any other output such a Word (Word.from_raw for a str,
    Word(y, q) otherwise), refusing a symbol outside the alphabet, and
    counts every output with symbol_counts.
    """

    __slots__ = ("q", "_alphabet")

    def __init__(self, q: int):
        self.q = q
        self._alphabet = alphabet(q)

    def read(self, y) -> tuple:
        """(raw form, symbol counts, length); raises ValueError on a symbol
        outside the alphabet."""
        if not (isinstance(y, Word) and y.q <= self.q):
            y = Word.from_raw(y, self.q) if isinstance(y, str) else Word(y, self.q)
        raw = y.raw
        return raw, symbol_counts(raw, self._alphabet), len(raw)

    @staticmethod
    def raw(token: str) -> str:
        return token


class StreamDecoder:
    """Online decoding engine (see the module docstring).

    push() takes one output in the form its output adapter reads: by default
    (RawOutputs) a raw str, a Word or a sequence of symbol ints.  An adapter
    has read(y) -> (token, symbol counts, length) and raw(token) -> the raw
    form.  push() returns None while undecided, the decoded word in raw form
    once certified, or "" if a certificate failed its merge (a Las Vegas
    "give up", never a wrong answer).  Certificates are only accepted once
    six outputs have been read, and hold the raw forms of their words.  With
    all budgets zero the first output is the answer and is returned
    immediately.  read() pushes a whole stream.  reads counts accepted
    outputs: one that push() refuses with ValueError (a wrong length, a
    symbol outside the alphabet) is not a read.
    """

    def __init__(self, cfg: DecoderConfig, outputs=None):
        self.cfg = cfg
        self.frontier = Frontier(cfg.q)
        self.reads = 0
        self.certificate: Certificate | None = None
        self.result = None
        self.outputs = outputs if outputs is not None else RawOutputs(cfg.q)

    @property
    def channels_required(self) -> int:
        """Outputs consumed beyond the one that merely initialised the
        tracking state; the zero-budget decode counts its single read."""
        if self.cfg.count_swing == 0 or self.reads == 0:
            return self.reads
        return self.reads - 1

    def push(self, y) -> str | None:
        if self.result is not None:
            raise RuntimeError("decoder already finished")
        cfg = self.cfg
        token, counts, length = self.outputs.read(y)
        if length not in cfg.output_lengths:
            raise ValueError(
                f"output length {length} outside [{cfg.n - cfg.t_del}, {cfg.n + cfg.t_ins}]"
            )
        self.reads += 1
        if cfg.count_swing == 0:
            self.result = self.outputs.raw(token)
            return self.result
        frontier = self.frontier
        frontier.update(token, counts, length)
        if frontier.pending and self.reads >= 6:
            cert = find_certificate(frontier, cfg)
            if cert is not None:
                words = tuple(map(self.outputs.raw, cert.words))
                self.certificate = cert = Certificate(cert.anchors, words)
                self.result = reconstruct(cert, cfg)
                return self.result
            frontier.pending.clear()
        return None

    def read(self, outputs: Iterable) -> str | None:
        """Push outputs one at a time until push() returns a result, the
        stream ends or cfg.read_cap outputs have been read in all.

        Returns push()'s result, or None when undecided.  Never takes an
        output from the stream past the read cap.
        """
        for y in itertools.islice(outputs, self.cfg.read_cap - self.reads):
            result = self.push(y)
            if result is not None:
                return result
        return None


def decode_stream(outputs: Iterable, cfg: DecoderConfig) -> Word:
    """Decode a stream of channel outputs (anything StreamDecoder.push takes)
    with StreamDecoder.read.

    Returns the transmitted word on success, and the empty word when the
    stream ended, the read cap was hit or a merge failed.  A nonempty result
    is always the transmitted word.
    """
    return Word.from_raw(StreamDecoder(cfg).read(outputs) or "", cfg.q)
