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
a Word stores, so pushing one costs no conversion.  Simulation stores raw
draws of a PatternSampler instead and counts them in O(t)
(patterns.DrawOutputs).  StreamDecoder.read is the one read loop: it stops
at the first decision, at the end of the stream or at DecoderConfig.read_cap
reads.

A read pays for what it changes.  Frontier.update skips the slots anchored at
a symbol the new output holds too many of to displace any of them, and marks
the anchor triples of every slot whose stored counts changed; the certificate
scan checks only those, since the check reads stored counts alone.  The
slots and anchor triples of each q are tabulated once per process
(_slot_table).  The merge that rebuilds the word makes four fixed tests a
round, one per class of symbol, of which at most one can match
(reconstruction_steps); its tables are built once per anchor triple.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .words import Word, alphabet, as_raw, symbol_counts

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

    @property
    def count_swing(self) -> int:
        """Maximal gap between one symbol's counts in two outputs of the same
        word: t_del + t_ins + 2 t_sub."""
        return self.t_del + self.t_ins + 2 * self.t_sub

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

    pair_keys: list  # (a, b), grouped by a
    tri_keys: list  # (a, b, c) with b < c, grouped by a
    pair_index: dict
    tri_index: dict
    pair_groups: tuple  # per symbol a: ((slot, b), ...) of the pair slots (a, b)
    tri_groups: tuple  # per symbol a: ((slot, b, c), ...) of the triple slots (a, b, c)
    anchors: tuple  # (s1, s2, s3, k1, ..., k6) per permutation, in lexicographic order
    pair_anchors: tuple  # per pair slot: indices into anchors of the triples using it
    tri_anchors: tuple  # per triple slot: the same


@functools.lru_cache(maxsize=16)
def _slot_table(q: int) -> _SlotTable:
    symbols = range(q)
    pair_keys = [(a, b) for a in symbols for b in symbols if a != b]
    tri_keys = [
        (a, b, c)
        for a in symbols
        for b, c in itertools.combinations((s for s in symbols if s != a), 2)
    ]
    pair_index = {key: k for k, key in enumerate(pair_keys)}
    tri_index = {key: k for k, key in enumerate(tri_keys)}

    def tri(a, b, c):
        return tri_index[(a, min(b, c), max(b, c))]

    anchors = []
    pair_anchors = [[] for _ in pair_keys]
    tri_anchors = [[] for _ in tri_keys]
    for i, (s1, s2, s3) in enumerate(itertools.permutations(symbols, 3)):
        pairs = (pair_index[(s3, s1)], pair_index[(s1, s2)], pair_index[(s2, s3)])
        triples = (tri(s1, s2, s3), tri(s2, s1, s3), tri(s3, s1, s2))
        anchors.append((s1, s2, s3) + pairs + triples)
        for k in pairs:
            pair_anchors[k].append(i)
        for k in triples:
            tri_anchors[k].append(i)
    return _SlotTable(
        pair_keys,
        tri_keys,
        pair_index,
        tri_index,
        tuple(tuple((k, b) for k, (x, b) in enumerate(pair_keys) if x == a) for a in symbols),
        tuple(tuple((k, b, c) for k, (x, b, c) in enumerate(tri_keys) if x == a) for a in symbols),
        tuple(anchors),
        tuple(map(tuple, pair_anchors)),
        tuple(map(tuple, tri_anchors)),
    )


class Frontier:
    """Best-so-far outputs per ordered symbol pair and per symbol triple.

    Slot (a, b) is displaced by a new output y when M_a(y) <= stored M_a and
    M_b(y) >= stored M_b, both non-strict and both at once; slot (a, b, c)
    uses M_a and the count outside {a, b, c}.  Ties displace.  The (a, b, c)
    rule is symmetric in b, c so those slots are stored once per unordered
    {b, c} and looked up under any order.  A slot stores the output's token
    (see StreamDecoder) with its symbol counts, so certificate checks need
    no recount and never read a word.

    The slots anchored at a symbol a, (a, b) and (a, b, c), form its group.
    `_gate[a]` is the largest M_a stored in a's group: an output with more
    a's than that displaces none of them, ties included, so update() skips
    the group.  `pending` holds the indices, in the table's lexicographic
    anchor order, of the anchor triples that use a slot whose stored counts
    changed; the first output changes every slot.
    find_certificate() checks only those, and the caller clears the set
    after a scan that found nothing.
    """

    __slots__ = (
        "q",
        "_table",
        "_pair_word",
        "_pair_counts",
        "_pair_ma",
        "_pair_mb",
        "_tri_word",
        "_tri_counts",
        "_tri_ma",
        "_tri_out",
        "_gate",
        "pending",
    )

    def __init__(self, q: int):
        if q < 4:
            raise ValueError(f"requires q >= 4, got q={q}")
        self.q = q
        self._table = table = _slot_table(q)
        np, nt = len(table.pair_keys), len(table.tri_keys)
        # Bounds that the first output beats in every slot.
        self._pair_word = [None] * np
        self._pair_counts = [None] * np
        self._pair_ma = [math.inf] * np
        self._pair_mb = [-1] * np
        self._tri_word = [None] * nt
        self._tri_counts = [None] * nt
        self._tri_ma = [math.inf] * nt
        self._tri_out = [-1] * nt
        self._gate = [math.inf] * q
        self.pending: set[int] = set()

    def update(self, token, counts: tuple[int, ...], length: int) -> None:
        """Offer one output's token, with its symbol counts and length, to
        every slot; mark as pending the anchor triples of every slot whose
        stored counts changed (a token swap with identical counts is no
        change)."""
        table = self._table
        gate, pending = self._gate, self.pending
        pma, pmb = self._pair_ma, self._pair_mb
        pword, pcounts, pair_anchors = self._pair_word, self._pair_counts, table.pair_anchors
        tma, tout = self._tri_ma, self._tri_out
        tword, tcounts, tri_anchors = self._tri_word, self._tri_counts, table.tri_anchors
        for a, ca in enumerate(counts):
            if ca > gate[a]:
                continue
            lowered = False
            for k, b in table.pair_groups[a]:
                if ca <= pma[k] and counts[b] >= pmb[k]:
                    if pcounts[k] != counts:
                        pending.update(pair_anchors[k])
                    lowered = lowered or ca < pma[k]
                    pword[k] = token
                    pcounts[k] = counts
                    pma[k] = ca
                    pmb[k] = counts[b]
            rest = length - ca
            for k, b, c in table.tri_groups[a]:
                out = rest - counts[b] - counts[c]
                if ca <= tma[k] and out >= tout[k]:
                    if tcounts[k] != counts:
                        pending.update(tri_anchors[k])
                    lowered = lowered or ca < tma[k]
                    tword[k] = token
                    tcounts[k] = counts
                    tma[k] = ca
                    tout[k] = out
            if lowered:
                gate[a] = max(
                    max(pma[k] for k, _ in table.pair_groups[a]),
                    max(tma[k] for k, _, _ in table.tri_groups[a]),
                )

    def get_pair(self, a: int, b: int):
        """(stored token, M_a, M_b) for slot (a, b)."""
        k = self._table.pair_index[(a, b)]
        return self._pair_word[k], self._pair_ma[k], self._pair_mb[k]

    def get_triple(self, a: int, b: int, c: int):
        """(stored token, M_a, count outside {a,b,c}) for slot (a, b, c)."""
        k = self._table.tri_index[(a,) + tuple(sorted((b, c)))]
        return self._tri_word[k], self._tri_ma[k], self._tri_out[k]


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
    """Check the frontier's pending anchor triples in lexicographic order;
    return the first whose six slots satisfy all seven count equalities, or
    None.  The certificate's words are the six slots' stored tokens.

    The check reads stored counts only, so a triple whose six slots are
    unchanged since a scan that rejected it still fails: the first pending
    hit is the first hit of a scan over all triples.
    """
    swing = cfg.count_swing
    grow = cfg.t_ins + cfg.t_sub
    anchors = frontier._table.anchors
    pc, pw = frontier._pair_counts, frontier._pair_word
    tc, tw, tout = frontier._tri_counts, frontier._tri_word, frontier._tri_out
    for i in sorted(frontier.pending):
        s1, s2, s3, k1, k2, k3, k4, k5, k6 = anchors[i]
        c1, c2 = pc[k1], pc[k2]
        if c1[s1] != c2[s1] + swing:
            continue
        c3 = pc[k3]
        if c2[s2] != c3[s2] + swing or c3[s3] != c1[s3] + swing:
            continue
        if c2[s1] != tc[k4][s1] or c3[s2] != tc[k5][s2] or c1[s3] != tc[k6][s3]:
            continue
        target = sum(c1) - c1[s1] - c1[s2] - c1[s3] + grow
        if tout[k4] == target and tout[k5] == target and tout[k6] == target:
            return Certificate((s1, s2, s3), (pw[k1], pw[k2], pw[k3], tw[k4], tw[k5], tw[k6]))
    return None


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
    or a sequence of symbol ints, and its token is its raw form."""

    __slots__ = ("_alphabet",)

    def __init__(self, q: int):
        self._alphabet = alphabet(q)

    def read(self, y) -> tuple:
        """(raw form, symbol counts, length); raises ValueError on a symbol
        outside the alphabet."""
        raw = as_raw(y)
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
    immediately.  read() pushes a whole stream.
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
        self.reads += 1
        token, counts, length = self.outputs.read(y)
        if not cfg.n - cfg.t_del <= length <= cfg.n + cfg.t_ins:
            raise ValueError(
                f"output length {length} outside [{cfg.n - cfg.t_del}, {cfg.n + cfg.t_ins}]"
            )
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
