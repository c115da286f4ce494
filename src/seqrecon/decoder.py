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

Outputs are held in the raw form of seqrecon.words, one character per symbol,
for every q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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


def default_max_reads(cfg: DecoderConfig) -> int:
    if cfg.q == 4:
        median = _BASELINE_MEDIANS.get((cfg.n, cfg.t_sub, cfg.t_del, cfg.t_ins))
        if median is not None:
            return 50 * median
    return 1_000_000


class Frontier:
    """Best-so-far outputs per ordered symbol pair and per symbol triple.

    Slot (a, b) is displaced by a new output y when M_a(y) <= stored M_a and
    M_b(y) >= stored M_b, both non-strict and both at once; slot (a, b, c)
    uses M_a and the count outside {a, b, c}.  Ties displace.  The (a, b, c)
    rule is symmetric in b, c so those slots are stored once per unordered
    {b, c} and looked up under any order.  Every slot keeps the stored word's
    symbol counts so certificate checks need no recount.
    """

    __slots__ = (
        "q",
        "pair_keys",
        "tri_keys",
        "_pair_index",
        "_tri_index",
        "_pair_word",
        "_pair_counts",
        "_pair_len",
        "_pair_ma",
        "_pair_mb",
        "_tri_word",
        "_tri_counts",
        "_tri_len",
        "_tri_ma",
        "_tri_out",
        "initialized",
    )

    def __init__(self, q: int):
        if q < 4:
            raise ValueError(f"requires q >= 4, got q={q}")
        self.q = q
        self.pair_keys = [(a, b) for a in range(q) for b in range(q) if a != b]
        self.tri_keys = [
            (a, b, c)
            for a in range(q)
            for b, c in itertools.combinations((s for s in range(q) if s != a), 2)
        ]
        self._pair_index = {key: k for k, key in enumerate(self.pair_keys)}
        self._tri_index = {key: k for k, key in enumerate(self.tri_keys)}
        np, nt = len(self.pair_keys), len(self.tri_keys)
        self._pair_word = [None] * np
        self._pair_counts = [None] * np
        self._pair_len = [0] * np
        self._pair_ma = [0] * np
        self._pair_mb = [0] * np
        self._tri_word = [None] * nt
        self._tri_counts = [None] * nt
        self._tri_len = [0] * nt
        self._tri_ma = [0] * nt
        self._tri_out = [0] * nt
        self.initialized = False

    def update(self, word, counts: tuple[int, ...], length: int) -> bool:
        """Offer one output to every slot; returns True when any slot's stored
        counts changed (a word swap with identical counts is no change)."""
        if not self.initialized:
            for k, (a, b) in enumerate(self.pair_keys):
                self._pair_word[k] = word
                self._pair_counts[k] = counts
                self._pair_len[k] = length
                self._pair_ma[k] = counts[a]
                self._pair_mb[k] = counts[b]
            for k, (a, b, c) in enumerate(self.tri_keys):
                self._tri_word[k] = word
                self._tri_counts[k] = counts
                self._tri_len[k] = length
                self._tri_ma[k] = counts[a]
                self._tri_out[k] = length - counts[a] - counts[b] - counts[c]
            self.initialized = True
            return True
        changed = False
        pma, pmb = self._pair_ma, self._pair_mb
        pword, pcounts, plen = self._pair_word, self._pair_counts, self._pair_len
        for k, (a, b) in enumerate(self.pair_keys):
            if counts[a] <= pma[k] and counts[b] >= pmb[k]:
                if pcounts[k] != counts or plen[k] != length:
                    changed = True
                pword[k] = word
                pcounts[k] = counts
                plen[k] = length
                pma[k] = counts[a]
                pmb[k] = counts[b]
        tma, tout = self._tri_ma, self._tri_out
        tword, tcounts, tlen = self._tri_word, self._tri_counts, self._tri_len
        for k, (a, b, c) in enumerate(self.tri_keys):
            out = length - counts[a] - counts[b] - counts[c]
            if counts[a] <= tma[k] and out >= tout[k]:
                if tcounts[k] != counts or tlen[k] != length:
                    changed = True
                tword[k] = word
                tcounts[k] = counts
                tlen[k] = length
                tma[k] = counts[a]
                tout[k] = out
        return changed

    def get_pair(self, a: int, b: int):
        """(stored word, M_a, M_b) for slot (a, b)."""
        k = self._pair_index[(a, b)]
        return self._pair_word[k], self._pair_ma[k], self._pair_mb[k]

    def get_triple(self, a: int, b: int, c: int):
        """(stored word, M_a, count outside {a,b,c}) for slot (a, b, c)."""
        k = self._tri_index[(a,) + tuple(sorted((b, c)))]
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

    def verify(self, cfg: DecoderConfig) -> bool:
        """Recount the six words and re-check all seven equalities."""
        s1, s2, s3 = self.anchors
        symbols = alphabet(cfg.q)
        counts = [symbol_counts(w, symbols) for w in self.words]
        c1, c2, c3, c4, c5, c6 = counts
        out1, _, _, out4, out5, out6 = (
            len(w) - c[s1] - c[s2] - c[s3] for w, c in zip(self.words, counts)
        )
        swing = cfg.count_swing
        grow = cfg.t_ins + cfg.t_sub
        return (
            c1[s1] == c2[s1] + swing
            and c2[s2] == c3[s2] + swing
            and c3[s3] == c1[s3] + swing
            and c2[s1] == c4[s1]
            and c3[s2] == c5[s2]
            and c1[s3] == c6[s3]
            and out4 == out1 + grow
            and out5 == out1 + grow
            and out6 == out1 + grow
        )


def find_certificate(frontier: Frontier, cfg: DecoderConfig) -> Certificate | None:
    """Scan symbol triples in lexicographic order; return the first whose six
    slots satisfy all seven count equalities, or None."""
    if not frontier.initialized:
        return None
    swing = cfg.count_swing
    grow = cfg.t_ins + cfg.t_sub
    pidx = frontier._pair_index
    tidx = frontier._tri_index
    pc, pl = frontier._pair_counts, frontier._pair_len
    tc, tl = frontier._tri_counts, frontier._tri_len
    for s1, s2, s3 in itertools.permutations(range(frontier.q), 3):
        k1 = pidx[(s3, s1)]
        k2 = pidx[(s1, s2)]
        c1, c2 = pc[k1], pc[k2]
        if c1[s1] != c2[s1] + swing:
            continue
        k3 = pidx[(s2, s3)]
        c3 = pc[k3]
        if c2[s2] != c3[s2] + swing or c3[s3] != c1[s3] + swing:
            continue
        k4 = tidx[(s1,) + tuple(sorted((s2, s3)))]
        k5 = tidx[(s2,) + tuple(sorted((s1, s3)))]
        k6 = tidx[(s3,) + tuple(sorted((s1, s2)))]
        c4, c5, c6 = tc[k4], tc[k5], tc[k6]
        if c2[s1] != c4[s1] or c3[s2] != c5[s2] or c1[s3] != c6[s3]:
            continue
        target = pl[k1] - c1[s1] - c1[s2] - c1[s3] + grow
        if (
            tl[k4] - c4[s1] - c4[s2] - c4[s3] == target
            and tl[k5] - c5[s1] - c5[s2] - c5[s3] == target
            and tl[k6] - c6[s1] - c6[s2] - c6[s3] == target
        ):
            return Certificate(
                (s1, s2, s3),
                (
                    frontier._pair_word[k1],
                    frontier._pair_word[k2],
                    frontier._pair_word[k3],
                    frontier._tri_word[k4],
                    frontier._tri_word[k5],
                    frontier._tri_word[k6],
                ),
            )
    return None


def certificate_residues(cert: Certificate, cfg: DecoderConfig) -> list[str]:
    """The six reduced words: y1..y3 with their two modified symbols removed,
    y4..y6 restricted to their two unmodified anchor symbols."""
    s1, s2, s3 = cert.anchors
    codes = [ord(c) for c in alphabet(cfg.q)]

    def drop(*symbols):
        return dict.fromkeys([codes[s] for s in symbols])

    def keep(a, b):
        return drop(*(s for s in range(cfg.q) if s != a and s != b))

    tables = (drop(s1, s3), drop(s1, s2), drop(s2, s3), keep(s2, s3), keep(s1, s3), keep(s1, s2))
    return [y.translate(table) for y, table in zip(cert.words, tables)]


def reconstruction_steps(residues: list[str], n: int) -> Iterator[tuple]:
    """Merge rounds of the six reduced words from certificate_residues().

    Each round finds the unique symbol heading exactly three of the reduced
    words, emits it, and pops those three heads; yields (symbol, offsets)
    after every round, where offsets[i] is how much of reduced word i has
    been consumed.  Stops silently when no unique such symbol exists or more
    than n symbols would be emitted; reconstruct() turns that into the empty
    result.
    """
    lens = [len(z) for z in residues]
    ptr = [0] * 6
    emitted = 0
    while ptr != lens:
        heads: dict = {}
        for i in range(6):
            if ptr[i] < lens[i]:
                heads.setdefault(residues[i][ptr[i]], []).append(i)
        triples = [(sym, idxs) for sym, idxs in heads.items() if len(idxs) == 3]
        if len(triples) != 1 or emitted >= n:
            return
        sym, idxs = triples[0]
        for i in idxs:
            ptr[i] += 1
        emitted += 1
        yield sym, tuple(ptr)


def reconstruct(cert: Certificate, cfg: DecoderConfig) -> str:
    """Rebuild the transmitted word, in raw form, from a certificate.

    Returns "" when the merge invariant is violated (which a certificate from
    honest channel outputs never does).
    """
    residues = certificate_residues(cert, cfg)
    out = []
    offsets = None
    for sym, offsets in reconstruction_steps(residues, cfg.n):
        out.append(sym)
    if len(out) != cfg.n or offsets != tuple(map(len, residues)):
        return ""
    return "".join(out)


class StreamDecoder:
    """Online decoding engine over raw outputs (see the module docstring).

    push() takes an output as a raw str, a Word or a sequence of symbol ints.
    It returns None while undecided, the decoded word in raw form once
    certified, or "" if a certificate failed its merge (a Las Vegas "give
    up", never a wrong answer).  Certificates are only accepted once six
    outputs have been read.  With all budgets zero the first output is the
    answer and is returned immediately.
    """

    def __init__(self, cfg: DecoderConfig):
        self.cfg = cfg
        self.frontier = Frontier(cfg.q)
        self.reads = 0
        self.certificate: Certificate | None = None
        self.result = None
        self._alphabet = alphabet(cfg.q)
        self._pending = False

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
        raw = as_raw(y)
        cfg = self.cfg
        self.reads += 1
        length = len(raw)
        if not cfg.n - cfg.t_del <= length <= cfg.n + cfg.t_ins:
            raise ValueError(
                f"output length {length} outside [{cfg.n - cfg.t_del}, {cfg.n + cfg.t_ins}]"
            )
        counts = symbol_counts(raw, self._alphabet)
        if cfg.count_swing == 0:
            self.result = raw
            return raw
        if self.frontier.update(raw, counts, length):
            self._pending = True
        if self._pending and self.reads >= 6:
            self._pending = False
            cert = find_certificate(self.frontier, cfg)
            if cert is not None:
                self.certificate = cert
                self.result = reconstruct(cert, cfg)
                return self.result
        return None


def decode_stream(outputs: Iterable, cfg: DecoderConfig) -> Word:
    """Decode a stream of channel outputs (anything StreamDecoder.push takes).

    Reads words one by one until a certificate fires, the stream ends, or the
    read cap is hit; returns the transmitted word on success and the empty
    word otherwise.  A nonempty result is always the transmitted word.
    """
    cap = cfg.max_reads if cfg.max_reads is not None else default_max_reads(cfg)
    dec = StreamDecoder(cfg)
    for y in outputs:
        if dec.reads >= cap:
            break
        out = dec.push(y)
        if out is not None:
            return Word.from_raw(out, cfg.q)
    return Word((), cfg.q)
