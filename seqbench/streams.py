"""Codewords and honest channel-output streams, built without seqrecon.

The decode workload must not move when seqrecon's sampler changes, so this
module draws its own codewords and channel outputs from `random.Random`.

Codewords come from the paper's frequency-restricted code: a q-ary word of
length n is a codeword when its two most common symbols together fill fewer
than ceil((p-1)n/p) positions, p = 2^4/e.  They are drawn uniformly by
rejection.

Every stream line applies exactly one substitution, one deletion and one
insertion to the codeword (the full budget t = (1, 1, 1)), drawn uniformly:
a deletion position, a distinct substitution position, a replacement symbol
unequal to the original, an insertion gap 0..n (gap g lies after original
symbol g) and an inserted symbol.  Every line is therefore an honest output.

`honest_stream` finds, from the drawn patterns alone, the read at which the
paper's certificate first exists: the first read r >= 6 by which, for some
ordered symbol triple (s1, s2, s3), the three pair extremes (s3,s1),
(s1,s2), (s2,s3) and the three triple extremes (s1,{s2,s3}),
(s2,{s1,s3}), (s3,{s1,s2}) have all been seen.  Under the full budget a
pair extreme (a, b) is only produced by deleting an a, turning an a into b
and inserting b; a triple extreme (a, {b, c}) only by deleting an a and
turning an a and inserting a symbol outside {a, b, c}.  It sizes the stored
stream; it is not used as a check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

DIGITS = "0123456789"


def top_two_limit(n: int) -> int:
    """ceil((p-1) n / p) with p = 16/e, e summed exactly to 45 terms."""
    e = sum(Fraction(1, math.factorial(k)) for k in range(45))
    p = Fraction(16) / e
    return math.ceil((p - 1) * n / p)


def draw_codeword(rng: random.Random, q: int, n: int, limit: int) -> str:
    alphabet = DIGITS[:q]
    while True:
        x = "".join(rng.choices(alphabet, k=n))
        counts = sorted((x.count(a) for a in alphabet), reverse=True)
        if counts[0] + counts[1] < limit:
            return x


def draw_line(rng: random.Random, x: str, q: int):
    """One full-budget output of x and the symbols its pattern touched:
    (line, deleted, substituted, replacement, inserted)."""
    n = len(x)
    d, s = rng.sample(range(n), 2)
    old = int(x[s])
    new = rng.randrange(q - 1)
    new += new >= old
    g = rng.randrange(n + 1)
    c = rng.randrange(q)
    y = x[:s] + DIGITS[new] + x[s + 1 :]
    y = y[:g] + DIGITS[c] + y[g:]
    di = d if d < g else d + 1
    return y[:di] + y[di + 1 :], int(x[d]), old, new, c


class CertificateWatch:
    """Tracks which pair and triple extremes the lines so far have shown."""

    def __init__(self, q: int):
        self.q = q
        self.pairs: set[tuple[int, int]] = set()
        self.triples: set[tuple[int, frozenset]] = set()
        self.orders = list(itertools.permutations(range(q), 3))

    def offer(self, deleted: int, substituted: int, new: int, inserted: int) -> bool:
        """Record one line's pattern; True when it showed a new extreme."""
        if deleted != substituted or inserted == deleted:
            return False
        a = deleted
        fresh = False
        if new == inserted and (a, new) not in self.pairs:
            self.pairs.add((a, new))
            fresh = True
        rest = [s for s in range(self.q) if s not in (a, new, inserted)]
        for b, c in itertools.combinations(rest, 2):
            key = (a, frozenset((b, c)))
            if key not in self.triples:
                self.triples.add(key)
                fresh = True
        return fresh

    def complete(self) -> bool:
        pairs, triples = self.pairs, self.triples
        for s1, s2, s3 in self.orders:
            if (
                (s3, s1) in pairs
                and (s1, s2) in pairs
                and (s2, s3) in pairs
                and (s1, frozenset((s2, s3))) in triples
                and (s2, frozenset((s1, s3))) in triples
                and (s3, frozenset((s1, s2))) in triples
            ):
                return True
        return False


def honest_stream(rng: random.Random, x: str, q: int) -> tuple[list[str], int]:
    """Lines of x up to and past the read at which a certificate first
    exists; returns (lines, that read).  A quarter more lines plus 16 follow
    it, so a decoder that halts a little later still finds input."""
    watch = CertificateWatch(q)
    lines: list[str] = []
    pending = False
    halt = None
    while halt is None:
        line, *pattern = draw_line(rng, x, q)
        lines.append(line)
        pending |= watch.offer(*pattern)
        if pending and len(lines) >= 6:
            pending = False
            if watch.complete():
                halt = len(lines)
    for _ in range(halt // 4 + 16):
        lines.append(draw_line(rng, x, q)[0])
    return lines, halt
