"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything here is
deterministic given the fixed seeds except the wall-clock measurements in
criteria 1, 2, 9 and 10.
"""

import gc
import itertools
import math
import os
import random
import statistics
import time
from collections import Counter
from fractions import Fraction

from seqrecon import bounds
from seqrecon.channels import ChannelModel, transmit_all, transmit_random
from seqrecon.decoder import (
    Certificate,
    DecoderConfig,
    StreamDecoder,
    certificate_residues,
    decode_stream,
    reconstruction_steps,
)
from seqrecon.oracle import confusable_max, extremal_search
from seqrecon.patterns import PatternSampler, apply_deletion, enumerate_deletion_vectors
from seqrecon.simulate import SimSpec, run_sim
from seqrecon.words import Word, hamming_ball_volume

M = ChannelModel.MULTISET
NM = ChannelModel.NON_MULTISET

JOBS = max(1, os.cpu_count() or 1)
SEED = 20240601


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def W(text, q=2):
    return Word.parse(text, q)


def singleton(n, pos):
    return W("0" * (pos - 1) + "1" + "0" * (n - pos))


def test_criterion_01_example_exactness():
    t0 = time.perf_counter()
    col = transmit_all(W("111100"), 1, "exactly", M)
    multiset_ok = {w.text: c for w, c in col.counts.items()} == {"11100": 4, "11110": 2}
    pair = (W("11101"), W("11011"))
    m8 = confusable_max(*pair, 2, "exactly", M).n_max_confusable == 8
    nm9 = confusable_max(*pair, 2, "exactly", NM).n_max_confusable == 9
    elapsed = time.perf_counter() - t0
    report(
        1, "example exactness",
        multiset_ok and m8 and nm9 and elapsed < 1.0,
        f"multiset={multiset_ok} m8={m8} nm9={nm9} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_tightness_sweep():
    failures = []
    n10_time = 0.0
    for n in range(4, 11):
        for t in (1, 2):
            if n < 2 * t + 2:
                continue
            for mode in ("exactly", "at_most"):
                t0 = time.perf_counter()
                found = extremal_search(n, 2, t, mode, NM).n_max_confusable
                if n == 10:
                    n10_time += time.perf_counter() - t0
                expected = bounds.pattern_bound(n, t, mode)
                if found + 1 != expected:
                    failures.append((n, t, mode, found + 1, expected))
    report(
        2, "non-multiset tightness sweep",
        not failures and n10_time < 300,
        f"mismatches={failures} n10_time={n10_time:.1f}s",
    )


def test_criterion_03_formulas_vs_oracle():
    bad = []

    # adjacent singleton pairs across the parameter box
    for n in range(2, 11):
        for t in range(1, 4):
            if n < t + 1:
                continue
            for a in range(1, n):
                got = confusable_max(
                    singleton(n, a), singleton(n, a + 1), t, "exactly", M
                ).n_max_confusable
                if got != bounds.adjacent_singleton_channels(n, t, a) - 1:
                    bad.append(("adjacent", n, t, a))

    # the three corollary families at (6,2), (8,2) and (12,2)
    for n, t in [(6, 2), (8, 2), (12, 2)]:
        half = n // 2
        centred = (singleton(n, half), singleton(n, half + 1))
        closed = math.comb(n, t) - math.comb(half - 1, t // 2) * math.comb(half - 1, (t + 1) // 2) + 1
        if closed != bounds.adjacent_singleton_channels(n, t, half):
            bad.append(("centred-form", n, t))
        if confusable_max(*centred, t, "exactly", M).n_max_confusable != closed - 1:
            bad.append(("centred-oracle", n, t))
        cumulative = bounds.cumulative_half_bound(n, t)
        if confusable_max(*centred, t, "at_most", M).n_max_confusable != cumulative - 1:
            bad.append(("cumulative-oracle", n, t))
    for h in (1, 2):  # off-centre family exists when n = h(2t+2), t = 2
        n, t = 6 * h, 2
        a = h * t
        pair = (singleton(n, a), singleton(n, a + 1))
        closed = (
            math.comb(n, t)
            - math.comb(h * t - 1, t // 2) * math.comb(h * (t + 2) - 1, (t + 1) // 2)
            + 1
        )
        if closed != bounds.adjacent_singleton_channels(n, t, a):
            bad.append(("offcentre-form", n))
        if confusable_max(*pair, t, "exactly", M).n_max_confusable != closed - 1:
            bad.append(("offcentre-oracle", n))

    # sorted weight-gap pairs
    for n in range(2, 11):
        for t in range(1, 4):
            if t > n:
                continue
            for b in range(1, t + 1):
                for w1 in range(b, n + 1):
                    x1 = W("1" * w1 + "0" * (n - w1))
                    x2 = W("1" * (w1 - b) + "0" * (n - w1 + b))
                    got = confusable_max(x1, x2, t, "exactly", M).n_max_confusable
                    if got != bounds.weight_gap_confusable(n, w1, b, t):
                        bad.append(("weight-gap", n, w1, b, t))

    report(3, "closed forms match the oracle", not bad, f"mismatches={bad}")


def test_criterion_04_extremal_pair_families():
    res6 = extremal_search(6, 2, 2, "exactly", M)
    pairs6 = {(a.text, b.text) for a, b in res6.pairs}
    ok6 = ("001000", "010000") in pairs6

    res8 = extremal_search(8, 2, 3, "exactly", M)
    pairs8 = {(a.text, b.text) for a, b in res8.pairs}
    ok8 = ("00001000", "00010000") in pairs8

    res12 = extremal_search(12, 2, 2, "exactly", M, budget=2**31, jobs=JOBS)
    pairs12 = {(a.text, b.text) for a, b in res12.pairs}
    ok12 = ("000010000000", "000100000000") in pairs12

    report(
        4, "extremal families found by search",
        ok6 and ok8 and ok12,
        f"n6={ok6} (max {res6.n_max_confusable}) n8={ok8} (max {res8.n_max_confusable}) "
        f"n12={ok12} (max {res12.n_max_confusable})",
    )


def test_criterion_05_weight_gap_one_dominated_by_singletons():
    bad = []
    for n in (4, 6, 8):
        for t in (1, 2):
            getters = list(enumerate_deletion_vectors(n, t, "exactly"))
            words = [W("".join(map(str, bits))) for bits in itertools.product((0, 1), repeat=n)]
            outs = [
                Counter(apply_deletion(w, d) for d in getters) for w in words
            ]

            def multiset_nmax(i, j):
                oi, oj = outs[i], outs[j]
                return sum(min(c, oj[y]) for y, c in oi.items() if y in oj)

            ones = [i for i, w in enumerate(words) if sum(w.symbols) == 1]
            singleton_best = max(multiset_nmax(i, j) for i in ones for j in ones if i < j)
            weights = [sum(w.symbols) for w in words]
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    if abs(weights[i] - weights[j]) == 1:
                        if multiset_nmax(i, j) > singleton_best:
                            bad.append((n, t, words[i].text, words[j].text))
    report(5, "weight-gap-one pairs never beat singleton pairs", not bad, f"violations={bad}")


def test_criterion_06_expectations():
    v = bounds.expected_unique_patterns(hamming_ball_volume(2, 100, 3), 100)
    unique_ok = 99.9 <= v <= 100.0

    # full-collection expectation against an exact rational harmonic sum
    h = Fraction(0)
    worst = 0.0
    for m in range(1, 1001):
        h += Fraction(1, m)
        worst = max(worst, abs(bounds.pccp_expectation(m, m) - float(m * h)))
    pccp_ok = worst <= 1e-6

    # distinct-pattern counts from random transmission vs the expectation
    m = hamming_ball_volume(2, 10, 2)
    expect = bounds.expected_unique_patterns(m, 50)
    x = W("0101010101")
    reps = 10_000
    values = []
    for rep in range(reps):
        col = transmit_random(x, 50, (0, 2, 0), M, rng_seed=rep)
        values.append(col.distinct_patterns)
    mean = sum(values) / reps
    var = sum((v - mean) ** 2 for v in values) / (reps - 1)
    sem = math.sqrt(var / reps)
    stat_ok = abs(mean - expect) <= 3 * sem

    report(
        6, "expectation formulas",
        unique_ok and pccp_ok and stat_ok,
        f"unique={v:.4f} pccp_worst_err={worst:.2e} mean={mean:.3f} "
        f"expect={expect:.3f} sem={sem:.4f}",
    )


def test_criterion_07_ratio_convergence():
    bad = []
    for t in (2, 4, 6):
        ratio = bounds.binom_ratio(10_000, t) / bounds.binom_ratio_limit(t)
        if not 1 <= ratio <= Fraction(101, 100):
            bad.append((t, float(ratio)))
    report(7, "binomial ratio convergence", not bad, f"out_of_band={bad}")


TABLE2_ROWS = [
    "10003010210",
    "12132110121",
    "22003202212",
    "31203213241",
    "34203032021",
    "31003351021",
]


def test_criterion_08_decoder_never_wrong():
    cfg = DecoderConfig(q=6, n=10, t_sub=1, t_del=1, t_ins=2)
    fixture = decode_stream([W(r, 6) for r in TABLE2_ROWS], cfg)
    fixture_ok = fixture.text == "1200321021"
    cert = Certificate((0, 1, 2), tuple(TABLE2_ROWS))
    residues = certificate_residues(cert, cfg)
    steps = list(reconstruction_steps(residues, cfg.n))
    mid = [z[p:] for z, p in zip(residues, steps[4][1])]
    mid_ok = mid == ["11", "22", "0", "2121", "202", "101"]

    res = run_sim(
        SimSpec(q=4, n=60, t_sub=1, t_del=1, t_ins=1, samples=100_000, seed=SEED, jobs=JOBS)
    )
    report(
        8, "decoder never wrong",
        fixture_ok and mid_ok and res.wrong_decodes == 0,
        f"fixture={fixture_ok} midstate={mid_ok} wrong={res.wrong_decodes} "
        f"failures={res.failures} trials={res.samples} avg={res.average:.1f}",
    )


import pytest


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_09_simulation_reproduction():
    spec = SimSpec(q=4, n=100, t_sub=0, t_del=0, t_ins=1, samples=4000, seed=SEED, jobs=JOBS)
    light = run_sim(spec)
    light_ok = abs(light.average - 7) <= 0.15 * 7 and light.median in (5, 6, 7)

    t0 = time.perf_counter()
    heavy = run_sim(
        SimSpec(q=4, n=100, t_sub=1, t_del=1, t_ins=1, samples=2500, seed=SEED, jobs=JOBS)
    )
    heavy_time = time.perf_counter() - t0
    heavy_ok = abs(heavy.average - 288) <= 0.15 * 288 and heavy_time < 600

    averages = [heavy.average if n == 100 else run_sim(
        SimSpec(q=4, n=n, t_sub=1, t_del=1, t_ins=1, samples=2000, seed=SEED, jobs=JOBS)
    ).average for n in (20, 60, 100, 200)]
    monotone = all(a > b for a, b in zip(averages, averages[1:]))

    report(
        9, "simulation table reproduction",
        light_ok and heavy_ok and monotone,
        f"light avg={light.average:.2f} med={light.median} heavy avg={heavy.average:.1f} "
        f"({heavy_time:.0f}s) averages={['%.1f' % a for a in averages]}",
    )


def test_criterion_10_decode_cost_linear():
    # A decode is its reads plus one reconstruct.  A read costs a + b * (its
    # symbols) and the reconstruct c * n + d; decoding is linear when neither
    # per-symbol slope, b nor c, grows with n.  So the gate is the growth of
    # each slope from n = 400..1600 to n = 1600..6400, at 2.0.  (A ratio of ns
    # per symbol across n reads the fixed part a as nonlinearity.)
    # - Each push is timed; the one that certifies and reconstructs is the
    #   decode's final push and is kept apart, since reads per decode vary.
    # - The ten decoders' pushes are interleaved in a seeded random order.
    #   Consecutive outputs of one word differ in a few symbols, and a
    #   branch predictor that learns a short word makes its str.count passes
    #   up to three times cheaper per symbol than a long word's.
    # - Garbage collection is off while timing: one generation-2 collection
    #   can take longer than a whole point.  Five rounds each pass once over
    #   the streams of every n, so that a slow spell of the host falls on all
    #   three points; the per-read figure is the fastest pass, and each
    #   decode's final push counts its fastest pass.
    cap = 1200
    lengths = (400, 1600, 6400)

    def streams(n):
        """Ten honest streams, each cut at the read that decodes it."""
        cfg = DecoderConfig(q=4, n=n, t_sub=1, t_del=1, t_ins=1)
        sampler = PatternSampler(n, 4, 1, 1, 1)
        out = []
        for seed in range(1, 11):
            rng = random.Random(f"lin:{seed}:{n}")
            x = "".join(rng.choices("0123", k=n))
            dec = StreamDecoder(cfg)
            stream = []
            while dec.result is None and len(stream) < cap:
                stream.append(sampler.apply_draw(sampler.draw(rng), x))
                dec.push(stream[-1])
            assert dec.result == x
            out.append(stream)
        return cfg, out

    def one_pass(cfg, batch, order):
        """Seconds per read but the last, and each decoder's final push."""
        decoders = [StreamDecoder(cfg) for _ in batch]
        taken = [0] * len(batch)
        reads = 0.0
        finals = [0.0] * len(batch)
        clock = time.perf_counter
        for i in order:
            y = batch[i][taken[i]]
            taken[i] += 1
            start = clock()
            result = decoders[i].push(y)
            elapsed = clock() - start
            if result is None:
                reads += elapsed
            else:
                finals[i] = elapsed
        return reads / (len(order) - len(batch)), finals

    batches = {}
    for n in lengths:
        cfg, batch = streams(n)
        order = [i for i, stream in enumerate(batch) for _ in stream]
        random.Random(f"lin-order:{n}").shuffle(order)
        batches[n] = (cfg, batch, order)
    passes = {n: [] for n in lengths}
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for n in lengths:
                passes[n].append(one_pass(*batches[n]))
    finally:
        gc.enable()
    symbols, per_read, final = {}, {}, {}
    for n, (cfg, batch, order) in batches.items():
        symbols[n] = sum(len(y) for stream in batch for y in stream[:-1]) / (len(order) - len(batch))
        per_read[n] = min(p[0] for p in passes[n])
        final[n] = statistics.mean(map(min, zip(*(p[1] for p in passes[n]))))

    def slope_growth(cost, size):
        """Slope of cost over size on n = 400..1600 and 1600..6400, and its growth."""
        a, b, c = lengths
        low = (cost[b] - cost[a]) / (size[b] - size[a])
        high = (cost[c] - cost[b]) / (size[c] - size[b])
        return low, high, high / low if low > 0 else math.inf

    read = slope_growth(per_read, symbols)
    last = slope_growth(final, {n: n for n in lengths})
    report(
        10, "decode cost linear in symbols read",
        read[2] <= 2.0 and last[2] <= 2.0,
        "us/read=" + str({n: round(t * 1e6, 2) for n, t in per_read.items()})
        + " ms/final=" + str({n: round(t * 1e3, 2) for n, t in final.items()})
        + f" read slope ns/sym {read[0] * 1e9:.1f} -> {read[1] * 1e9:.1f} (x{read[2]:.2f})"
        + f" final slope ns/sym {last[0] * 1e9:.0f} -> {last[1] * 1e9:.0f} (x{last[2]:.2f})",
    )
