import random
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from seqrecon.codebook import CodeParams, sample_codeword
from seqrecon.decoder import (
    Certificate,
    DecoderConfig,
    Frontier,
    StreamDecoder,
    certificate_residues,
    decode_stream,
    default_max_reads,
    find_certificate,
    reconstruct,
    reconstruction_steps,
)
from seqrecon.patterns import PatternSampler, apply_pattern
from seqrecon.words import Word, alphabet, symbol_counts

# Worked six-output fixture over q=6, n=10 with budgets (subs, dels, ins) = (1, 1, 2).
FIX_X = "1200321021"
FIX_ROWS = [
    "10003010210",  # pair slot (2, 0)
    "12132110121",  # pair slot (0, 1)
    "22003202212",  # pair slot (1, 2)
    "31203213241",  # triple slot (0, {1, 2})
    "34203032021",  # triple slot (1, {0, 2})
    "31003351021",  # triple slot (2, {0, 1})
]
FIX_CFG = DecoderConfig(q=6, n=10, t_sub=1, t_del=1, t_ins=2)


def offer(frontier, raw):
    frontier.update(raw, symbol_counts(raw, alphabet(frontier.q)), len(raw))


def feed(rows, cfg):
    dec = StreamDecoder(cfg)
    out = None
    for row in rows:
        out = dec.push(row)
        if out is not None:
            break
    return dec, out


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(q=3, n=10, t_sub=0, t_del=0, t_ins=1)
    with pytest.raises(ValueError):
        DecoderConfig(q=4, n=2, t_sub=2, t_del=1, t_ins=0)
    cfg = DecoderConfig(q=4, n=10, t_sub=2, t_del=1, t_ins=3)
    assert cfg.count_swing == 8


def test_symbol_counts():
    y1 = symbol_counts(FIX_ROWS[0], alphabet(6))
    y2 = symbol_counts(FIX_ROWS[1], alphabet(6))
    assert y1[0] == 6
    assert y2[0] == 1
    assert y1[0] == y2[0] + FIX_CFG.count_swing
    assert symbol_counts("0" * 7, alphabet(4)) == (7, 0, 0, 0)
    with pytest.raises(ValueError):
        symbol_counts("015", alphabet(4))


def test_frontier_initialises_from_first_word():
    f = Frontier(4)
    offer(f, "0123")
    for a in range(4):
        for b in range(4):
            if a != b:
                word, ma, mb = f.get_pair(a, b)
                assert word == "0123" and ma == 1 and mb == 1
    word, ma, mout = f.get_triple(2, 0, 1)
    assert word == "0123" and ma == 1 and mout == 1


def test_frontier_displacement_rules():
    f = Frontier(4)
    offer(f, "0123")
    # strictly better on both coordinates for slot (0, 1)
    offer(f, "1123")
    word, ma, mb = f.get_pair(0, 1)
    assert word == "1123" and ma == 0 and mb == 2
    # worse on the first coordinate leaves the slot alone
    offer(f, "0023")
    assert f.get_pair(0, 1)[0] == "1123"
    # equal counts displace (non-strict comparisons)
    offer(f, "1213")
    word, ma, mb = f.get_pair(0, 1)
    assert word == "1213" and ma == 0 and mb == 2


def test_fixture_certificate_and_slot_assignment():
    f = Frontier(6)
    for row in FIX_ROWS:
        offer(f, row)
    assert f.get_pair(2, 0)[0] == FIX_ROWS[0]
    assert f.get_pair(0, 1)[0] == FIX_ROWS[1]
    assert f.get_pair(1, 2)[0] == FIX_ROWS[2]
    assert f.get_triple(0, 1, 2)[0] == FIX_ROWS[3]
    assert f.get_triple(1, 0, 2)[0] == FIX_ROWS[4]
    assert f.get_triple(2, 0, 1)[0] == FIX_ROWS[5]
    cert = find_certificate(f, FIX_CFG)
    assert cert is not None
    assert cert.anchors == (0, 1, 2)
    assert list(cert.words) == FIX_ROWS
    assert cert.verify(FIX_CFG)


def test_no_certificate_from_identical_outputs():
    f = Frontier(6)
    for _ in range(8):
        offer(f, FIX_ROWS[0])
    assert find_certificate(f, FIX_CFG) is None


def test_reconstruct_fixture_with_midpoint_state():
    cert = Certificate((0, 1, 2), tuple(FIX_ROWS))
    residues = certificate_residues(cert, FIX_CFG)
    steps = list(reconstruction_steps(residues, FIX_CFG.n))
    symbols = "".join(sym for sym, _ in steps)
    assert symbols == FIX_X
    after5 = [z[p:] for z, p in zip(residues, steps[4][1])]
    assert after5 == ["11", "22", "0", "2121", "202", "101"]
    assert reconstruct(cert, FIX_CFG) == FIX_X


def test_reconstruct_refuses_inconsistent_certificate():
    bad = Certificate((0, 1, 2), ("1", "2", "0", "1", "2", "0"))
    cfg = DecoderConfig(q=4, n=1, t_sub=0, t_del=0, t_ins=1)
    assert reconstruct(bad, cfg) == ""


def test_decode_stream_fixture_and_reorderings():
    rows = [Word.parse(r, 6) for r in FIX_ROWS]
    assert decode_stream(rows, FIX_CFG).text == FIX_X
    assert decode_stream(rows[::-1], FIX_CFG).text == FIX_X
    interleaved = [rows[0], rows[3], rows[0], rows[1], rows[4], rows[2], rows[1], rows[5]]
    assert decode_stream(interleaved, FIX_CFG).text == FIX_X


def test_decode_stream_needs_six_outputs():
    rows = [Word.parse(r, 6) for r in FIX_ROWS[:5]]
    assert decode_stream(rows, FIX_CFG).text == ""


def test_decode_stream_gives_up_on_repeats():
    rows = [Word.parse(FIX_ROWS[0], 6)] * 30
    assert decode_stream(rows, FIX_CFG).text == ""


def test_decode_stream_zero_budget_returns_first_word():
    cfg = DecoderConfig(q=4, n=6, t_sub=0, t_del=0, t_ins=0)
    got = decode_stream([Word.parse("012301", 4)], cfg)
    assert got.text == "012301"
    dec = StreamDecoder(cfg)
    assert dec.push("012301") == "012301"
    assert dec.channels_required == 1


def test_push_validates_outputs():
    dec = StreamDecoder(FIX_CFG)
    with pytest.raises(ValueError):
        dec.push("12")  # far too short
    with pytest.raises(ValueError):
        dec.push("1200321091")  # symbol 9 outside q=6
    dec2, out = feed(FIX_ROWS, FIX_CFG)
    assert out == FIX_X
    with pytest.raises(RuntimeError):
        dec2.push(FIX_ROWS[0])


def test_default_read_cap():
    assert default_max_reads(DecoderConfig(q=4, n=100, t_sub=0, t_del=0, t_ins=1)) == 300
    assert default_max_reads(DecoderConfig(q=4, n=37, t_sub=0, t_del=0, t_ins=1)) == 1_000_000
    cfg = DecoderConfig(q=4, n=100, t_sub=1, t_del=1, t_ins=1, max_reads=77)
    assert cfg.max_reads == 77


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_count_swing_bounds_every_output_pair(seed):
    rng = random.Random(seed)
    cfg = DecoderConfig(q=4, n=12, t_sub=1, t_del=1, t_ins=1)
    sampler = PatternSampler(12, 4, 1, 1, 1)
    x = sample_codeword(CodeParams(q=4, n=12), rng)
    outs = [sampler.sample_output(rng, x.text) for _ in range(8)]
    for i, y in enumerate(outs):
        for z in outs[i + 1:]:
            for d in "0123":
                assert abs(y.count(d) - z.count(d)) <= cfg.count_swing


def test_randomised_end_to_end_never_wrong():
    cfg = DecoderConfig(q=4, n=30, t_sub=1, t_del=1, t_ins=1)
    sampler = PatternSampler(30, 4, 1, 1, 1)
    params = CodeParams(q=4, n=30)
    decoded = 0
    for trial in range(120):
        rng = random.Random(f"e2e:{trial}")
        x = sample_codeword(params, rng)
        dec = StreamDecoder(cfg)
        out = None
        for _ in range(30_000):
            out = dec.push(sampler.sample_output(rng, x.text))
            if out is not None:
                break
        if out:
            decoded += 1
            assert out == x.text
    assert decoded >= 110  # halting is overwhelmingly likely at these budgets


def test_tuple_path_for_large_alphabets():
    cfg = DecoderConfig(q=12, n=8, t_sub=0, t_del=0, t_ins=1)
    x = Word(range(8), 12)
    sampler = PatternSampler(8, 12, 0, 0, 1)
    rng = random.Random(3)
    dec = StreamDecoder(cfg)
    out = None
    for _ in range(5000):
        out = dec.push(Word.from_raw(sampler.sample_output(rng, x.raw), 12).symbols)
        if out is not None:
            break
    assert out == x.raw


def test_decode_stream_accepts_int_tuples():
    for q, n in ((4, 12), (12, 8)):
        rng = random.Random(f"tuples:{q}")
        x = Word([rng.randrange(q) for _ in range(n)], q)
        sampler = PatternSampler(n, q, 0, 0, 1)
        stream = [apply_pattern(x, sampler.sample(rng, x)).symbols for _ in range(5000)]
        cfg = DecoderConfig(q=q, n=n, t_sub=0, t_del=0, t_ins=1)
        assert decode_stream(stream, cfg) == x


def test_zero_budget_push_rejects_symbols_outside_alphabet():
    dec = StreamDecoder(DecoderConfig(q=4, n=4, t_sub=0, t_del=0, t_ins=0))
    with pytest.raises(ValueError):
        dec.push("0129")


def _max_count_shift(y, x):
    return max(abs(y.count(d) - x.count(d)) for d in "0123")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**30))
def test_las_vegas_on_adversarial_orders(seed):
    # Honest outputs in orders a uniform stream rarely produces: sorted, one
    # output repeated many times first, and the outputs whose symbol counts
    # move furthest (those that fill certificate slots) last.
    rng = random.Random(seed)
    n = 16
    cfg = DecoderConfig(q=4, n=n, t_sub=1, t_del=1, t_ins=1)
    sampler = PatternSampler(n, 4, 1, 1, 1)
    x = sample_codeword(CodeParams(q=4, n=n), rng).text
    outs = sorted({sampler.sample_output(rng, x) for _ in range(400)})
    orders = [
        outs,
        [outs[rng.randrange(len(outs))]] * 200 + outs,
        sorted(outs, key=lambda y: _max_count_shift(y, x)),
    ]
    for order in orders:
        dec = StreamDecoder(cfg)
        out = None
        for y in order:
            out = dec.push(y)
            if out is not None:
                break
        assert out in (None, "", x)


def test_reconstruct_time_linear_in_length():
    def seconds_per_symbol(n):
        cfg = DecoderConfig(q=4, n=n, t_sub=1, t_del=1, t_ins=1)
        sampler = PatternSampler(n, 4, 1, 1, 1)
        rng = random.Random(f"reconstruct:{n}")
        x = sample_codeword(CodeParams(q=4, n=n), rng).text
        dec = StreamDecoder(cfg)
        for _ in range(20_000):
            if dec.push(sampler.sample_output(rng, x)) is not None:
                break
        assert dec.result == x
        cert = dec.certificate
        best = min(timeit.repeat(lambda: reconstruct(cert, cfg), number=1, repeat=9))
        return best / n

    seconds_per_symbol(200)  # warm-up
    ratio = seconds_per_symbol(2000) / seconds_per_symbol(200)
    assert ratio <= 2.0, f"per-symbol reconstruct time ratio {ratio:.2f}"
