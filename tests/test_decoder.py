import itertools
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
    _slot_table,
    certificate_residues,
    decode_stream,
    find_certificate,
    reconstruct,
    reconstruction_steps,
)
from seqrecon.patterns import DrawOutputs, PatternSampler, apply_pattern
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
    with pytest.raises(ValueError, match="^requires n >= 1, got 0$"):
        DecoderConfig(q=4, n=0, t_sub=0, t_del=0, t_ins=1)
    with pytest.raises(ValueError, match="^budgets must be non-negative$"):
        DecoderConfig(q=4, n=10, t_sub=0, t_del=-1, t_ins=1)
    with pytest.raises(ValueError, match="^requires q >= 4, got q=3$"):
        Frontier(3)
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


@pytest.mark.parametrize(
    "q, y", [(4, "0123012301"), (5, "0123401234"), (8, "0123456701"), (12, "23456789:;")]
)
def test_first_push_marks_every_anchor_triple(q, y):
    dec = StreamDecoder(DecoderConfig(q, 10, 1, 1, 1))
    assert dec.push(y) is None
    ref = _ReferenceFrontier(q)
    ref.offer(y)
    assert dec.frontier.pending == set(range(len(dec.frontier._table.anchors)))
    assert _stored_slots(dec.frontier) == (ref.pairs, ref.triples)
    _assert_gates(dec.frontier)


@pytest.mark.parametrize("q, pairs, triples", [(4, 12, 0), (5, 20, 30), (8, 56, 168)])
def test_each_slot_is_stored_once(q, pairs, triples):
    # q(q-1) pair slots, then the triple slots with an outside set of two or
    # more symbols; at q = 4 every triple key is an alias of a pair slot.
    table = _slot_table(q)
    assert len(table.pair_index) == pairs
    assert sum(map(len, table.tri_groups)) == triples
    assert len(table.slot_anchors) == len(Frontier(q)._word) == pairs + triples
    assert sorted(set(table.pair_index.values()) | set(table.tri_index.values())) == list(range(pairs + triples))
    for i, (_, _, _, *slots) in enumerate(table.anchors):
        assert len(set(slots)) == 6
        assert all(i in table.slot_anchors[k] for k in slots)
        assert i in table.y1_anchors[slots[0]]
    assert sum(map(len, table.y1_anchors)) == len(table.anchors)
    assert not any(table.y1_anchors[pairs:])
    for anchors in table.slot_anchors:
        assert len(set(anchors)) == len(anchors)


def test_q4_triple_slot_holds_what_pair_slot_of_the_fourth_symbol_holds():
    # At q = 4 the count outside {a, b, c} is M_d, so triple slot (a, b, c)
    # and pair slot (a, d) take the same rule.  The reference keeps them
    # apart; after every push both agree with the shared slot.
    n, budgets = 30, (1, 1, 1)
    sampler = PatternSampler(n, 4, *budgets)
    rng = random.Random("alias:4")
    x = "".join(rng.choices(alphabet(4), k=n))
    frontier, ref = Frontier(4), _ReferenceFrontier(4)
    tri_keys = list(frontier._table.tri_index)
    assert len(tri_keys) == 12
    for _ in range(500):
        y = sampler.apply_draw(sampler.draw(rng), x)
        offer(frontier, y)
        ref.offer(y)
        for a, b, c in tri_keys:
            (d,) = {0, 1, 2, 3} - {a, b, c}
            assert frontier.get_triple(a, b, c) == frontier.get_pair(a, d)
            assert ref.triples[(a, b, c)] == ref.pairs[(a, d)]


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
    # Recount the six words and re-check all seven count equalities.
    s1, s2, s3 = cert.anchors
    c1, c2, c3, c4, c5, c6 = counts = [symbol_counts(w, alphabet(6)) for w in cert.words]
    out1, _, _, out4, out5, out6 = (len(w) - c[s1] - c[s2] - c[s3] for w, c in zip(cert.words, counts))
    swing, grow = FIX_CFG.count_swing, FIX_CFG.t_ins + FIX_CFG.t_sub
    assert c1[s1] == c2[s1] + swing and c2[s2] == c3[s2] + swing and c3[s3] == c1[s3] + swing
    assert c2[s1] == c4[s1] and c3[s2] == c5[s2] and c1[s3] == c6[s3]
    assert out4 == out5 == out6 == out1 + grow


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
    with pytest.raises(ValueError):
        dec.push(Word.parse("1200321071", 8))  # a valid word of a larger alphabet
    dec2, out = feed(FIX_ROWS, FIX_CFG)
    assert out == FIX_X
    with pytest.raises(RuntimeError):
        dec2.push(FIX_ROWS[0])


def test_default_read_cap():
    assert DecoderConfig(q=4, n=100, t_sub=0, t_del=0, t_ins=1).read_cap == 300
    assert DecoderConfig(q=4, n=37, t_sub=0, t_del=0, t_ins=1).read_cap == 1_000_000
    assert DecoderConfig(q=5, n=100, t_sub=0, t_del=0, t_ins=1).read_cap == 1_000_000
    cfg = DecoderConfig(q=4, n=100, t_sub=1, t_del=1, t_ins=1, max_reads=77)
    assert cfg.read_cap == 77


def test_decode_stream_takes_exactly_max_reads_outputs():
    taken = []

    def outputs():
        while True:
            taken.append(FIX_ROWS[0])
            yield FIX_ROWS[0]

    cfg = DecoderConfig(q=6, n=10, t_sub=1, t_del=1, t_ins=2, max_reads=7)
    assert decode_stream(outputs(), cfg).text == ""
    assert len(taken) == 7
    # The cap counts reads made before read() and leaves the rest unread.
    dec = StreamDecoder(cfg)
    dec.push(FIX_ROWS[0])
    stream = iter([FIX_ROWS[0]] * 10)
    assert dec.read(stream) is None
    assert dec.reads == 7
    assert len(list(stream)) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_count_swing_bounds_every_output_pair(seed):
    rng = random.Random(seed)
    cfg = DecoderConfig(q=4, n=12, t_sub=1, t_del=1, t_ins=1)
    sampler = PatternSampler(12, 4, 1, 1, 1)
    x = sample_codeword(CodeParams(q=4, n=12), rng)
    outs = [sampler.apply_draw(sampler.draw(rng), x.text) for _ in range(8)]
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
            out = dec.push(sampler.apply_draw(sampler.draw(rng), x.text))
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
        out = dec.push(Word.from_raw(sampler.apply_draw(sampler.draw(rng), x.raw), 12).symbols)
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


@pytest.mark.parametrize("q", [4, 6, 12])
def test_word_counts_equal_str_counts(q):
    # A Word of the decoder's alphabet or a smaller one is counted with its
    # last symbol taken from the length; the str path counts every symbol.
    outputs = StreamDecoder(DecoderConfig(q, 10, 1, 1, 1)).outputs
    rng = random.Random(f"word-counts:{q}")
    for p in (2, q - 1, q):
        for length in (0, 1, 9, 12):
            w = Word([rng.randrange(p) for _ in range(length)], p)
            assert outputs.read(w) == outputs.read(w.raw) == (w.raw, symbol_counts(w.raw, alphabet(q)), length)


def test_zero_budget_push_rejects_symbols_outside_alphabet():
    dec = StreamDecoder(DecoderConfig(q=4, n=4, t_sub=0, t_del=0, t_ins=0))
    with pytest.raises(ValueError):
        dec.push("0129")


def _max_count_shift(y, x):
    return max(abs(y.count(d) - x.count(d)) for d in set(x + y))


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
    outs = sorted({sampler.apply_draw(sampler.draw(rng), x) for _ in range(400)})
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


class _ReferenceFrontier:
    """The decoder's frontier and scan without the gate or the pending set:
    every slot is offered every output, and certificate() scans every anchor
    permutation in lexicographic order.  Slots map key -> (word, counts)."""

    def __init__(self, q):
        self.q = q
        self.pairs = {(a, b): None for a in range(q) for b in range(q) if a != b}
        self.triples = {
            (a, b, c): None
            for a in range(q)
            for b, c in itertools.combinations(range(q), 2)
            if a not in (b, c)
        }

    def offer(self, word):
        counts = symbol_counts(word, alphabet(self.q))
        for (a, b), slot in self.pairs.items():
            if slot is None or (counts[a] <= slot[1][a] and counts[b] >= slot[1][b]):
                self.pairs[(a, b)] = (word, counts)
        for (a, b, c), slot in self.triples.items():
            if slot is None or (
                counts[a] <= slot[1][a]
                and len(word) - counts[a] - counts[b] - counts[c]
                >= len(slot[0]) - slot[1][a] - slot[1][b] - slot[1][c]
            ):
                self.triples[(a, b, c)] = (word, counts)

    def certificate(self, cfg):
        swing, grow = cfg.count_swing, cfg.t_ins + cfg.t_sub
        for s1, s2, s3 in itertools.permutations(range(self.q), 3):
            slots = (
                self.pairs[(s3, s1)],
                self.pairs[(s1, s2)],
                self.pairs[(s2, s3)],
                self.triples[(s1,) + tuple(sorted((s2, s3)))],
                self.triples[(s2,) + tuple(sorted((s1, s3)))],
                self.triples[(s3,) + tuple(sorted((s1, s2)))],
            )
            c1, c2, c3, c4, c5, c6 = (c for _, c in slots)
            out1, _, _, out4, out5, out6 = (len(w) - c[s1] - c[s2] - c[s3] for w, c in slots)
            if (
                c1[s1] == c2[s1] + swing
                and c2[s2] == c3[s2] + swing
                and c3[s3] == c1[s3] + swing
                and (c2[s1], c3[s2], c1[s3]) == (c4[s1], c5[s2], c6[s3])
                and out4 == out5 == out6 == out1 + grow
            ):
                return Certificate((s1, s2, s3), tuple(w for w, _ in slots))
        return None


def _stored_slots(frontier):
    # Every pair key and every triple key, read through the table's index,
    # so a triple key that shares a pair slot is compared too.
    table = frontier._table
    pairs = {key: (frontier._word[k], frontier._counts[k]) for key, k in table.pair_index.items()}
    triples = {key: (frontier._word[k], frontier._counts[k]) for key, k in table.tri_index.items()}
    return pairs, triples


def _assert_gates(frontier):
    # Each kind's gate is the largest M_a of its kind in a's group.  At q = 4
    # no triple group exists, and the triple gate admits no count.
    table = frontier._table
    if frontier.q == 4:
        assert not any(table.tri_groups)
    for a in range(frontier.q):
        pair = max(frontier._ma[k] for k, _ in table.pair_groups[a])
        tri = max((frontier._ma[k] for k, _, _ in table.tri_groups[a]), default=-1)
        assert (frontier._pair_gate[a], frontier._tri_gate[a]) == (pair, tri)


def _gates_passed(frontier, y):
    """(pair gate passed, triple gate passed) for each symbol of y."""
    counts = symbol_counts(y, alphabet(frontier.q))
    return {(ca <= frontier._pair_gate[a], ca <= frontier._tri_gate[a]) for a, ca in enumerate(counts)}


@pytest.mark.parametrize(
    "q, n, reads",
    [(4, 12, 600), (5, 12, 600), (8, 12, 200), (12, 12, 50), (8, 40, 1000)],
    ids=["4-600", "5-600", "8-200", "12-50", "8-n40-1000"],
)
@pytest.mark.parametrize("budgets", [(1, 1, 1), (0, 1, 2), (2, 1, 1)])
def test_incremental_decoder_matches_full_scan_and_ungated_update(q, n, reads, budgets):
    # After every push the gated frontier holds what the ungated one holds,
    # its gates are the maxima they stand for, and the scan of pending anchor
    # triples finds what a scan of all of them finds: on a seeded stream and
    # on the adversarial orders of test_las_vegas_on_adversarial_orders.
    cfg = DecoderConfig(q, n, *budgets)
    sampler = PatternSampler(n, q, *budgets)
    rng = random.Random(f"incremental:{q}:{budgets}")
    x = "".join(rng.choices(alphabet(q), k=n))
    stream = [sampler.apply_draw(sampler.draw(rng), x) for _ in range(reads)]
    outs = sorted(set(stream))
    orders = [
        stream,
        outs,
        [outs[rng.randrange(len(outs))]] * 30 + outs,
        sorted(outs, key=lambda y: _max_count_shift(y, x)),
    ]
    decoded = 0
    passed = set()
    for order in orders:
        dec = StreamDecoder(cfg)
        ref = _ReferenceFrontier(q)
        for y in order:
            passed |= _gates_passed(dec.frontier, y)
            got = dec.push(y)
            ref.offer(y)
            assert _stored_slots(dec.frontier) == (ref.pairs, ref.triples)
            _assert_gates(dec.frontier)
            expected = ref.certificate(cfg)
            if got is not None:
                assert dec.certificate == expected
                assert got in ("", x)
                decoded += got == x
                break
            assert find_certificate(dec.frontier, cfg) == expected
    if budgets == (0, 1, 2) and q <= 8 or (q, budgets) == (4, (1, 1, 1)):
        assert decoded == len(orders)
    if (n, budgets) == (40, (1, 1, 1)):
        # On this long q=8 stream some symbols pass one kind's gate only.
        assert {(True, False), (False, True)} <= passed


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("budgets", [(0, 1, 1), (1, 0, 0), (0, 0, 1), (1, 0, 2)])
def test_arbitrary_words_decode_like_the_full_scan(q, budgets):
    # Words of the allowed lengths with seeded random symbols, not outputs
    # of one word: a slot's stored counts change on ties, and triple slots
    # improve alone, far more often than on honest streams.  After every
    # push the result, the reads and the certificate are those of the
    # ungated frontier with a full scan.
    found = 0
    for n in range(3, 6):
        cfg = DecoderConfig(q, n, *budgets)
        for stream in range(100):
            rng = random.Random(f"arbitrary:{q}:{budgets}:{n}:{stream}")
            dec, ref = StreamDecoder(cfg), _ReferenceFrontier(q)
            for reads in range(1, 41):
                y = "".join(rng.choices(alphabet(q), k=rng.choice(cfg.output_lengths)))
                got = dec.push(y)
                ref.offer(y)
                expected = ref.certificate(cfg) if reads >= 6 else None
                assert (dec.reads, dec.certificate) == (reads, expected)
                assert got == (None if expected is None else reconstruct(expected, cfg))
                if got is not None:
                    found += 1
                    break
    assert found >= 10



@pytest.mark.parametrize(
    "q, n, budgets", [(4, 30, (1, 1, 1)), (5, 20, (0, 1, 2)), (13, 12, (1, 0, 1)), (4, 9, (0, 0, 0))]
)
def test_draws_decode_like_their_outputs(q, n, budgets):
    # Pushing draws through DrawOutputs and pushing the words they make give
    # the same answer after the same reads, and the same certificate in raw
    # form.
    sampler = PatternSampler(n, q, *budgets)
    cfg = DecoderConfig(q, n, *budgets)
    for seed in range(6):
        rng = random.Random(f"adapter:{q}:{seed}")
        x = "".join(rng.choices(alphabet(q), k=n))
        draws = [sampler.draw(rng) for _ in range(3000)]
        by_draw = StreamDecoder(cfg, outputs=DrawOutputs(sampler, x))
        by_word = StreamDecoder(cfg)
        assert by_draw.read(draws) == by_word.read(sampler.apply_draw(d, x) for d in draws) == x
        assert by_draw.reads == by_word.reads
        assert by_draw.certificate == by_word.certificate


def test_reconstruct_time_linear_in_length():
    def seconds_per_symbol(n):
        cfg = DecoderConfig(q=4, n=n, t_sub=1, t_del=1, t_ins=1)
        sampler = PatternSampler(n, 4, 1, 1, 1)
        rng = random.Random(f"reconstruct:{n}")
        x = sample_codeword(CodeParams(q=4, n=n), rng).text
        dec = StreamDecoder(cfg)
        for _ in range(20_000):
            if dec.push(sampler.apply_draw(sampler.draw(rng), x)) is not None:
                break
        assert dec.result == x
        cert = dec.certificate
        best = min(timeit.repeat(lambda: reconstruct(cert, cfg), number=1, repeat=9))
        return best / n

    seconds_per_symbol(200)  # warm-up
    ratio = seconds_per_symbol(2000) / seconds_per_symbol(200)
    assert ratio <= 2.0, f"per-symbol reconstruct time ratio {ratio:.2f}"


def _all_outputs(sampler, x):
    """apply_draw of every draw in the sampler's pattern space, in the layout
    PatternSampler.draw returns: nondecreasing gaps with their inserted
    symbols, then sorted deletion and substitution positions with offsets."""
    n, q = sampler.n, sampler.q
    insertions = [
        (gaps, symbols)
        for total in range(sampler.t_ins + 1)
        for gaps in itertools.combinations_with_replacement(range(n + 1), total)
        for symbols in itertools.product(range(q), repeat=total)
    ]
    edits = [
        (tuple(p for p in picked if p not in subs), subs, offsets)
        for n_del in range(sampler.t_del + 1)
        for n_sub in range(sampler.t_sub + 1)
        for picked in itertools.combinations(range(n), n_del + n_sub)
        for subs in itertools.combinations(picked, n_sub)
        for offsets in itertools.product(range(q - 1), repeat=n_sub)
    ]
    return [sampler.apply_draw(ins + edit, x) for ins in insertions for edit in edits]


@pytest.mark.parametrize("n, t_sub, t_del, t_ins", [(6, 1, 1, 1), (8, 0, 1, 2)])
def test_las_vegas_over_whole_pattern_space(n, t_sub, t_del, t_ins):
    # Every honest output of a small case, in orders built to fill the
    # certificate slots late or with repeats: a decode is right or empty.
    cfg = DecoderConfig(q=4, n=n, t_sub=t_sub, t_del=t_del, t_ins=t_ins)
    sampler = PatternSampler(n, 4, t_sub, t_del, t_ins)
    rng = random.Random(f"whole-space:{n}")
    decoded = 0
    for _ in range(5):
        x = sample_codeword(CodeParams(q=4, n=n), rng)
        outs = sorted(_all_outputs(sampler, x.raw))
        assert len(outs) == sampler.pattern_space
        shuffled = outs[:]
        rng.shuffle(shuffled)
        orders = [
            outs,
            outs[::-1],
            sorted(outs, key=lambda y: _max_count_shift(y, x.raw)),
            [outs[0]] * 50 + outs,
            shuffled,
        ]
        for order in orders:
            got = decode_stream(order, cfg)
            assert got in (x, Word((), 4))
            decoded += got == x
    if (n, t_sub, t_del, t_ins) == (8, 0, 1, 2):
        assert decoded > 0


def _reference_steps(residues, n):
    """The merge as a per-round heads dict: emit the unique symbol heading
    exactly three unexhausted reduced words."""
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


def _reference_reconstruct(cert, cfg):
    residues = certificate_residues(cert, cfg)
    steps = list(_reference_steps(residues, cfg.n))
    if len(steps) != cfg.n or steps[-1][1] != tuple(map(len, residues)):
        return ""
    return "".join(sym for sym, _ in steps)


def _corrupt(rng, word, symbols):
    """One substitution, deletion, insertion or shuffle of a raw word."""
    edit = rng.choice(("sub", "del", "ins", "shuffle"))
    p = rng.randrange(len(word) + 1)
    if edit == "ins":
        return word[:p] + rng.choice(symbols) + word[p:]
    if edit == "shuffle":
        return "".join(rng.sample(word, len(word)))
    if p == len(word):
        return word
    return word[:p] + (rng.choice(symbols) if edit == "sub" else "") + word[p + 1:]


def _honest_certificate(q, n, budgets, seed):
    rng = random.Random(f"merge:{q}:{budgets}:{seed}")
    x = "".join(rng.choices(alphabet(q), k=n))
    sampler = PatternSampler(n, q, *budgets)
    dec = StreamDecoder(DecoderConfig(q, n, *budgets))
    while dec.result is None:
        dec.push(sampler.apply_draw(sampler.draw(rng), x))
    assert dec.result == x
    return dec.certificate, rng


@pytest.mark.parametrize(
    "q, budgets", [(4, (1, 1, 1)), (6, (1, 1, 1)), (8, (1, 1, 1)), (13, (0, 1, 1)), (13, (0, 0, 2))]
)
def test_merge_matches_heads_dict_rule(q, budgets):
    # Honest certificates and corrupted copies (one to three of the six words
    # edited), merged for lengths n-2..n+1: reconstruct and every round of
    # reconstruction_steps agree with the heads-dict rule.  q=13 holds the
    # raw symbols ":", ";" and "<".
    n = 14
    symbols = alphabet(q)
    outcomes = set()
    for seed in range(3):
        cert, rng = _honest_certificate(q, n, budgets, seed)
        variants = [cert]
        for _ in range(30):
            words = list(cert.words)
            for i in rng.sample(range(6), rng.randint(1, 3)):
                words[i] = _corrupt(rng, words[i], symbols)
            variants.append(Certificate(cert.anchors, tuple(words)))
        for variant in variants:
            for length in range(n - 2, n + 2):
                cfg = DecoderConfig(q, length, 0, 0, 1)
                residues = certificate_residues(variant, cfg)
                expected = list(_reference_steps(residues, length))
                assert list(reconstruction_steps(residues, length)) == expected
                got = reconstruct(variant, cfg)
                assert got == _reference_reconstruct(variant, cfg)
                outcomes.add(bool(got))
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "residues, n",
    [
        (["", "", "", "", "", ""], 3),  # nothing to merge
        (["", "3", "", "", "", ""], 1),  # one symbol heads no class
        (["", "33", "3", "", "", ""], 2),  # an empty word in the outside class
        (["1", "2", "0", "12", "02", "01"], 5),  # all exhausted after three rounds
        (["31", "32", "30", "12", "02", "01"], 4),  # exactly n rounds drain every word
        (["31", "32", "30", "12", "02", "01"], 3),  # stops at n with words left over
    ],
)
def test_merge_edge_cases_match_heads_dict_rule(residues, n):
    assert list(reconstruction_steps(residues, n)) == list(_reference_steps(residues, n))


def _certificate_alphabets(anchors, q):
    """The symbols each of the six reduced words may hold."""
    s1, s2, s3 = anchors
    outside = [s for s in range(q) if s not in anchors]
    return [outside + [s2], outside + [s3], outside + [s1], [s2, s3], [s1, s3], [s1, s2]]


@st.composite
def _merge_inputs(draw):
    q = draw(st.sampled_from([4, 5, 13]))
    anchors = tuple(draw(st.permutations(range(q)))[:3])
    raw = alphabet(q)
    x = draw(st.text(raw, min_size=1, max_size=12))
    residues = certificate_residues(Certificate(anchors, (x,) * 6), DecoderConfig(q, 1, 0, 0, 1))
    alphabets = _certificate_alphabets(anchors, q)
    for i in draw(st.sets(st.integers(0, 5))):
        residues[i] = draw(st.text("".join(raw[s] for s in alphabets[i]), max_size=12))
    return q, anchors, residues, draw(st.just(len(x)) | st.integers(max(1, len(x) - 2), len(x) + 2))


@settings(max_examples=300, deadline=None)
@given(_merge_inputs())
def test_merge_is_las_vegas(case):
    # Over arbitrary reduced words: a nonempty merge has length n and gives
    # back the six reduced words it came from.
    q, anchors, residues, n = case
    cfg = DecoderConfig(q, n, 0, 0, 1)
    cert = Certificate(anchors, tuple(residues))
    assert certificate_residues(cert, cfg) == residues
    got = reconstruct(cert, cfg)
    if got:
        assert len(got) == n
        assert certificate_residues(Certificate(anchors, (got,) * 6), cfg) == residues
