import csv

import pytest

from seqrecon.simulate import CSV_COLUMNS, SimSpec, run_sim, run_sweep


def test_zero_budget_every_trial_uses_one_channel():
    res = run_sim(SimSpec(q=4, n=25, t_sub=0, t_del=0, t_ins=0, samples=200, seed=3))
    assert res.average == 1.0
    assert res.median == 1.0
    assert res.histogram == {1: 200}
    assert res.failures == 0
    assert res.wrong_decodes == 0


def test_reproducible_and_parallel_consistent():
    spec = SimSpec(q=4, n=40, t_sub=0, t_del=1, t_ins=1, samples=60, seed=99)
    a = run_sim(spec)
    b = run_sim(spec)
    c = run_sim(SimSpec(q=4, n=40, t_sub=0, t_del=1, t_ins=1, samples=60, seed=99, jobs=2))
    assert a.histogram == b.histogram == c.histogram
    assert a.average == b.average == c.average
    assert a.failures == b.failures == c.failures


def test_seed_changes_results():
    base = SimSpec(q=4, n=40, t_sub=0, t_del=0, t_ins=1, samples=80, seed=1)
    other = SimSpec(q=4, n=40, t_sub=0, t_del=0, t_ins=1, samples=80, seed=2)
    assert run_sim(base).histogram != run_sim(other).histogram


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_read_cap_produces_failures():
    res = run_sim(SimSpec(q=4, n=30, t_sub=1, t_del=1, t_ins=1, samples=10, seed=5, max_reads=3))
    assert res.failures == 10
    assert res.average is None
    assert res.median is None
    assert res.histogram == {}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_halting_fraction_grows_with_cap():
    lo = run_sim(SimSpec(q=4, n=30, t_sub=1, t_del=1, t_ins=1, samples=40, seed=5, max_reads=60))
    hi = run_sim(SimSpec(q=4, n=30, t_sub=1, t_del=1, t_ins=1, samples=40, seed=5, max_reads=6000))
    assert hi.failures <= lo.failures
    assert hi.failures == 0


def test_warns_when_length_below_halting_floor():
    with pytest.warns(UserWarning):
        run_sim(SimSpec(q=4, n=10, t_sub=1, t_del=1, t_ins=0, samples=2, seed=1, max_reads=50))


def test_sweep_rows_and_csv(tmp_path):
    path = tmp_path / "table.csv"
    specs = [
        SimSpec(q=4, n=20, t_sub=0, t_del=0, t_ins=1, samples=50, seed=12),
        SimSpec(q=4, n=30, t_sub=0, t_del=0, t_ins=1, samples=50, seed=12),
    ]
    rows = run_sweep(specs, str(path))
    assert [r["n"] for r in rows] == [20, 30]
    with open(path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        file_rows = list(reader)
    assert len(file_rows) == 2
    assert file_rows[0]["samples"] == "50"
    assert float(file_rows[0]["average"]) > 0


def test_empty_sweep():
    assert run_sweep([]) == []


def test_substitutions_hardest_among_single_increments():
    # raising the substitution budget costs far more channels than raising
    # the deletion or insertion budget by the same amount
    def average(ts, td, ti):
        return run_sim(
            SimSpec(q=4, n=100, t_sub=ts, t_del=td, t_ins=ti, samples=120, seed=21, jobs=2)
        ).average

    subs_heavy = average(2, 1, 1)
    assert subs_heavy > average(1, 2, 1)
    assert subs_heavy > average(1, 1, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(q=4, n=10, t_sub=0, t_del=0, t_ins=1, samples=0)
    with pytest.raises(ValueError):
        run_sim(SimSpec(q=3, n=10, t_sub=0, t_del=0, t_ins=1, samples=1))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fixed_seed_histograms_above_ten_symbols():
    # Words over more than ten symbols print in comma form; the histograms
    # must not depend on how symbols are held in memory.
    indels = run_sim(SimSpec(q=12, n=12, t_sub=0, t_del=1, t_ins=1, samples=12, seed=31))
    assert indels.histogram == {22: 1, 23: 1, 24: 1, 26: 3, 33: 2, 34: 1, 35: 2, 39: 1}
    subs = run_sim(SimSpec(q=12, n=16, t_sub=1, t_del=0, t_ins=0, samples=12, seed=31))
    assert subs.histogram == {
        13: 1, 17: 1, 18: 1, 19: 1, 22: 1, 23: 3, 25: 1, 27: 1, 29: 1, 35: 1
    }
    assert indels.failures == subs.failures == 0
    assert indels.wrong_decodes == subs.wrong_decodes == 0


# run_sim at seed 13, recorded before reads were counted from their draws:
# a faster read must not change a single trial.  Rows: the sim_heavy_q4 and
# sim_light_q4 benchmark rows, one row each at q = 5 and q = 13, and a read
# cap that makes most trials fail.
PINNED_RUNS = [
    ((4, 20, 1, 1, 1, 12, None), {
        79: 1, 165: 1, 190: 1, 227: 1, 228: 1, 262: 1, 292: 1, 310: 1, 331: 1, 358: 1, 1024: 1, 2434: 1
    }, 0),
    ((4, 100, 1, 1, 1, 12, None), {
        112: 1, 119: 1, 151: 1, 165: 1, 217: 1, 283: 1, 327: 1, 345: 1, 347: 1, 459: 1, 514: 1, 539: 1
    }, 0),
    ((4, 200, 1, 1, 1, 12, None), {
        110: 1, 150: 1, 164: 1, 197: 1, 200: 1, 205: 1, 235: 1, 258: 1, 259: 1, 271: 1, 369: 1, 559: 1
    }, 0),
    ((4, 100, 0, 0, 1, 20, None), {5: 8, 6: 2, 7: 4, 11: 1, 12: 3, 13: 1, 15: 1}, 0),
    ((4, 100, 0, 1, 1, 20, None), {
        11: 1, 13: 1, 16: 2, 18: 1, 19: 2, 20: 1, 21: 1, 23: 2, 27: 2, 28: 3, 30: 2, 35: 1, 45: 1
    }, 0),
    ((4, 100, 0, 0, 2, 20, None), {
        11: 1, 12: 1, 13: 1, 15: 1, 17: 1, 20: 1, 21: 1, 23: 1, 27: 1, 32: 3, 33: 1, 35: 1, 47: 1,
        53: 1, 56: 1, 66: 1, 74: 1, 83: 1,
    }, 0),
    ((5, 60, 1, 1, 1, 8, None), {97: 1, 181: 1, 227: 1, 289: 1, 408: 1, 546: 1, 554: 1, 604: 1}, 0),
    ((13, 40, 0, 1, 1, 12, None), {
        21: 1, 23: 1, 25: 1, 27: 1, 28: 2, 30: 1, 33: 1, 34: 1, 36: 1, 41: 1, 46: 1
    }, 0),
    ((4, 20, 1, 1, 1, 12, 200), {79: 1, 165: 1, 190: 1}, 9),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("row, histogram, failures", PINNED_RUNS)
def test_fixed_seed_histograms_are_pinned(row, histogram, failures):
    q, n, ts, td, ti, samples, cap = row
    res = run_sim(
        SimSpec(q=q, n=n, t_sub=ts, t_del=td, t_ins=ti, samples=samples, seed=13, max_reads=cap)
    )
    assert res.histogram == histogram
    assert res.failures == failures
    assert res.wrong_decodes == 0
