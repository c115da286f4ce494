import argparse
import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings

import pytest

from seqrecon import codebook, simulate
from seqrecon.bounds import pattern_bound
from seqrecon.cli import _infer_q, build_parser, main
from seqrecon.codebook import CodeParams, code_size_lower_bound
from seqrecon.oracle import extremal_search
from seqrecon.patterns import PatternSampler, apply_pattern
from seqrecon.words import Word

FIX_ROWS = [
    "10003010210",
    "12132110121",
    "22003202212",
    "31203213241",
    "34203032021",
    "31003351021",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bounds_pattern(capsys):
    code, out = run_cli(capsys, "bounds", "pattern", "--n", "6", "--t", "1", "--mode", "at-most")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == 5
    assert record["hypothesis_ok"] is True


def test_bounds_domain_error_exits_1(capsys):
    code, out = run_cli(capsys, "bounds", "pattern", "--n", "4", "--t", "2")
    assert code == 1
    record = json.loads(out)
    assert record["hypothesis_ok"] is False
    assert "error" in record


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_distinguish_reference_pair(capsys):
    code, out = run_cli(
        capsys, "distinguish", "--x", "11101", "--xp", "11011",
        "--t", "2", "--mode", "exactly", "--model", "multiset",
    )
    assert code == 0
    assert json.loads(out)["n_max_confusable"] == 8


@pytest.mark.parametrize(
    "argv, expected",
    [
        # comma form: the largest symbol is 10, so q = 11 is inferred
        (("distinguish", "--x", "10,0,3", "--xp", "0,10,3", "--t", "1", "--model", "multiset"),
         '{"error_type": "deletion", "mode": "exactly", "model": "multiset", "n_max_confusable": 2, '
         '"t": 1, "x": "10,0,3", "xp": "0,10,3"}\n'),
        # empty words: no symbol to infer from, so q = 2
        (("distinguish", "--x", "", "--xp", "", "--t", "0", "--model", "multiset"),
         '{"error_type": "deletion", "mode": "exactly", "model": "multiset", "n_max_confusable": 1, '
         '"t": 0, "x": "", "xp": ""}\n'),
        (("bounds", "weight-gap", "--n", "5", "--w1", "6", "--b", "1", "--t", "1"),
         '{"error": "requires b <= w1 <= n and t <= n, got w1=6, n=5, t=1", "hypothesis_ok": false}\n'),
    ],
    ids=["distinguish-comma-form", "distinguish-empty-words", "weight-gap-w1-above-n"],
)
def test_stdout_of_edge_arguments(capsys, argv, expected):
    assert run_cli(capsys, *argv)[1] == expected


def test_alphabet_inferred_from_word_texts():
    assert _infer_q("10,0,3", "0,10,3") == 11
    assert _infer_q("", " ") == 2


def test_distinguish_witness_included(capsys):
    code, out = run_cli(
        capsys, "distinguish", "--x", "11101", "--xp", "11011",
        "--t", "2", "--mode", "exactly", "--model", "non-multiset", "--witness",
    )
    record = json.loads(out)
    assert record["n_max_confusable"] == 9
    assert len(record["witness"]["patterns_x"]) == 9


def test_distinguish_refuses_before_enumerating(capsys):
    # C(34, 15) = 1,855,967,520 deletion patterns per word.
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "distinguish", "--x", "01" * 17, "--xp", "10" * 17,
        "--t", "15", "--model", "multiset",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == (
        '{"error": "1855967520 patterns exceed enumeration limit 10000000", "hypothesis_ok": false}\n'
    )


# sha256 of the concatenated stdout of `distinguish` over both modes, all
# three models, and without then with --witness, per alphabet, error type
# and budget.  A witness lists patterns in enumeration order, so these pin
# that order as well as the counts.
DISTINGUISH_PAIRS = {2: ("110100", "101100"), 3: ("120210", "102210"), 4: ("130212", "103212")}
DISTINGUISH_DIGESTS = {
    (2, "deletion", 0): "b19fa5763a12aaa998ecd8dee7c9a8faf17b0e2add891794d4f63ce492826c85",
    (2, "deletion", 1): "29772fb5794f3bf28e230dfe3c2c08942c774dec34a722dd76038623cca83f4e",
    (2, "deletion", 2): "044d992a9ddc6d955f0416939c8cc315b03fe98955f56c9642164aff63bfff62",
    (3, "deletion", 0): "8b995693eadc2c536cebc89e6d1ca38ea28061ac0e81eec5f8a8feaaae4b9cdf",
    (3, "deletion", 1): "44dbdb059b8ab0a72b4ded90600d3647430af4511c0391def3a563c3820d0886",
    (3, "deletion", 2): "bc7d7bc5a0c139181dbacf840e6735ccb736ffe3952da36aff384df7629a58b6",
    (4, "deletion", 0): "95533fe43d3c2485f8045c6abde69c4e120fb4c3802b0bae99b5204cfc42c1ce",
    (4, "deletion", 1): "3c64808d1e50486a1f7751a038c0903581039cf21055e02d4865b4ce1e5f324d",
    (4, "deletion", 2): "5f2f959babf2f387df1d005d439d00ff6244e3a3842861ea3c122304c7e89faa",
    (2, "insertion", 1): "1747ac5c224baec547c93ef02a9b07418e879c1d74695afb9896ee6ff5daa2d8",
    (3, "insertion", 1): "4ee9af25d17eee4db6cb15e5233538d280415f6f9950fc1bd9d95ee7db40ee7c",
    (4, "insertion", 1): "e35eca7b8c623031c8f96c2e3f060553449aa4050eb243e4597ca5e181b1ddb8",
    (2, "insertion", 2): "daecc0a29eb20cdc5cefa89e7a88d015c6accad0df788638c68db610399a602e",
    (3, "insertion", 2): "72a513cb4b92bcd5b2b49d8a416bb3f6cb33b1c70a79a6a1d14e84dc0db898ec",
    (4, "insertion", 2): "090f854195e62e96204ba7f2615a1caecbec88e70a7b7efab43bca4b037726da",
}


@pytest.mark.parametrize("q, error_type, t", sorted(DISTINGUISH_DIGESTS))
def test_distinguish_stdout_is_pinned(capsys, q, error_type, t):
    x, xp = DISTINGUISH_PAIRS[q]
    digest = hashlib.sha256()
    for mode in ("exactly", "at-most"):
        for model in ("traditional", "multiset", "non-multiset"):
            for witness in ((), ("--witness",)):
                code, out = run_cli(
                    capsys, "distinguish", "--x", x, "--xp", xp, "--q", str(q), "--t", str(t),
                    "--mode", mode, "--model", model, "--error-type", error_type, *witness,
                )
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == DISTINGUISH_DIGESTS[q, error_type, t]


def test_extremal_subcommand(capsys):
    code, out = run_cli(
        capsys, "extremal", "--n", "6", "--q", "2", "--t", "1",
        "--mode", "exactly", "--model", "non-multiset",
    )
    record = json.loads(out)
    assert record["n_max_confusable"] == 4
    assert ["000100", "001000"] in record["pairs"]


# sha256 of the concatenated stdout of `extremal` over both modes, all three
# models, and without then with --canonical, per (q, n, t).  t = n - 1 keeps
# one symbol per output and t = n keeps none; at t = n in the exactly mode no
# pair is distinguishable and the count is 0.
EXTREMAL_DIGESTS = {
    (2, 5, 0): "1089676c2bcaa6b1506abc1e8aed9bc70a97875b91823899021c1660fd162bb8",
    (2, 5, 1): "353f2b65c4bc2dad1aaaa4bb0e6b317a88b8d92043c6729dd61a3a4056e160d3",
    (2, 5, 2): "948cb22128f45063e58d3403c764f63917314abeb6f6a8837dbe0d63d5ac83ec",
    (2, 5, 3): "c4674b64853ddd0b054f21c2decff96a03eb0981e63461643c8d6a2688b62834",
    (2, 5, 4): "67307c8fa9938e0184faf37a1e9df9641a6e8fe3b15831a096e6f7c1e7e22f10",
    (2, 5, 5): "f97d611a2f189f84148f9e2657719df9a1714be3398f843907824b88f26b831f",
    (3, 4, 1): "717490e3c0f36a35086813b017d427825c948622c4383272387e9f4ab4713071",
    (3, 4, 2): "ce6e658d9e8ff9c5a14a3d3f93b2b4f089ef0739a33a02e2df8c884e044c4ae6",
    (3, 4, 3): "8079c3550b4e6c6f5e4d1ebad1407ade9e416e37ff1c83c5910d5cff6d89c803",
    (3, 4, 4): "5c7efadc24ac6ca0c3ffd6cc29b1f510b8a84baac72e2aeff7c65dac15f1d376",
    (4, 4, 1): "e72ed1bcc3d11a90beb7368e9388f154f3552bbf76e25c8e0a405dd40d670f00",
    (4, 4, 3): "7cd5e885204cc98f99d1913cc568590608d1584be4b702a1d38504d3cc8f5a3d",
    (4, 4, 4): "208cbfbd20f91a0716b56e01e24a9894646947cedafb7e2a2de52821ca7c075f",
    # The two heaviest points of the benchmark's extremal sweep; (2, 9, 3)
    # at most has a total of 130, past the 8-bit lanes of the pair scan.
    (2, 9, 3): "d6031ea005b5972420182fdd2ff56683c8f400ef8284af7adc549c957a510c34",
    (3, 6, 2): "32ef4c1ef425fb911eeebdcc2be8b69caf7209314fb48c4bb8977f146e230e8e",
}


@pytest.mark.parametrize("q, n, t", sorted(EXTREMAL_DIGESTS))
def test_extremal_stdout_is_pinned(capsys, q, n, t):
    digest = hashlib.sha256()
    for mode in ("exactly", "at-most"):
        for model in ("traditional", "multiset", "non-multiset"):
            for canonical in ((), ("--canonical",)):
                code, out = run_cli(
                    capsys, "extremal", "--n", str(n), "--q", str(q), "--t", str(t),
                    "--mode", mode, "--model", model, *canonical,
                )
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == EXTREMAL_DIGESTS[q, n, t]


def test_extremal_negative_length_is_an_error_record(capsys):
    code, out = run_cli(capsys, "extremal", "--n", "-1", "--q", "2", "--t", "0", "--model", "multiset")
    assert code == 1
    assert json.loads(out) == {"error": "n and t must be non-negative", "hypothesis_ok": False}


def test_extremal_budget_default_is_the_search_default():
    args = build_parser().parse_args(
        ["extremal", "--n", "4", "--q", "2", "--t", "1", "--model", "non-multiset"]
    )
    assert args.budget == inspect.signature(extremal_search).parameters["budget"].default


def test_code_subcommand(capsys):
    code, out = run_cli(capsys, "code", "--q", "4", "--n", "10", "--word", "0001112223")
    record = json.loads(out)
    assert record["top_two_threshold"] == 9
    assert record["is_codeword"] is True
    assert record["excluded_count"] == 67584


def test_code_zero_denominator_p_is_an_error_record(capsys):
    code, out = run_cli(capsys, "code", "--q", "4", "--n", "5", "--p", "1/0")
    assert code == 1
    assert json.loads(out) == {"error": "p=1/0 has a zero denominator", "hypothesis_ok": False}


def test_decode_from_file(capsys, tmp_path):
    path = tmp_path / "outputs.txt"
    path.write_text("\n".join(FIX_ROWS) + "\n")
    code, out = run_cli(
        capsys, "decode", "--q", "6", "--n", "10",
        "--ts", "1", "--td", "1", "--ti", "2", "--file", str(path),
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "1200321021"
    assert record["reads_consumed"] == 6
    assert record["certificate"]["anchors"] == [0, 1, 2]


def test_decode_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(FIX_ROWS) + "\n"))
    code, out = run_cli(
        capsys, "decode", "--q", "6", "--n", "10", "--ts", "1", "--td", "1", "--ti", "2",
    )
    assert code == 0
    assert json.loads(out)["result"] == "1200321021"


def test_decode_plain_format(capsys, tmp_path):
    path = tmp_path / "outputs.txt"
    path.write_text("\n".join(FIX_ROWS) + "\n")
    code, out = run_cli(
        capsys, "--format", "plain", "decode", "--q", "6", "--n", "10",
        "--ts", "1", "--td", "1", "--ti", "2", "--file", str(path),
    )
    assert out == "1200321021\n"


@pytest.mark.parametrize(
    "rows, extra, expected_code",
    [
        (FIX_ROWS, [], 0),
        ([FIX_ROWS[0], "123"], [], 1),  # a malformed line ends the read
        (FIX_ROWS, ["--max-reads", "0"], 1),  # refused before the first read
    ],
)
def test_decode_closes_its_file(capsys, tmp_path, rows, extra, expected_code):
    path = tmp_path / "outputs.txt"
    path.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(
            capsys, "decode", "--q", "6", "--n", "10", "--ts", "1", "--td", "1", "--ti", "2",
            "--file", str(path), *extra,
        )
        gc.collect()
    assert code == expected_code
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_decode_file_dash_leaves_stdin_open(capsys, monkeypatch):
    stdin = io.StringIO("\n".join(FIX_ROWS) + "\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out = run_cli(
        capsys, "decode", "--q", "6", "--n", "10", "--ts", "1", "--td", "1", "--ti", "2",
        "--file", "-",
    )
    assert json.loads(out)["result"] == "1200321021"
    assert not stdin.closed


@pytest.mark.parametrize(
    "later, expected_code",
    [(["--q", "x", "--n", "4", "--ts", "0", "--td", "0", "--ti", "1"], 2), (["--help"], 0)],
    ids=["bad-q", "help"],
)
def test_decode_opens_no_file_while_parsing(capsys, tmp_path, later, expected_code):
    path = tmp_path / "outputs.txt"
    path.write_text("\n".join(FIX_ROWS) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            main(["decode", "--file", str(path), *later])
        except SystemExit as exc:  # caught here, so its traceback holds no file past gc
            code = exc.code
        gc.collect()
    assert code == expected_code
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_decode_file_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path, target):
    path = tmp_path / "missing.txt" if target == "missing" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main([*DECODE_FIX, "--file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"seqrecon decode: error: argument --file: can't open '{path}': " in captured.err


SIM_TINY = ("simulate", "--q", "4", "--n", "3", "--ts", "0", "--td", "0", "--ti", "0", "--samples", "2")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_simulate_out_that_cannot_be_opened_is_a_usage_error(capsys, monkeypatch, tmp_path, target):
    path = tmp_path / "nonexistent" / "t.csv" if target == "missing-dir" else tmp_path
    trials = []
    run_trials = simulate._run_trials
    monkeypatch.setattr(simulate, "_run_trials", lambda task: trials.append(task) or run_trials(task))
    with pytest.raises(SystemExit) as exc:
        main([*SIM_TINY, "--out", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"seqrecon simulate: error: argument --out: can't open '{path}': " in captured.err
    assert trials == []  # refused before the first trial


@pytest.mark.parametrize(
    "refused, error",
    [(("--samples", "0"), "samples must be >= 1"), (("--q", "3"), "decoding requires q >= 4, got q=3")],
    ids=["samples-0", "q-3"],
)
def test_refused_simulate_leaves_its_out_file_alone(capsys, tmp_path, refused, error):
    path = tmp_path / "table.csv"
    path.write_text("kept\n")
    code, out = run_cli(capsys, *SIM_TINY, *refused, "--out", str(path))
    assert (code, json.loads(out)) == (1, {"error": error, "hypothesis_ok": False})
    assert path.read_text() == "kept\n"


def test_parser_is_built_once_per_environment(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # A seed no other test sets, so the first call has no parser to reuse.
    monkeypatch.setenv("SEQRECON_SEED", "90210")
    argv = ("bounds", "pattern", "--n", "6", "--t", "1")
    assert run_cli(capsys, *argv) == (0, run_cli(capsys, *argv)[1])
    assert built.count("seqrecon") == 1
    monkeypatch.setenv("SEQRECON_SEED", "90211")
    args = build_parser().parse_args(
        ["simulate", "--q", "4", "--n", "25", "--ts", "0", "--td", "0", "--ti", "1", "--samples", "5"]
    )
    assert args.seed == 90211 and built.count("seqrecon") == 2


def test_expect_subcommands(capsys):
    code, out = run_cli(capsys, "expect", "pccp", "--j", "1", "--m", "2")
    assert json.loads(out)["value"] == 1.0
    code, out = run_cli(capsys, "--format", "plain", "expect", "unique", "--m", "166751", "--N", "100")
    assert 99.9 <= float(out) <= 100.0


@pytest.mark.parametrize("args", [("pccp", "--j", "1"), ("unique", "--N", "5")])
def test_expect_refuses_m_beyond_float_range(capsys, args):
    code, out = run_cli(capsys, "expect", *args, "--m", "1" + "0" * 400)
    assert code == 1
    record = json.loads(out)
    assert record["hypothesis_ok"] is False
    assert record["error"].startswith("m exceeds the float range")


def test_simulate_csv_output(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out = run_cli(
        capsys, "simulate", "--q", "4", "--n", "25", "--ts", "0", "--td", "0",
        "--ti", "0", "--samples", "10", "--seed", "4", "--out", str(path),
    )
    assert code == 0
    record = json.loads(out)
    assert record["average"] == 1.0 and record["failures"] == 0
    header = path.read_text().splitlines()[0]
    assert header == "n,ts,td,ti,average,median,failures,samples"


def test_cli_output_is_byte_identical(capsys):
    args = ("simulate", "--q", "4", "--n", "30", "--ts", "0", "--td", "1",
            "--ti", "1", "--samples", "25", "--seed", "12")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_binom_ratio_reports_exact_fraction(capsys):
    code, out = run_cli(capsys, "bounds", "binom-ratio", "--n", "20", "--t", "2")
    record = json.loads(out)
    assert record["value"] == 2.25
    assert record["exact"] == "9/4"


# One passing and one out-of-domain argument list per formula.
BOUNDS_ARGS = {
    "levenshtein-deletion": (["--n", "10", "--t", "2"], ["--n", "3", "--t", "2"]),
    "levenshtein-insertion": (["--n", "6", "--q", "3", "--t", "2"], ["--n", "6", "--t", "0"]),
    "pattern": (["--n", "9", "--t", "2", "--mode", "at-most"], ["--n", "4", "--t", "2"]),
    "multiset-t1": (["--n", "7"], ["--n", "1"]),
    "adjacent": (["--n", "6", "--t", "2", "--a", "2"], ["--n", "6", "--t", "2", "--a", "6"]),
    "cumulative-half": (["--n", "10", "--t", "3"], ["--n", "9", "--t", "2"]),
    "weight-gap": (["--n", "10", "--w1", "4", "--b", "2", "--t", "3"],
                   ["--n", "10", "--w1", "4", "--b", "4", "--t", "3"]),
    "binom-ratio": (["--n", "20", "--t", "2"], ["--n", "20", "--t", "3"]),
    "binom-ratio-limit": (["--t", "6"], ["--t", "5"]),
}
BOUNDS_STDOUT = {
    ("levenshtein-deletion", "json"):
        '{"formula": "levenshtein-deletion", "hypothesis_ok": true, "params": {"n": 10, "t": 2}, "value": 17}\n',
    ("levenshtein-deletion", "plain"):
        '17\n',
    ("levenshtein-deletion", "csv"):
        'formula,value,hypothesis_ok\r\nlevenshtein-deletion,17,True\r\n',
    ("levenshtein-deletion", "error"):
        '{"error": "requires 1 <= t <= n-2, got t=2, n=3", "hypothesis_ok": false}\n',
    ("levenshtein-insertion", "json"):
        '{"formula": "levenshtein-insertion", "hypothesis_ok": true, "params": {"n": 6, "q": 3, "t": 2}, "value": 33}\n',
    ("levenshtein-insertion", "plain"):
        '33\n',
    ("levenshtein-insertion", "csv"):
        'formula,value,hypothesis_ok\r\nlevenshtein-insertion,33,True\r\n',
    ("levenshtein-insertion", "error"):
        '{"error": "requires t >= 1, got 0", "hypothesis_ok": false}\n',
    ("pattern", "json"):
        '{"formula": "pattern", "hypothesis_ok": true, "params": {"mode": "at-most", "n": 9, "t": 2}, "value": 36}\n',
    ("pattern", "plain"):
        '36\n',
    ("pattern", "csv"):
        'formula,value,hypothesis_ok\r\npattern,36,True\r\n',
    ("pattern", "error"):
        '{"error": "requires t >= 1 and n >= 2t+2, got t=2, n=4", "hypothesis_ok": false}\n',
    ("multiset-t1", "json"):
        '{"formula": "multiset-t1", "hypothesis_ok": true, "params": {"n": 7}, "value": 4}\n',
    ("multiset-t1", "plain"):
        '4\n',
    ("multiset-t1", "csv"):
        'formula,value,hypothesis_ok\r\nmultiset-t1,4,True\r\n',
    ("multiset-t1", "error"):
        '{"error": "requires n >= 2, got 1", "hypothesis_ok": false}\n',
    ("adjacent", "json"):
        '{"formula": "adjacent", "hypothesis_ok": true, "params": {"a": 2, "n": 6, "t": 2}, "value": 13}\n',
    ("adjacent", "plain"):
        '13\n',
    ("adjacent", "csv"):
        'formula,value,hypothesis_ok\r\nadjacent,13,True\r\n',
    ("adjacent", "error"):
        '{"error": "requires 1 <= a <= n-1, got a=6", "hypothesis_ok": false}\n',
    ("cumulative-half", "json"):
        '{"formula": "cumulative-half", "hypothesis_ok": true, "params": {"n": 10, "t": 3}, "value": 132}\n',
    ("cumulative-half", "plain"):
        '132\n',
    ("cumulative-half", "csv"):
        'formula,value,hypothesis_ok\r\ncumulative-half,132,True\r\n',
    ("cumulative-half", "error"):
        '{"error": "requires even n, got 9", "hypothesis_ok": false}\n',
    ("weight-gap", "json"):
        '{"formula": "weight-gap", "hypothesis_ok": true, "params": {"b": 2, "n": 10, "t": 3, "w1": 4}, "value": 40}\n',
    ("weight-gap", "plain"):
        '40\n',
    ("weight-gap", "csv"):
        'formula,value,hypothesis_ok\r\nweight-gap,40,True\r\n',
    ("weight-gap", "error"):
        '{"error": "requires 1 <= b <= t, got b=4, t=3", "hypothesis_ok": false}\n',
    ("binom-ratio", "json"):
        '{"exact": "9/4", "formula": "binom-ratio", "hypothesis_ok": true, "params": {"n": 20, "t": 2}, "value": 2.25}\n',
    ("binom-ratio", "plain"):
        '2.25\n',
    ("binom-ratio", "csv"):
        'formula,value,exact,hypothesis_ok\r\nbinom-ratio,2.25,9/4,True\r\n',
    ("binom-ratio", "error"):
        '{"error": "requires even n and t, got n=20, t=3", "hypothesis_ok": false}\n',
    ("binom-ratio-limit", "json"):
        '{"formula": "binom-ratio-limit", "hypothesis_ok": true, "params": {"t": 6}, "value": 20}\n',
    ("binom-ratio-limit", "plain"):
        '20\n',
    ("binom-ratio-limit", "csv"):
        'formula,value,hypothesis_ok\r\nbinom-ratio-limit,20,True\r\n',
    ("binom-ratio-limit", "error"):
        '{"error": "requires even t >= 2, got 5", "hypothesis_ok": false}\n',
}


@pytest.mark.parametrize("formula", list(BOUNDS_ARGS))
@pytest.mark.parametrize("fmt", ["json", "plain", "csv", "error"])
def test_bounds_stdout_is_pinned(capsys, formula, fmt):
    ok, bad = BOUNDS_ARGS[formula]
    if fmt == "error":
        code, out = run_cli(capsys, "bounds", formula, *bad)
        assert code == 1
    else:
        code, out = run_cli(capsys, "--format", fmt, "bounds", formula, *ok)
        assert code == 0
    assert out == BOUNDS_STDOUT[formula, fmt]


def unlimited_str(value: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "plain", "csv"])
def test_results_above_the_int_digit_limit_print(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "--format", fmt, "bounds", "pattern", "--n", "20000", "--t", "5000")
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    value = unlimited_str(pattern_bound(20000, 5000, "exactly"))
    assert len(value) > limit
    assert out == {
        "json": '{"formula": "pattern", "hypothesis_ok": true, '
                '"params": {"mode": "exactly", "n": 20000, "t": 5000}, "value": ' + value + "}\n",
        "plain": value + "\n",
        "csv": "formula,value,hypothesis_ok\r\npattern," + value + ",True\r\n",
    }[fmt]


def test_code_counts_above_the_int_digit_limit_print(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "--format", "plain", "code", "--q", "4", "--n", "8000")
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    value = unlimited_str(code_size_lower_bound(CodeParams(q=4, n=8000)))
    assert len(value) > limit
    assert out == value + "\n"


def test_code_sums_the_exclusions_once(capsys, monkeypatch):
    # excluded_count and size_lower_bound share one exclusion sum.
    sums, terms = [], codebook._ratio_terms

    def counting_terms(first, ratios):
        sums.append(first)
        return terms(first, ratios)

    codebook.excluded_count.cache_clear()
    monkeypatch.setattr(codebook, "_ratio_terms", counting_terms)
    code, out = run_cli(capsys, "code", "--q", "5", "--n", "40")
    assert code == 0
    record = json.loads(out)
    assert record["size_lower_bound"] == 5**40 - record["excluded_count"]
    assert len(sums) == 1


def test_code_at_large_n_finishes():
    # About 100 s when each term of the exclusion sum was its own math.comb.
    proc = subprocess.run(
        [sys.executable, "-m", "seqrecon", "code", "--q", "4", "--n", "60000"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        record = json.loads(proc.stdout)
    finally:
        sys.set_int_max_str_digits(limit)
    assert record["size_lower_bound"] == 4**60000 - record["excluded_count"]


def test_env_overrides_seed(capsys, monkeypatch):
    monkeypatch.setenv("SEQRECON_SEED", "777")
    code, out = run_cli(
        capsys, "simulate", "--q", "4", "--n", "25", "--ts", "0", "--td", "0",
        "--ti", "1", "--samples", "5",
    )
    monkeypatch.setenv("SEQRECON_SEED", "778")
    code, out2 = run_cli(
        capsys, "simulate", "--q", "4", "--n", "25", "--ts", "0", "--td", "0",
        "--ti", "1", "--samples", "5",
    )
    assert json.loads(out)["average"] != json.loads(out2)["average"] or out != out2



def test_bad_env_value_is_ignored_by_other_commands(capsys, monkeypatch):
    monkeypatch.setenv("SEQRECON_JOBS", "x")
    monkeypatch.setenv("SEQRECON_SEED", "abc")
    code, out = run_cli(capsys, "bounds", "pattern", "--n", "6", "--t", "1")
    assert code == 0 and json.loads(out)["value"] == 5


def test_bad_env_seed_is_a_simulate_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEQRECON_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--q", "4", "--n", "25", "--ts", "0", "--td", "0", "--ti", "1", "--samples", "5"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


DECODE_FIX = ("decode", "--q", "6", "--n", "10", "--ts", "1", "--td", "1", "--ti", "2")
FIX_OUT = (
    '{"certificate": {"anchors": [0, 1, 2], "words": ["10003010210", "12132110121", '
    '"22003202212", "31203213241", "34203032021", "31003351021"]}, '
    '"reads_consumed": 6, "result": "1200321021"}\n'
)


def decode_lines(capsys, tmp_path, lines, args=DECODE_FIX, newline="\n"):
    path = tmp_path / "outputs.txt"
    path.write_bytes((newline.join(lines) + newline).encode())
    return run_cli(capsys, *args, "--file", str(path))


def test_decode_stdout_on_malformed_lines(capsys, tmp_path):
    code, out = decode_lines(capsys, tmp_path, [FIX_ROWS[0], "123", *FIX_ROWS[1:]])
    assert (code, out) == (1, '{"error": "output length 3 outside [9, 12]", "hypothesis_ok": false}\n')
    code, out = decode_lines(capsys, tmp_path, [FIX_ROWS[0], "1200321091", *FIX_ROWS[1:]])
    assert (code, out) == (1, '{"error": "symbol 9 outside alphabet [0, 5]", "hypothesis_ok": false}\n')
    code, out = decode_lines(capsys, tmp_path, [FIX_ROWS[0], "12003x1021", *FIX_ROWS[1:]])
    assert (code, out) == (1, '{"error": "bad word text \'12003x1021\' for q=6", "hypothesis_ok": false}\n')


def test_decode_stdout_with_crlf_line_endings(capsys, tmp_path):
    assert decode_lines(capsys, tmp_path, FIX_ROWS, newline="\r\n") == (0, FIX_OUT)
    assert decode_lines(capsys, tmp_path, FIX_ROWS) == (0, FIX_OUT)


def test_decode_stdout_comma_form_above_ten_symbols(capsys, tmp_path):
    rng = random.Random(5)
    x = Word([rng.randrange(12) for _ in range(10)], 12)
    sampler = PatternSampler(10, 12, 0, 1, 1)
    lines = [apply_pattern(x, sampler.sample(rng, x)).text for _ in range(200)]
    args = ("decode", "--q", "12", "--n", "10", "--ts", "0", "--td", "1", "--ti", "1")
    code, out = decode_lines(capsys, tmp_path, lines, args)
    assert code == 0
    assert out == (
        '{"certificate": {"anchors": [0, 9, 10], "words": ["9,4,11,5,0,11,11,8,0,7", '
        '"9,4,9,11,5,11,11,10,8,7", "4,11,10,5,11,11,10,8,0,7", "9,4,11,5,11,11,10,3,8,7", '
        '"4,11,5,11,11,11,10,8,0,7", "9,4,11,5,4,11,11,8,0,7"]}, "reads_consumed": 51, '
        '"result": "9,4,11,5,11,11,10,8,0,7"}\n'
    )
    code, out = decode_lines(capsys, tmp_path, [lines[0], "1,2,12,3,4,5,6,7,8,9", *lines[1:]], args)
    assert (code, out) == (1, '{"error": "symbol 12 outside alphabet [0, 11]", "hypothesis_ok": false}\n')


def test_decode_stdout_q8_certificate(capsys, tmp_path):
    # Pins the anchors and words of the first certificate the scan finds, so
    # a change of slot entry or scan order shows.
    rng = random.Random(8)
    x = Word([rng.randrange(8) for _ in range(20)], 8)
    sampler = PatternSampler(20, 8, 1, 1, 1)
    lines = [apply_pattern(x, sampler.sample(rng, x)).text for _ in range(1100)]
    args = ("decode", "--q", "8", "--n", "20", "--ts", "1", "--td", "1", "--ti", "1")
    assert decode_lines(capsys, tmp_path, lines, args) == (0, (
        '{"certificate": {"anchors": [0, 1, 3], "words": ["35623012306077706761", '
        '"35623112336777167361", "35623023360377767363", "35623212336777667361", '
        '"35262306233607776736", "35625012360577767361"]}, "reads_consumed": 1034, '
        '"result": "35623012336077767361"}\n'
    ))


# (q, n, budgets, stream, reads consumed, anchors, sha256 of the whole stdout)
# for honest streams of a seeded codeword: five at q=8, n=400, the decode
# workload's point, and two at q=5.
DECODE_PINS = [
    (8, 400, (1, 1, 1), 0, 378, [0, 1, 7], "c2bc858e314a6797f339abdf7f299a41405210b8dfc96c832d919411271a29fd"),
    (8, 400, (1, 1, 1), 1, 702, [0, 2, 1], "548896ebbfbec21a412fd9880b91b9f5cf6dccde7841732ef1c973295d2c6f0f"),
    (8, 400, (1, 1, 1), 2, 757, [2, 4, 3], "a53c5780a0a819178005b95c0eab3950639e6fa6b2763adb1e10d88116ab4748"),
    (8, 400, (1, 1, 1), 3, 804, [0, 1, 5], "18e91f0845f6a8f0db4f6adf33d1c5d2de3d250087563d9da222631aa231a6a5"),
    (8, 400, (1, 1, 1), 4, 1493, [0, 7, 1], "68477128263cc703f13d008982e472bc3e272e13066b348face29795a5e67aaa"),
    (5, 60, (1, 1, 1), 0, 452, [1, 4, 3], "52bbb5d4421730c25fffe9c48903d2849ce8a9905aba35b61ca29e4313aa909c"),
    (5, 30, (0, 1, 2), 1, 76, [0, 1, 4], "948ac500d31c174c5b7f62a20d5e0ef61ad23d03b19688f24c50c50009e84956"),
]


@pytest.mark.parametrize("q, n, budgets, stream, reads, anchors, digest", DECODE_PINS)
def test_decode_stdout_is_pinned(capsys, tmp_path, q, n, budgets, stream, reads, anchors, digest):
    # The whole stdout, certificate words included, so a change of slot
    # entry, marking or scan order shows.
    rng = random.Random(f"decode-pin:{q}:{n}:{stream}")
    x = codebook.sample_codeword(CodeParams(q, n), rng).raw
    sampler = PatternSampler(n, q, *budgets)
    lines = [sampler.apply_draw(sampler.draw(rng), x) for _ in range(4000)]
    args = ("decode", "--q", str(q), "--n", str(n), "--ts", str(budgets[0]),
            "--td", str(budgets[1]), "--ti", str(budgets[2]))
    code, out = decode_lines(capsys, tmp_path, lines, args)
    record = json.loads(out)
    assert (code, record["result"], record["reads_consumed"], record["certificate"]["anchors"]) == (0, x, reads, anchors)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decode_stops_before_parsing_past_the_read_cap(capsys, tmp_path):
    lines = [FIX_ROWS[0], FIX_ROWS[1], "12003x1021", *FIX_ROWS[3:]]
    code, out = decode_lines(capsys, tmp_path, lines, DECODE_FIX + ("--max-reads", "2"))
    assert (code, out) == (0, '{"reads_consumed": 2, "result": ""}\n')


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_simulate_refuses_a_read_cap_below_one(capsys, cap):
    code, out = run_cli(
        capsys, "simulate", "--q", "4", "--n", "30", "--ts", "1", "--td", "1",
        "--ti", "1", "--samples", "5", "--seed", "5", "--max-reads", cap,
    )
    assert (code, out) == (1, '{"error": "max_reads must be positive", "hypothesis_ok": false}\n')


def test_simulate_row_same_with_and_without_out(capsys, tmp_path):
    args = ("simulate", "--q", "4", "--n", "30", "--ts", "0", "--td", "1",
            "--ti", "1", "--samples", "25", "--seed", "12", "--max-reads", "40")
    plain = run_cli(capsys, *args)
    written = run_cli(capsys, *args, "--out", str(tmp_path / "table.csv"))
    assert plain == written
    assert plain[0] == 0
