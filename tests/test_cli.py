import json
import random

import pytest

from seqrecon.cli import main
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


def test_distinguish_witness_included(capsys):
    code, out = run_cli(
        capsys, "distinguish", "--x", "11101", "--xp", "11011",
        "--t", "2", "--mode", "exactly", "--model", "non-multiset", "--witness",
    )
    record = json.loads(out)
    assert record["n_max_confusable"] == 9
    assert len(record["witness"]["patterns_x"]) == 9


def test_extremal_subcommand(capsys):
    code, out = run_cli(
        capsys, "extremal", "--n", "6", "--q", "2", "--t", "1",
        "--mode", "exactly", "--model", "non-multiset",
    )
    record = json.loads(out)
    assert record["n_max_confusable"] == 4
    assert ["000100", "001000"] in record["pairs"]


def test_code_subcommand(capsys):
    code, out = run_cli(capsys, "code", "--q", "4", "--n", "10", "--word", "0001112223")
    record = json.loads(out)
    assert record["top_two_threshold"] == 9
    assert record["is_codeword"] is True
    assert record["excluded_count"] == 67584


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


def test_expect_subcommands(capsys):
    code, out = run_cli(capsys, "expect", "pccp", "--j", "1", "--m", "2")
    assert json.loads(out)["value"] == 1.0
    code, out = run_cli(capsys, "--format", "plain", "expect", "unique", "--m", "166751", "--N", "100")
    assert 99.9 <= float(out) <= 100.0


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
