"""Command-line interface: bounds, expect, distinguish, extremal, code, decode, simulate.

Results are emitted as JSON by default (sorted keys, so output is
byte-identical across runs given the same arguments and seed); `plain` prints
just the principal value and `csv` a flat table.  Domain errors exit with
status 1 and a structured {"error": ...} record; usage errors exit 2.

Environment overrides: SEQRECON_SEED and SEQRECON_JOBS set the default seed
and worker count of `simulate` only.  `main` reads both on every call, and
builds the parser once per process for each distinct pair of their values.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import bounds as _bounds
from .channels import ChannelModel
from .codebook import CodeParams, code_size_lower_bound, excluded_count, third_symbol_floor, top_two_threshold, is_codeword
from .decoder import DecoderConfig, StreamDecoder
from .oracle import DEFAULT_BUDGET, confusable_max, extremal_search
from .simulate import DEFAULT_SEED, SimSpec, run_sweep
from .words import Word


def _infer_q(*texts: str) -> int:
    symbols: list[int] = []
    for t in texts:
        t = t.strip()
        if not t:
            continue
        if "," in t:
            symbols.extend(int(part) for part in t.split(","))
        else:
            symbols.extend(int(c) for c in t if c.isdigit())
    return max(2, max(symbols, default=0) + 1)


def _emit(record: dict, fmt: str, principal: str) -> None:
    # Exact results may exceed the int-to-text digit limit (4300 by default;
    # absent before Python 3.10.7); lift it for printing only.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "plain":
            print(record[principal])
        elif fmt == "csv":
            flat = {k: v for k, v in record.items() if not isinstance(v, (dict, list))}
            buf = io.StringIO()
            writer = _csv.DictWriter(buf, fieldnames=list(flat))
            writer.writeheader()
            writer.writerow(flat)
            sys.stdout.write(buf.getvalue())
        else:
            print(json.dumps(record, sort_keys=True, default=str))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# formula -> (function, names of the arguments it takes, in order)
_BOUNDS = {
    "levenshtein-deletion": (_bounds.levenshtein_deletion_bound, ("n", "t")),
    "levenshtein-insertion": (_bounds.levenshtein_insertion_bound, ("n", "q", "t")),
    "pattern": (_bounds.pattern_bound, ("n", "t", "mode")),
    "multiset-t1": (_bounds.multiset_t1_threshold, ("n",)),
    "adjacent": (_bounds.adjacent_singleton_channels, ("n", "t", "a")),
    "cumulative-half": (_bounds.cumulative_half_bound, ("n", "t")),
    "weight-gap": (_bounds.weight_gap_confusable, ("n", "w1", "b", "t")),
    "binom-ratio": (_bounds.binom_ratio, ("n", "t")),
    "binom-ratio-limit": (_bounds.binom_ratio_limit, ("t",)),
}


def _cmd_bounds(args) -> tuple[dict, str]:
    function, names = _BOUNDS[args.formula]
    params = {name: getattr(args, name) for name in names}
    value = function(*params.values())
    record = {"formula": args.formula, "params": params, "value": value}
    if isinstance(value, Fraction):  # binom-ratio: a float value plus the exact fraction
        record["value"], record["exact"] = float(value), str(value)
    record["hypothesis_ok"] = True
    return record, "value"


def _cmd_expect(args) -> tuple[dict, str]:
    if args.kind == "pccp":
        value = _bounds.pccp_expectation(args.j, args.m)
        params = {"j": args.j, "m": args.m}
    else:
        value = _bounds.expected_unique_patterns(args.m, args.N)
        params = {"m": args.m, "N": args.N}
    return {"formula": args.kind, "params": params, "value": value, "hypothesis_ok": True}, "value"


def _cmd_distinguish(args) -> tuple[dict, str]:
    q = args.q if args.q else _infer_q(args.x, args.xp)
    x = Word.parse(args.x, q)
    xp = Word.parse(args.xp, q)
    report = confusable_max(
        x, xp, args.t, args.mode, ChannelModel.parse(args.model),
        error_type=args.error_type, want_witness=args.witness,
    )
    record = {
        "x": x.text,
        "xp": xp.text,
        "t": args.t,
        "mode": args.mode,
        "model": report.model.value,
        "error_type": args.error_type,
        "n_max_confusable": report.n_max_confusable,
    }
    if report.witness is not None:
        record["witness"] = {
            "patterns_x": [p.to_obj(q) for p in report.witness.patterns_x],
            "patterns_xp": [p.to_obj(q) for p in report.witness.patterns_x_prime],
            "outputs": report.witness.outputs.to_obj(),
        }
    return record, "n_max_confusable"


def _cmd_extremal(args) -> tuple[dict, str]:
    result = extremal_search(
        args.n, args.q, args.t, args.mode, ChannelModel.parse(args.model),
        canonical=args.canonical, budget=args.budget, jobs=args.jobs,
    )
    record = {
        "n": args.n,
        "q": args.q,
        "t": args.t,
        "mode": args.mode,
        "model": ChannelModel.parse(args.model).value,
        "n_max_confusable": result.n_max_confusable,
        "pairs": [[a.text, b.text] for a, b in result.pairs],
        "indistinguishable": [[a.text, b.text] for a, b in result.indistinguishable],
        "searched_pairs": result.searched_pairs,
    }
    return record, "n_max_confusable"


def _cmd_code(args) -> tuple[dict, str]:
    params = CodeParams(q=args.q, n=args.n, p=args.p or None)
    record = {
        "q": args.q,
        "n": args.n,
        "p": str(params.rarity) if args.p else "16/e",
        "top_two_threshold": top_two_threshold(params),
        "third_symbol_floor": third_symbol_floor(params),
        "excluded_count": excluded_count(params),
        "size_lower_bound": code_size_lower_bound(params),
    }
    principal = "size_lower_bound"
    if args.word is not None:
        record["word"] = args.word
        record["is_codeword"] = is_codeword(Word.parse(args.word, args.q), params)
        principal = "is_codeword"
    return record, principal


def _cmd_decode(args) -> tuple[dict, str]:
    if args.file in (None, "-"):
        stream = sys.stdin
    else:
        try:
            stream = open(args.file)
        except OSError as exc:
            args.parser.error(f"argument --file: can't open '{args.file}': {exc}")
    try:
        dec = StreamDecoder(DecoderConfig(
            q=args.q, n=args.n, t_sub=args.ts, t_del=args.td, t_ins=args.ti,
            max_reads=args.max_reads,
        ))
        # Lazy, so no line past the read cap is parsed; blank lines are not
        # reads.  Word.parse strips too, which costs no copy on a stripped line.
        lines = (line.strip() for line in stream)
        result = dec.read(Word.parse(line, args.q) for line in lines if line)
    finally:
        if stream is not sys.stdin:  # `--file -` is stdin, which stays open
            stream.close()
    decoded = Word.from_raw(result, args.q).text if result else ""
    record = {"result": decoded, "reads_consumed": dec.reads}
    if dec.certificate is not None and decoded:
        record["certificate"] = {
            "anchors": list(dec.certificate.anchors),
            "words": dec.certificate.word_texts(args.q),
        }
    return record, "result"


def _cmd_simulate(args) -> tuple[dict, str]:
    spec = SimSpec(
        q=args.q, n=args.n, t_sub=args.ts, t_del=args.td, t_ins=args.ti,
        samples=args.samples, seed=args.seed, jobs=args.jobs, max_reads=args.max_reads,
    )
    try:
        return run_sweep([spec], args.out)[0], "average"
    except OSError as exc:  # run_sweep opens --out before the first trial
        if args.out is None or exc.filename != args.out:
            raise
        args.parser.error(f"argument --out: can't open '{args.out}': {exc}")


def build_parser() -> argparse.ArgumentParser:
    """The parser for the current SEQRECON_SEED and SEQRECON_JOBS, shared by
    every call made with the same two values; parse_args leaves it as it is."""
    return _build_parser(os.environ.get("SEQRECON_SEED"), os.environ.get("SEQRECON_JOBS"))


@functools.lru_cache(maxsize=8)
def _build_parser(seed: str | None, jobs: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrecon",
        description="Channel-count bounds, confusability oracles, decoding and "
        "simulation for sequence reconstruction under unique error patterns.",
    )
    parser.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate a closed-form channel bound")
    b.add_argument("formula", choices=tuple(_BOUNDS))
    b.add_argument("--n", type=int, default=0)
    b.add_argument("--q", type=int, default=2)
    b.add_argument("--t", type=int, default=1)
    b.add_argument("--a", type=int, default=1)
    b.add_argument("--w1", type=int, default=1)
    b.add_argument("--b", type=int, default=1)
    b.add_argument("--mode", choices=("exactly", "at-most", "at_most"), default="exactly")
    b.set_defaults(run=_cmd_bounds)

    e = sub.add_parser("expect", help="coupon-collector style expectations")
    e.add_argument("kind", choices=("pccp", "unique"))
    e.add_argument("--j", type=int, default=1)
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--N", type=int, default=1)
    e.set_defaults(run=_cmd_expect)

    d = sub.add_parser("distinguish", help="oracle confusability for a word pair")
    d.add_argument("--x", required=True)
    d.add_argument("--xp", required=True)
    d.add_argument("--q", type=int, default=0, help="alphabet size (default: inferred)")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("--mode", choices=("exactly", "at-most", "at_most"), default="exactly")
    d.add_argument("--model", required=True)
    d.add_argument("--error-type", choices=("deletion", "insertion"), default="deletion")
    d.add_argument("--witness", action="store_true")
    d.set_defaults(run=_cmd_distinguish)

    x = sub.add_parser("extremal", help="search all word pairs for the hardest ones")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--q", type=int, required=True)
    x.add_argument("--t", type=int, required=True)
    x.add_argument("--mode", choices=("exactly", "at-most", "at_most"), default="exactly")
    x.add_argument("--model", required=True)
    x.add_argument("--canonical", action="store_true", help="dedupe pairs up to symbol relabelling")
    x.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    x.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the search runs in one process")
    x.set_defaults(run=_cmd_extremal)

    c = sub.add_parser("code", help="frequency-restricted code: threshold, counts, membership")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--word", default=None)
    c.add_argument("--p", default=None, help="override the frequency parameter (rational, e.g. 13/2)")
    c.set_defaults(run=_cmd_code)

    dec = sub.add_parser("decode", help="decode newline-delimited channel outputs")
    dec.add_argument("--q", type=int, required=True)
    dec.add_argument("--n", type=int, required=True)
    dec.add_argument("--ts", type=int, required=True)
    dec.add_argument("--td", type=int, required=True)
    dec.add_argument("--ti", type=int, required=True)
    dec.add_argument("--file", default=None)
    dec.add_argument("--max-reads", type=int, default=None)
    dec.set_defaults(run=_cmd_decode, parser=dec)

    s = sub.add_parser("simulate", help="Monte Carlo channels-until-decode")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--ts", type=int, required=True)
    s.add_argument("--td", type=int, required=True)
    s.add_argument("--ti", type=int, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED if seed is None else seed)
    s.add_argument("--jobs", type=int, default=1 if jobs is None else jobs)
    s.add_argument("--max-reads", type=int, default=None)
    s.add_argument("--out", default=None, help="write the result table as CSV")
    s.set_defaults(run=_cmd_simulate, parser=s)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record, principal = args.run(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "hypothesis_ok": False}, sort_keys=True))
        return 1
    _emit(record, args.format, principal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
