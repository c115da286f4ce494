"""Output checks, computed apart from seqrecon.

Each check takes one operation's normalised result and returns the list of
problems found; an empty list passes.  The references are the benchmark's
own: deletion outputs are enumerated here, the closed forms are evaluated
here, and decode results are compared with the codeword the benchmark drew.
`self_test` feeds every check a corrupted result and reports any check that
accepts one.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter

import workloads


def check_sim(op, res: dict) -> list[str]:
    problems = []
    if res["failures"] != 0:
        problems.append(f"{res['failures']} trials hit the read cap")
    if res["wrong_decodes"] != 0:
        problems.append(f"{res['wrong_decodes']} wrong decodes")
    if sum(res["histogram"].values()) != res["samples"]:
        problems.append(f"histogram {res['histogram']} does not sum to {res['samples']} samples")
    # Certificates are accepted from the sixth read on, and the first read
    # only initialises the decoder, so at least five channels are required.
    if any(k < 5 for k in res["histogram"]):
        problems.append(f"histogram {res['histogram']} has a decode before the sixth read")
    return problems


def check_decode(op, res: dict) -> list[str]:
    if res.get("exit") != 0 or "result" not in res:
        return [f"decode did not succeed: {res}"]
    problems = []
    if res["result"] != op.codeword:
        problems.append("decoded word differs from the transmitted codeword")
    reads = res.get("reads_consumed", 0)
    if reads < 6:
        problems.append(f"decoded after {reads} reads, before the sixth")
    with open(op.path) as fh:
        seen = set(itertools.islice(fh.read().split(), reads))
    words = res.get("certificate", {}).get("words", [])
    if len(words) != 6 or not set(words) <= seen:
        problems.append(f"certificate words are not among the first {reads} lines")
    return problems


def deletion_outputs(word: str, t: int, mode: str) -> Counter:
    """Multiset of outputs of every deletion pattern of weight t (exactly)
    or of weight 0..t (at_most)."""
    weights = range(t + 1) if mode == "at_most" else (t,)
    out: Counter = Counter()
    for w in weights:
        for dropped in itertools.combinations(range(len(word)), w):
            out["".join(c for i, c in enumerate(word) if i not in dropped)] += 1
    return out


def confusable_channels(ox: Counter, oy: Counter, model: str) -> int:
    """Most channels on which the two output collections can coincide."""
    common = ox.keys() & oy.keys()
    if model == "traditional":
        return len(common)
    if model == "multiset":
        return sum(min(ox[y], oy[y]) for y in common)
    # Non-multiset: the experiments on both words must reach the same output
    # set Y with N distinct patterns each, so |Y| <= N <= both pattern counts
    # into Y; Y = all common outputs is best since each has multiplicity >= 1.
    return min(sum(ox[y] for y in common), sum(oy[y] for y in common))


def _v2(n: int, t: int) -> int:
    return sum(math.comb(n, i) for i in range(t + 1))


def closed_form_nmax(q: int, n: int, t: int, mode: str, model: str) -> int | None:
    """n_max from the known closed forms, or None where none applies."""
    half = (n + 1) // 2 - 1
    if model == "non-multiset":
        if mode == "exactly":
            return math.comb(n, t) - math.comb(half, t)
        return _v2(n, t) - _v2(half, t)
    if model == "traditional" and q == 2 and mode == "exactly":
        return 2 * sum(math.comb(n - t - 1, i) for i in range(t))
    return None


class ExtremalChecker:
    """Checks extremal results; caches each word's deletion outputs."""

    def __init__(self):
        self._outputs: dict[tuple, Counter] = {}

    def outputs(self, word: str, t: int, mode: str) -> Counter:
        key = (word, t, mode)
        if key not in self._outputs:
            self._outputs[key] = deletion_outputs(word, t, mode)
        return self._outputs[key]

    def __call__(self, op, res: dict) -> list[str]:
        q, n, t, mode, model = op.params
        problems = []
        if res["searched_pairs"] != math.comb(q**n, 2):
            problems.append(f"searched_pairs {res['searched_pairs']} != C({q}^{n}, 2)")
        expected = closed_form_nmax(q, n, t, mode, model)
        if expected is not None and res["n_max"] != expected:
            problems.append(f"n_max {res['n_max']} != closed form {expected}")
        if not res["pairs"]:
            problems.append("no attaining pair reported")
        for x, y in res["pairs"]:
            if not self._is_word(x, q, n) or not self._is_word(y, q, n) or x == y:
                problems.append(f"pair {x},{y} is not two distinct words")
                continue
            got = confusable_channels(self.outputs(x, t, mode), self.outputs(y, t, mode), model)
            if got != res["n_max"]:
                problems.append(f"pair {x},{y} is confusable on {got} channels, not {res['n_max']}")
        for x, y in res["indistinguishable"]:
            ox, oy = self.outputs(x, t, mode), self.outputs(y, t, mode)
            same = ox == oy if model == "multiset" else ox.keys() == oy.keys()
            if x == y or not same:
                problems.append(f"pair {x},{y} reported indistinguishable but outputs differ")
        return problems

    @staticmethod
    def _is_word(w: str, q: int, n: int) -> bool:
        return len(w) == n and all(c in "0123456789"[:q] for c in w)


def checker_for(workload):
    if isinstance(workload, workloads.SimWorkload):
        return check_sim
    if isinstance(workload, workloads.DecodeWorkload):
        return check_decode
    return ExtremalChecker()


def _flip(word: str, q: int) -> str:
    return str((int(word[0]) + 1) % q) + word[1:]


def corruptions(workload, ops, results: dict[int, dict]):
    """(label, op, corrupted result) cases, built from correct results."""
    ops = [op for op in ops if op.index in results]
    if isinstance(workload, workloads.SimWorkload):
        op = ops[0]
        res = results[op.index]
        k = next(iter(res["histogram"]))
        return [
            ("sim failures", op, {**res, "failures": 1}),
            ("sim wrong decode", op, {**res, "wrong_decodes": 1}),
            ("sim histogram sum", op, {**res, "histogram": {k: 2}}),
            ("sim early decode", op, {**res, "histogram": {4: 1}}),
        ]
    if isinstance(workload, workloads.DecodeWorkload):
        op = ops[0]
        res = results[op.index]
        cert = copy.deepcopy(res["certificate"])
        cert["words"][0] = cert["words"][0][::-1]
        return [
            ("decode wrong word", op, {**res, "result": _flip(res["result"], workloads.DECODE_Q)}),
            ("decode too few reads", op, {**res, "reads_consumed": 5}),
            ("decode foreign certificate word", op, {**res, "certificate": cert}),
            ("decode empty result", op, {**res, "result": ""}),
        ]
    first = lambda pred: next(op for op in ops if pred(op.params))
    nm = first(lambda p: p[4] == "non-multiset")
    lev = first(lambda p: p[4] == "traditional" and p[0] == 2 and p[3] == "exactly")
    ms = first(lambda p: p[4] == "multiset")
    res_nm, res_lev, res_ms = results[nm.index], results[lev.index], results[ms.index]
    x, y = res_ms["pairs"][0]
    apart = ["0" * len(x), "1" * len(x)]  # no common output at all
    return [
        ("extremal closed form", nm, {**res_nm, "n_max": res_nm["n_max"] + 1}),
        ("extremal Levenshtein form", lev, {**res_lev, "n_max": res_lev["n_max"] - 1}),
        ("extremal pair value", ms, {**res_ms, "pairs": [apart]}),
        ("extremal searched pairs", ms, {**res_ms, "searched_pairs": res_ms["searched_pairs"] - 1}),
        ("extremal indistinguishable", ms, {**res_ms, "indistinguishable": [[x, y]]}),
    ]


def self_test(workload, ops, results: dict[int, dict]) -> list[str]:
    """Labels of corrupted results that a check accepted; empty when every
    check rejected its corruption."""
    check = checker_for(workload)
    return [label for label, op, bad in corruptions(workload, ops, results) if not check(op, bad)]
