"""The four workloads: the fixed inputs of each, how one operation calls
seqrecon, and what it yields.

Every workload's operations are built from seeds recorded here, so every run
does the same work.  The run's `--seed` shuffles the order of the
operations and, for the decode streams, relabels the eight symbols; neither
changes how much work an operation does.  Import this module only after
`src/` of the checkout is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

from seqrecon import cli, oracle
from seqrecon.channels import ChannelModel
from seqrecon.simulate import SimSpec, run_sim

import streams

# Trials per row; trial k of every row runs run_sim with seed k.
SIM_TRIALS = {"sim_heavy_q4": 50, "sim_light_q4": 100}
SIM_ROWS = {  # (n, t_sub, t_del, t_ins) at q = 4
    "sim_heavy_q4": [(20, 1, 1, 1), (100, 1, 1, 1), (200, 1, 1, 1)],
    "sim_light_q4": [(100, 0, 0, 1), (100, 0, 1, 1), (100, 0, 0, 2)],
}
DECODE_Q, DECODE_N = 8, 400
DECODE_STREAMS = 100  # stream k is drawn from Random(f"decode_q8_n400:{k}")
MODES = ("exactly", "at_most")
MODELS = ("traditional", "multiset", "non-multiset")


def extremal_box() -> list[tuple]:
    """(q, n, t, mode, model) for q=2, n=4..9 and q=3, n=4..6, with
    t in {1,2,3} and n >= 2t+2, where the closed forms hold."""
    box = []
    for q, lengths in ((2, range(4, 10)), (3, range(4, 7))):
        for n in lengths:
            for t in (1, 2, 3):
                if n >= 2 * t + 2:
                    box.extend((q, n, t, mode, model) for mode in MODES for model in MODELS)
    return box


@dataclass
class Op:
    index: int  # position in the canonical (unshuffled) order
    params: tuple
    codeword: str = ""  # decode only
    path: str = ""  # decode only: the stored stream


class Workload:
    """Operations of one workload; `call` is the only code that is timed."""

    name = ""
    module = ""  # the seqrecon module its operations call, for set-up time
    span = ""  # the traced run's root span of one operation
    layers: tuple[str, ...] = ()  # prefixes of the per-layer metrics it reaches

    def build(self, seed: int, workdir: str) -> list[Op]:
        """The round's operations in run order."""
        ops = self.canonical(workdir, random.Random(f"seqbench:{self.name}:{seed}"))
        random.Random(f"seqbench:order:{self.name}:{seed}").shuffle(ops)
        return ops

    def canonical(self, workdir: str, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def normalize(self, raw) -> dict:
        """Plain data from a call's raw return, for checks and the digest."""
        raise NotImplementedError

    def units(self, op: Op, result: dict) -> int:
        raise NotImplementedError

    def probe(self, ops: list[Op]) -> list[Op]:
        """A few operations that reach every layer this workload reaches."""
        return ops[:20]

    def behaviour(self, result: dict):
        """The part of a result that the behaviour digest covers."""
        return result


class SimWorkload(Workload):
    module = "seqrecon.simulate"
    span = "op.sim"
    layers = ("patterns.", "decoder.", "simulate.")

    def __init__(self, name: str):
        self.name = name

    def canonical(self, workdir, rng):
        trials = SIM_TRIALS[self.name]
        rows = SIM_ROWS[self.name]
        params = [row + (seed,) for row in rows for seed in range(1, trials + 1)]
        return [Op(i, p) for i, p in enumerate(params)]

    def call(self, op):
        n, ts, td, ti, seed = op.params
        return run_sim(SimSpec(q=4, n=n, t_sub=ts, t_del=td, t_ins=ti, samples=1, seed=seed, jobs=1))

    def normalize(self, raw):
        return {
            "failures": raw.failures,
            "wrong_decodes": raw.wrong_decodes,
            "samples": raw.samples,
            "histogram": {int(k): v for k, v in raw.histogram.items()},
        }

    def units(self, op, result):
        # reads = channels required + the read that initialised the decoder
        return sum((k + 1) * c for k, c in result["histogram"].items())

    def behaviour(self, result):
        return result.get("histogram")


class DecodeWorkload(Workload):
    name = "decode_q8_n400"
    module = "seqrecon.cli"
    span = "op.decode"
    layers = ("decoder.", "cli.")
    argv = ["decode", "--q", str(DECODE_Q), "--n", str(DECODE_N), "--ts", "1", "--td", "1", "--ti", "1"]

    def canonical(self, workdir, rng):
        perm = rng.sample(streams.DIGITS[:DECODE_Q], DECODE_Q)
        relabel = str.maketrans(streams.DIGITS[:DECODE_Q], "".join(perm))
        limit = streams.top_two_limit(DECODE_N)
        ops = []
        for k in range(DECODE_STREAMS):
            gen = random.Random(f"decode_q8_n400:{k}")
            x = streams.draw_codeword(gen, DECODE_Q, DECODE_N, limit)
            lines, _ = streams.honest_stream(gen, x, DECODE_Q)
            path = os.path.join(workdir, f"stream{k}.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(lines).translate(relabel) + "\n")
            ops.append(Op(k, (k,), x.translate(relabel), path))
        return ops

    def call(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv + ["--file", op.path])
        return code, buf.getvalue()

    def normalize(self, raw):
        code, out = raw
        try:
            record = json.loads(out)
        except ValueError:
            record = {"unparsed": out}
        return {"exit": code, **record}

    def units(self, op, result):
        return result.get("reads_consumed", 0)

    def probe(self, ops):
        return ops[:3]

    def behaviour(self, result):
        return [result.get("result"), result.get("reads_consumed")]


class ExtremalWorkload(Workload):
    name = "extremal_sweep"
    module = "seqrecon.oracle"
    span = "op.extremal"
    layers = ("oracle.",)

    def canonical(self, workdir, rng):
        return [Op(i, p) for i, p in enumerate(extremal_box())]

    def call(self, op):
        q, n, t, mode, model = op.params
        return oracle.extremal_search(n, q, t, mode, ChannelModel.parse(model), jobs=1)

    def normalize(self, raw):
        return {
            "n_max": raw.n_max_confusable,
            "pairs": [[a.text, b.text] for a, b in raw.pairs],
            "indistinguishable": [[a.text, b.text] for a, b in raw.indistinguishable],
            "searched_pairs": raw.searched_pairs,
        }

    def units(self, op, result):
        q, n = op.params[:2]
        return math.comb(q**n, 2)

    def probe(self, ops):
        binary = [op for op in ops if op.params[0] == 2][:4]
        ternary = [op for op in ops if op.params[0] == 3 and op.params[4] != "traditional"][:2]
        return binary + ternary


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("sim_heavy_q4"),
        SimWorkload("sim_light_q4"),
        DecodeWorkload(),
        ExtremalWorkload(),
    )
}


def digest_lines(workload: Workload, ops: list[Op], results: dict[int, dict]) -> list:
    """Fixed-seed behaviour in canonical order, one entry per operation."""
    ordered = sorted(ops, key=lambda op: op.index)
    return [[list(op.params), workload.behaviour(results.get(op.index, {}))] for op in ordered]
