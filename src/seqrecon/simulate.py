"""Monte Carlo harness: channels read until decode, aggregated over many trials.

Each trial samples a uniform codeword, streams uniform channel outputs into
StreamDecoder.read and records how many channels it required, i.e. outputs
read beyond the one that initialises the decoder's tracking state (a
zero-budget decode counts its single read).  An output is streamed as its
raw draw, which patterns.DrawOutputs counts in O(t) without building the
output word; only the six words of a certificate are built.  A trial that
reaches the decoder's read cap without a decision is a failure.  Trials use
independent generators derived as Random(f"{seed}:{trial_index}") so a run
is reproducible and independent of how trials are split across workers.
"""

from __future__ import annotations

import csv
import functools
import random
import statistics
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from .codebook import DEFAULT_RARITY, CodeParams, sample_raw_codeword, top_two_threshold
from .decoder import DecoderConfig, StreamDecoder
from .patterns import DrawOutputs, PatternSampler
from .words import alphabet

DEFAULT_SEED = 1729

CSV_COLUMNS = ["n", "ts", "td", "ti", "average", "median", "failures", "samples"]


@dataclass(frozen=True)
class SimSpec:
    q: int
    n: int
    t_sub: int
    t_del: int
    t_ins: int
    samples: int
    seed: int = DEFAULT_SEED
    jobs: int = 1
    max_reads: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(
            q=self.q, n=self.n, t_sub=self.t_sub, t_del=self.t_del, t_ins=self.t_ins,
            max_reads=self.max_reads,
        )


@dataclass
class SimResult:
    average: float | None
    median: float | None
    histogram: dict[int, int] = field(default_factory=dict)
    failures: int = 0
    wrong_decodes: int = 0
    samples: int = 0


# One sampler per (n, q, budgets), shared by every run_sim in a process: its
# tables depend on the point only, and draw keeps no state.
_sampler = functools.lru_cache(maxsize=16)(PatternSampler)


def _run_trials(args) -> tuple[Counter, int, int]:
    cfg, seed, lo, hi = args
    sampler = _sampler(cfg.n, cfg.q, cfg.t_sub, cfg.t_del, cfg.t_ins)
    tau = top_two_threshold(CodeParams(q=cfg.q, n=cfg.n))
    symbols = alphabet(cfg.q)
    hist: Counter = Counter()
    failures = 0
    wrong = 0
    for trial in range(lo, hi):
        rng = random.Random(f"{seed}:{trial}")
        x = sample_raw_codeword(symbols, cfg.n, tau, rng)
        dec = StreamDecoder(cfg, outputs=DrawOutputs(sampler, x))
        # draw never returns None, so the stream ends only at the read cap.
        result = dec.read(iter(partial(sampler.draw, rng), None))
        if not result:
            failures += 1
        else:
            hist[dec.channels_required] += 1
            if result != x:
                wrong += 1
    return hist, failures, wrong


def run_sim(spec: SimSpec) -> SimResult:
    """Run spec.samples independent trials and aggregate reads-until-decode.

    average and median are over halting trials; trials that hit the read cap
    (spec.max_reads, else DecoderConfig.read_cap's default) or whose merge
    failed are counted in failures.  Deterministic given seed.
    """
    cfg = spec.decoder_config()
    halting_floor = (spec.q - 1) * float(DEFAULT_RARITY) * (spec.t_del + spec.t_sub)
    if spec.n < halting_floor:
        warnings.warn(
            f"n={spec.n} below {halting_floor:.1f}; halting is not guaranteed "
            f"to become likely for these budgets",
            stacklevel=2,
        )
    chunks = min(spec.samples, spec.jobs * 4 if spec.jobs > 1 else 1)
    bounds = [round(k * spec.samples / chunks) for k in range(chunks + 1)]
    tasks = [(cfg, spec.seed, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            parts = list(pool.map(_run_trials, tasks))
    else:
        parts = [_run_trials(task) for task in tasks]
    hist: Counter = Counter()
    failures = 0
    wrong = 0
    for h, f, w in parts:
        hist.update(h)
        failures += f
        wrong += w
    halted = sum(hist.values())
    average = sum(r * c for r, c in hist.items()) / halted if halted else None
    return SimResult(
        average=average,
        median=float(statistics.median(hist.elements())) if halted else None,
        histogram=dict(sorted(hist.items())),
        failures=failures,
        wrong_decodes=wrong,
        samples=spec.samples,
    )


def run_sweep(specs: list[SimSpec], output_path: str | None = None) -> list[dict]:
    """Simulate every spec and return one table row per spec, in CSV_COLUMNS
    order; optionally also write the table as CSV."""
    rows = []
    for spec in specs:
        res = run_sim(spec)
        rows.append(
            {
                "n": spec.n,
                "ts": spec.t_sub,
                "td": spec.t_del,
                "ti": spec.t_ins,
                "average": res.average,
                "median": res.median,
                "failures": res.failures,
                "samples": spec.samples,
            }
        )
    if output_path is not None:
        with open(output_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows
