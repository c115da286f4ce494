"""Spans around seqrecon's public functions, for the traced run.

`Tracer.install` replaces each function named in LAYERS by a wrapper that
times the call, and `uninstall` puts the originals back.  Spans nest: a
layer's self time is its span minus the spans of the layers it called.
Spans are aggregated in memory as (calls, total ns, child ns, units) per
key, because a run makes millions of them.  A name that no longer exists is
skipped, and the metrics that need it are reported as not measured.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (module, attribute path, span key)
LAYERS = [
    ("seqrecon.decoder", "StreamDecoder.__init__", "decoder.init"),
    ("seqrecon.decoder", "StreamDecoder.push", "decoder.push"),
    ("seqrecon.decoder", "Frontier.update", "decoder.frontier_update"),
    ("seqrecon.decoder", "find_certificate", "decoder.find_certificate"),
    ("seqrecon.decoder", "reconstruct", "decoder.reconstruct"),
    ("seqrecon.patterns", "PatternSampler.draw", "patterns.draw"),
    ("seqrecon.patterns", "PatternSampler.apply_draw", "patterns.apply_draw"),
    ("seqrecon.words", "Word.parse", "cli.parse"),
    ("seqrecon.oracle", "extremal_search", "oracle.extremal_search"),
]

# per-layer metric -> (unit, span keys it needs)
METRICS = {
    "patterns.draw_us": ("us", ["patterns.draw"]),
    "patterns.apply_draw_us": ("us", ["patterns.apply_draw"]),
    "decoder.push_us": ("us", ["decoder.push"]),
    "decoder.push_self_us": ("us", ["decoder.push"]),
    "decoder.frontier_update_us": ("us", ["decoder.frontier_update"]),
    "decoder.find_certificate_us": ("us", ["decoder.find_certificate"]),
    "decoder.find_certificate_calls": ("count", ["decoder.find_certificate", "decoder.init"]),
    "decoder.reconstruct_ms": ("ms", ["decoder.reconstruct"]),
    "decoder.init_us": ("us", ["decoder.init"]),
    "decoder.reads_per_decode": ("count", ["decoder.push", "decoder.init"]),
    "simulate.trial_self_us": ("us", ["op.sim"]),
    "cli.parse_us": ("us", ["cli.parse"]),
    "cli.self_ms": ("ms", ["op.decode"]),
    "oracle.ns_per_pair_q2": ("ns", ["oracle.search.q2"]),
    "oracle.ns_per_pair_q3": ("ns", ["oracle.search.q3"]),
    "oracle.presearch_ms": ("ms", ["oracle.presearch"]),
}


class Tracer:
    def __init__(self):
        # key -> [calls, total ns, child ns, units]
        self.stats: dict[str, list[int]] = self._fresh()
        self._open: list[list] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    @staticmethod
    def _fresh() -> dict[str, list[int]]:
        return defaultdict(lambda: [0, 0, 0, 0])

    def _extremal_key(self, args) -> tuple[str, int]:
        """A search inside another search is the q > 2 binary pre-search."""
        if any(span[0].startswith("oracle.") for span in self._open):
            return "oracle.presearch", 0
        n, q = args[0], args[1]
        return f"oracle.search.q{q}", math.comb(q**n, 2)

    def take(self) -> dict[str, list[int]]:
        """The stats so far; later spans start from zero."""
        stats, self.stats = self.stats, self._fresh()
        return stats

    def wrap(self, fn, key: str, keyed=None):
        """fn timed in a span named key, or named by keyed(args) -> (key,
        units).  The wrapper also times its own bookkeeping and takes it off
        every enclosing span, so totals and self times leave the tracing out
        up to the call into the wrapper itself."""
        open_spans, now = self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = now()
            span_key, units = keyed(args) if keyed else (key, 0)
            open_spans.append([span_key, 0, 0])  # [key, children's time, tracing cost inside]
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                _, child, cost = open_spans.pop()
                elapsed = end - start - cost
                s = self.stats[span_key]
                s[0] += 1
                s[1] += elapsed
                s[2] += child
                s[3] += units
                if open_spans:
                    parent = open_spans[-1]
                    parent[1] += elapsed
                    parent[2] += now() - entered - elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, path, key in LAYERS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            keyed = self._extremal_key if key == "oracle.extremal_search" else None
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(original.__func__, key, keyed))
            else:
                patched = self.wrap(original, key, keyed)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics computable from one traced segment's stats."""

    def per_call(key, scale):
        calls, total = stats[key][0], stats[key][1]
        return total / calls / scale

    def self_per_call(key, scale):
        calls, total, child = stats[key][:3]
        return (total - child) / calls / scale

    compute = {
        "patterns.draw_us": lambda: per_call("patterns.draw", 1e3),
        "patterns.apply_draw_us": lambda: per_call("patterns.apply_draw", 1e3),
        "decoder.push_us": lambda: per_call("decoder.push", 1e3),
        "decoder.push_self_us": lambda: self_per_call("decoder.push", 1e3),
        "decoder.frontier_update_us": lambda: per_call("decoder.frontier_update", 1e3),
        "decoder.find_certificate_us": lambda: per_call("decoder.find_certificate", 1e3),
        "decoder.find_certificate_calls": lambda: stats["decoder.find_certificate"][0] / stats["decoder.init"][0],
        "decoder.reconstruct_ms": lambda: per_call("decoder.reconstruct", 1e6),
        "decoder.init_us": lambda: per_call("decoder.init", 1e3),
        "decoder.reads_per_decode": lambda: stats["decoder.push"][0] / stats["decoder.init"][0],
        "simulate.trial_self_us": lambda: self_per_call("op.sim", 1e3),
        "cli.parse_us": lambda: per_call("cli.parse", 1e3),
        "cli.self_ms": lambda: self_per_call("op.decode", 1e6),
        "oracle.ns_per_pair_q2": lambda: stats["oracle.search.q2"][1] / stats["oracle.search.q2"][3],
        "oracle.ns_per_pair_q3": lambda: stats["oracle.search.q3"][1] / stats["oracle.search.q3"][3],
        "oracle.presearch_ms": lambda: per_call("oracle.presearch", 1e6),
    }
    out = {}
    for name, (_, keys) in METRICS.items():
        if all(stats.get(key, (0,))[0] for key in keys):
            out[name] = compute[name]()
    return out
