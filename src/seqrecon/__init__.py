"""Sequence reconstruction under unique-error-pattern channel models.

A transmitted q-ary word passes through many channels, each applying a
distinct set of insertion/deletion/substitution errors.  This package
provides the exact channel-count formulas for when the received output
collection pins down the transmitted word, brute-force oracles validating
them, the frequency-restricted code and streaming Las Vegas decoder that
recover a word from simultaneous error types for q >= 4, and a Monte Carlo
harness measuring how many channel reads decoding needs.

Submodules load on first use (PEP 562): `import seqrecon.oracle` loads only
the oracle and what it imports, and a name re-exported here, such as
`seqrecon.run_sim`, imports its submodule when first read.
"""

from importlib import import_module as _import_module

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "words": ("Word", "hamming_ball_volume", "hamming_distance", "insertion_ball_volume",
              "support", "weight"),
    "patterns": ("DeletionVector", "ErrorPattern", "InsertionVector", "PatternSampler",
                 "SubstitutionPattern", "apply_pattern", "sample_pattern"),
    "channels": ("ChannelModel", "OutputCollection", "transmit_all", "transmit_random"),
    "bounds": ("adjacent_singleton_channels", "binom_ratio", "binom_ratio_limit",
               "cumulative_half_bound", "expected_unique_patterns", "levenshtein_deletion_bound",
               "levenshtein_insertion_bound", "multiset_t1_threshold", "pattern_bound",
               "pccp_expectation", "weight_gap_confusable"),
    "oracle": ("ConfusabilityReport", "ExtremalResult", "confusable_max", "extremal_search"),
    "codebook": ("CodeParams", "code_size_lower_bound", "excluded_count", "is_codeword",
                 "sample_codeword", "third_symbol_floor", "top_two_threshold"),
    "decoder": ("Certificate", "DecoderConfig", "Frontier", "StreamDecoder", "decode_stream",
                "find_certificate", "reconstruct", "reconstruction_steps"),
    "simulate": ("SimResult", "SimSpec", "run_sim", "run_sweep"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_ORIGIN[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
