"""Sequence reconstruction under unique-error-pattern channel models.

A transmitted q-ary word passes through many channels, each applying a
distinct set of insertion/deletion/substitution errors.  This package
provides the exact channel-count formulas for when the received output
collection pins down the transmitted word, brute-force oracles validating
them, the frequency-restricted code and streaming Las Vegas decoder that
recover a word from simultaneous error types for q >= 4, and a Monte Carlo
harness measuring how many channel reads decoding needs.
"""

from .words import (
    Word,
    hamming_ball_volume,
    hamming_distance,
    insertion_ball_volume,
    support,
    weight,
)
from .patterns import (
    DeletionVector,
    ErrorPattern,
    InsertionVector,
    PatternSampler,
    SubstitutionPattern,
    apply_deletion,
    apply_insertion,
    apply_pattern,
    enumerate_deletion_vectors,
    enumerate_insertion_vectors,
    sample_pattern,
)
from .channels import ChannelModel, OutputCollection, transmit_all, transmit_random
from .bounds import (
    adjacent_singleton_channels,
    binom_ratio,
    binom_ratio_limit,
    cumulative_half_bound,
    expected_unique_patterns,
    levenshtein_deletion_bound,
    levenshtein_insertion_bound,
    multiset_t1_threshold,
    pattern_bound,
    pccp_expectation,
    weight_gap_confusable,
)
from .oracle import ConfusabilityReport, ExtremalResult, confusable_max, extremal_search
from .codebook import (
    CodeParams,
    code_size_lower_bound,
    excluded_count,
    is_codeword,
    sample_codeword,
    third_symbol_floor,
    top_two_threshold,
)
from .decoder import (
    Certificate,
    DecoderConfig,
    Frontier,
    StreamDecoder,
    decode_stream,
    find_certificate,
    reconstruct,
    reconstruction_steps,
)
from .simulate import SimResult, SimSpec, run_sim, run_sweep

__version__ = "0.1.0"
