"""The package surface, and what importing each entry point loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import seqrecon

SRC = os.path.dirname(os.path.dirname(seqrecon.__file__))

SUBMODULES = ["bounds", "channels", "codebook", "decoder", "oracle", "patterns", "simulate", "words"]

# The names `seqrecon/__init__.py` re-exported when it imported every
# submodule eagerly, by the submodule that defines them.
REEXPORTS = {
    "words": ["Word", "hamming_ball_volume", "hamming_distance", "insertion_ball_volume",
              "support", "weight"],
    "patterns": ["DeletionVector", "ErrorPattern", "InsertionVector", "PatternSampler",
                 "SubstitutionPattern", "apply_pattern", "sample_pattern"],
    "channels": ["ChannelModel", "OutputCollection", "transmit_all", "transmit_random"],
    "bounds": ["adjacent_singleton_channels", "binom_ratio", "binom_ratio_limit",
               "cumulative_half_bound", "expected_unique_patterns", "levenshtein_deletion_bound",
               "levenshtein_insertion_bound", "multiset_t1_threshold", "pattern_bound",
               "pccp_expectation", "weight_gap_confusable"],
    "oracle": ["ConfusabilityReport", "ExtremalResult", "confusable_max", "extremal_search"],
    "codebook": ["CodeParams", "code_size_lower_bound", "excluded_count", "is_codeword",
                 "sample_codeword", "third_symbol_floor", "top_two_threshold"],
    "decoder": ["Certificate", "DecoderConfig", "Frontier", "StreamDecoder", "decode_stream",
                "find_certificate", "reconstruct", "reconstruction_steps"],
    "simulate": ["SimResult", "SimSpec", "run_sim", "run_sweep"],
}
REEXPORTED = sorted(name for names in REEXPORTS.values() for name in names)


def fresh_interpreter(code: str):
    """The JSON that `code` prints, run in a new interpreter importing from src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(statement: str) -> set[str]:
    return set(fresh_interpreter(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


@pytest.mark.parametrize(
    "module, absent",
    [
        ("seqrecon.oracle", ["seqrecon.simulate", "seqrecon.decoder", "seqrecon.codebook",
                             "seqrecon.bounds", "concurrent.futures"]),
        ("seqrecon.simulate", ["concurrent.futures", "seqrecon.oracle"]),
        ("seqrecon.cli", ["concurrent.futures"]),
    ],
)
def test_import_loads_only_what_the_module_uses(module, absent):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert loaded.isdisjoint(absent), sorted(loaded.intersection(absent))


def test_oracle_loads_exactly_its_own_submodules():
    loaded = loaded_after("import seqrecon.oracle")
    ours = {name for name in loaded if name.startswith("seqrecon.")}
    assert ours == {"seqrecon.oracle", "seqrecon.channels", "seqrecon.patterns", "seqrecon.words"}


def test_public_names_resolve_to_their_definitions():
    # dir() is read first, before any access could bind a name.
    code = (
        "import json, seqrecon\n"
        "names = [n for n in dir(seqrecon) if not n.startswith('_')]\n"
        "value = {n: getattr(seqrecon, n) for n in names}\n"
        "print(json.dumps({n: getattr(v, '__module__', None) or v.__name__ for n, v in value.items()}))"
    )
    origin = fresh_interpreter(code)
    assert sorted(origin) == sorted(REEXPORTED + SUBMODULES)
    for module, names in REEXPORTS.items():
        defining = importlib.import_module(f"seqrecon.{module}")
        assert origin[module] == defining.__name__
        assert getattr(seqrecon, module) is defining
        for name in names:
            assert origin[name] == defining.__name__, name
            assert getattr(seqrecon, name) is getattr(defining, name), name


def test_star_import_binds_every_reexport():
    bound = set(fresh_interpreter(
        "import json\nfrom seqrecon import *\n"
        "print(json.dumps([n for n in dir() if not n.startswith('_') and n != 'json']))"
    ))
    assert set(REEXPORTED) <= bound
    assert bound <= set(REEXPORTED + SUBMODULES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        seqrecon.no_such_name
    with pytest.raises(ImportError):
        from seqrecon import no_such_name  # noqa: F401
    assert "no_such_name" not in dir(seqrecon)
