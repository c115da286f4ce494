"""The benchmark's traced run must still find and time every layer.

seqbench's Tracer skips a wrapped name that no longer exists, and a layer
that is no longer called yields no metric; either way the traced run loses
a per-layer metric without failing.  This drives each traced layer once.
"""

import importlib.util
from pathlib import Path

from seqrecon import cli, oracle, simulate
from seqrecon.channels import ChannelModel

TRACING = Path(__file__).resolve().parents[1] / "seqbench" / "tracing.py"

FIX_ROWS = [
    "10003010210",
    "12132110121",
    "22003202212",
    "31203213241",
    "34203032021",
    "31003351021",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("seqbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_measures_every_layer(tmp_path, capsys):
    tracing = load_tracing()
    path = tmp_path / "outputs.txt"
    path.write_text("\n".join(FIX_ROWS) + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        decode = tracer.wrap(cli.main, "op.decode")
        argv = ["decode", "--q", "6", "--n", "10", "--ts", "1", "--td", "1", "--ti", "2"]
        assert decode(argv + ["--file", str(path)]) == 0
        sim = tracer.wrap(simulate.run_sim, "op.sim")
        spec = simulate.SimSpec(q=4, n=100, t_sub=0, t_del=0, t_ins=1, samples=1, seed=1)
        assert sim(spec).failures == 0
        # Through the module, so that the wrapped extremal_search is called.
        for q in (2, 3):
            oracle.extremal_search(4, q, 1, "exactly", ChannelModel.MULTISET)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    assert sorted(tracing.layer_metrics(tracer.take())) == sorted(tracing.METRICS)
