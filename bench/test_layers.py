"""Checks of the layer boundaries against ineqlab itself.

    python3 -m pytest bench/test_layers.py
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harness import OpRecord, Outcome, Tracer, _get  # noqa: E402
from ineqlab import sweep  # noqa: E402

import layers  # noqa: E402


def test_traced_cell_reproduces_the_query_mix_and_restores_the_package():
    before = {(id(owner), key): _get(owner, key)
              for owner, key, _, _ in layers.boundaries()}
    tracer = Tracer()
    with tracer.installed(layers.boundaries()):
        tracer.op = 0
        row = sweep.run_cell("regular", 128, 2, 32, "cost-model", 0)
    after = {(id(owner), key): _get(owner, key)
             for owner, key, _, _ in layers.boundaries()}
    assert before == after

    m = layers.per_layer(tracer.spans, [OpRecord(0, 0, 1.0, Outcome(True))])
    # the query mix of this cell at seed 0, measured without tracing
    assert (m["qsim.counting_queries"], m["qsim.grover_queries"],
            m["qsim.classical_read_queries"]) == (50186, 3936, 309)
    assert row.total_queries == 50186 + 3936 + 309
    assert m["core.validate_calls"] == 1
    assert m["qsim.pmf_calls"] > 0 and m["linsys.probes_per_block"] > 1
    assert 0.9 < m["qsim.counting_share"] < 0.93
