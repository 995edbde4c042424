"""Layer boundaries of ineqlab and the per-layer metrics derived from their spans.

The traced run wraps the public callables below from outside the package,
at the module attribute each caller actually looks up (linsys imports
count_median by name, so it is wrapped in linsys), and restores them
afterwards.  cli is not measured: it only parses arguments and
prints over the same calls.
"""
from __future__ import annotations

from ineqlab import core, linsys, polylab, qsim, subspace, sweep

from harness import OpRecord, Span, SpanTotals, span_totals


def _ledger_tags(args, kwargs, result):
    return dict(result.ledger.by_subroutine)


def _search_found(args, kwargs, result):
    return result.found is not None


def _lp_shape(args, kwargs, result):
    rows, _rhs, objective = args
    return len(rows), len(objective)


def boundaries():
    """(owner, attribute, span name, note) for every measured call site."""
    out = [
        (core.ProblemInstance, "__post_init__", "core.validate", None),
        (sweep, "run_cell", "sweep.run_cell", None),
        (sweep, "bounded_matrix_product", "linsys.product", _ledger_tags),
        (sweep, "classical_bounded_product", "linsys.classical", _ledger_tags),
        (linsys, "small_matrix_product", "linsys.group", None),
        (linsys, "find_block_length", "linsys.block", None),
        (linsys, "count_median", "qsim.count", None),
        (qsim, "ae_outcome_pmf", "qsim.pmf", None),
        (qsim, "grover_search", "qsim.search", _search_found),
        (subspace, "verify_suite", "subspace.suite", None),
        (subspace, "success_probability_bounds", "subspace.bounds", None),
        (subspace, "build_signed_decomposition", "subspace.decomp", None),
        (subspace, "recast_run", "subspace.recast", None),
        (subspace, "potential_from_joint", "subspace.potential", None),
        (subspace, "build_subspace_chain", "subspace.chain", None),
        (subspace, "check_unitary_maps", "subspace.maps", None),
        (subspace, "variational_distance", "subspace.distance", None),
        (subspace, "random_projective_measurement", "subspace.distance", None),
        (polylab, "extremal_sigma_lp", "polylab.build", None),
        (polylab, "simplex_max", "polylab.simplex", _lp_shape),
        (polylab, "witness_integer_values", "polylab.witness", None),
    ]
    # family generators are looked up through the FAMILIES table
    out += [(sweep.FAMILIES, family, "sweep.instance", None) for family in sweep.FAMILIES]
    return out


# per-layer metric name -> unit; README.md maps each metric to the end-to-end
# metric and workload it should move
PER_LAYER_UNITS = {
    "core.validate_s": "s", "core.validate_calls": "count",
    "sweep.instance_self_s": "s", "sweep.run_cell_self_s": "s",
    "linsys.group_calls": "count", "linsys.group_self_s": "s",
    "linsys.block_calls": "count", "linsys.block_self_s": "s",
    "linsys.probes_per_block": "ratio", "linsys.classical_s": "s",
    "qsim.count_calls": "count", "qsim.count_s": "s",
    "qsim.pmf_calls": "count", "qsim.pmf_s": "s",
    "qsim.search_calls": "count", "qsim.search_s": "s", "qsim.search_found_ratio": "ratio",
    "qsim.counting_queries": "count", "qsim.grover_queries": "count",
    "qsim.classical_read_queries": "count", "qsim.counting_share": "ratio",
    "subspace.bounds_calls": "count", "subspace.bounds_s": "s",
    "subspace.decomp_calls": "count", "subspace.decomp_s": "s",
    "subspace.recast_s": "s", "subspace.potential_s": "s", "subspace.chain_s": "s",
    "subspace.maps_s": "s", "subspace.distance_s": "s",
    "polylab.simplex_calls": "count", "polylab.simplex_s": "s",
    "polylab.lp_rows_mean": "count", "polylab.lp_cols_mean": "count",
    "polylab.build_self_s": "s", "polylab.witness_s": "s",
    "queries_per_op": "count", "space_bits_max": "bit",
    "trace.overhead_ops_per_s": "1/s", "trace.overhead_share": "ratio",
}


def per_layer(spans: list[Span], records: list[OpRecord]) -> dict[str, float]:
    """Per-op means of layer counts and times over the traced ops.

    Times ending in _self_s exclude child spans; the other times are inclusive.
    """
    n = len(records)
    tot = span_totals(spans)

    def total(name) -> SpanTotals:
        return tot.get(name, SpanTotals())

    def calls(name):
        return total(name).calls / n

    def incl(name):
        return total(name).seconds / n

    def own(name):
        return total(name).self_seconds / n

    def ratio(a, b):
        return a / b if b else 0.0

    tags: dict[str, int] = {}
    found = lp_rows = lp_cols = 0
    for s in spans:
        if s.name in ("linsys.product", "linsys.classical"):
            for tag, count in s.info.items():
                tags[tag] = tags.get(tag, 0) + count
        elif s.name == "qsim.search":
            found += s.info
        elif s.name == "polylab.simplex":
            lp_rows += s.info[0]
            lp_cols += s.info[1]
    counting, grover = tags.get(core.TAG_COUNTING, 0), tags.get(core.TAG_GROVER, 0)
    simplex = total("polylab.simplex").calls
    return {
        "core.validate_s": incl("core.validate"),
        "core.validate_calls": calls("core.validate"),
        "sweep.instance_self_s": own("sweep.instance"),
        "sweep.run_cell_self_s": own("sweep.run_cell"),
        "linsys.group_calls": calls("linsys.group"),
        "linsys.group_self_s": own("linsys.group"),
        "linsys.block_calls": calls("linsys.block"),
        "linsys.block_self_s": own("linsys.block"),
        "linsys.probes_per_block": ratio(total("qsim.count").calls, total("linsys.block").calls),
        "linsys.classical_s": incl("linsys.classical"),
        "qsim.count_calls": calls("qsim.count"),
        "qsim.count_s": incl("qsim.count"),
        "qsim.pmf_calls": calls("qsim.pmf"),
        "qsim.pmf_s": incl("qsim.pmf"),
        "qsim.search_calls": calls("qsim.search"),
        "qsim.search_s": incl("qsim.search"),
        "qsim.search_found_ratio": ratio(found, total("qsim.search").calls),
        "qsim.counting_queries": counting / n,
        "qsim.grover_queries": grover / n,
        "qsim.classical_read_queries": tags.get(core.TAG_CLASSICAL, 0) / n,
        "qsim.counting_share": ratio(counting, sum(tags.values())),
        "subspace.bounds_calls": calls("subspace.bounds"),
        "subspace.bounds_s": incl("subspace.bounds"),
        "subspace.decomp_calls": calls("subspace.decomp"),
        "subspace.decomp_s": incl("subspace.decomp"),
        "subspace.recast_s": incl("subspace.recast"),
        "subspace.potential_s": incl("subspace.potential"),
        "subspace.chain_s": incl("subspace.chain"),
        "subspace.maps_s": incl("subspace.maps"),
        "subspace.distance_s": incl("subspace.distance"),
        "polylab.simplex_calls": calls("polylab.simplex"),
        "polylab.simplex_s": incl("polylab.simplex"),
        "polylab.lp_rows_mean": ratio(lp_rows, simplex),
        "polylab.lp_cols_mean": ratio(lp_cols, simplex),
        "polylab.build_self_s": own("polylab.build"),
        "polylab.witness_s": incl("polylab.witness"),
    }


LAYER_TIMES = [name for name, unit in PER_LAYER_UNITS.items() if unit == "s"]


def _largest(metrics) -> str:
    return max(LAYER_TIMES, key=lambda name: metrics[name])


# the profile measured when the benchmark was defined, checked on every traced
# run: workload -> [(claim, predicate over per-layer metrics and mean op seconds)]
EXPECTED_PROFILE = {
    "product-sampled": [
        ("qsim.counting_share >= 0.9", lambda m, op_s: m["qsim.counting_share"] >= 0.9),
        ("qsim.count_s is the largest layer time",
         lambda m, op_s: _largest(m) == "qsim.count_s"),
    ],
    "product-exact": [
        ("qsim.pmf_calls == 0", lambda m, op_s: m["qsim.pmf_calls"] == 0),
        ("qsim.search_s is the largest layer time",
         lambda m, op_s: _largest(m) == "qsim.search_s"),
    ],
    "subspace-suite": [
        ("subspace.bounds_s >= 0.8 of op time", lambda m, op_s: m["subspace.bounds_s"] >= 0.8 * op_s),
    ],
    "poly-lp": [
        ("polylab.simplex_s >= 0.9 of op time", lambda m, op_s: m["polylab.simplex_s"] >= 0.9 * op_s),
    ],
}
