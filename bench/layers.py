"""Which steadyparts functions the traced run times, and the metrics they feed.

A layer is one module of the package.  Every function below is looked up by
its exported name; a name that no longer exists is skipped, and a metric left
with no function behind it is reported as absent rather than as zero.

``LAYER_METRICS`` gives each per-layer metric its unit and the end-to-end
metrics and workloads it should move when that layer gets faster.  An empty
tuple marks a control layer (expected to stay under 1% of every workload) or
a harness metric.

A time metric is the self time of its spans summed over one pass: a span's
duration less that of the spans nested in it.  Spans of pool threads are
summed too, so on table1-large the pi cells include each thread's wait for
the interpreter lock.  A layer that a workload never calls reads 0 there.
"""

from __future__ import annotations

import sys

# Cells with min(m, n) at or below this are the oracle-sized cells that
# `verify` evaluates by the thousand; larger ones are the user-facing cells.
SMALL_CELL = 64


def cell_metric(big: str):
    """Classify a pi/D call by its size, read from its (m, n) arguments."""

    def pick(args) -> str:
        return "bipartite.small_cells_s" if min(args[0], args[1]) <= SMALL_CELL else big

    pick.names = ("bipartite.small_cells_s", big)
    return pick


def counts(*names: str):
    """Mark a hook ``(args, result) -> {count metric: value}`` with its metrics."""

    def mark(hook):
        hook.names = names
        return hook

    return mark


@counts("partitions.table_entries", "partitions.table_bytes")
def table_size(args, result) -> dict:
    values = result.values()
    return {
        "partitions.table_entries": len(values),
        "partitions.table_bytes": sys.getsizeof(values) + sum(map(sys.getsizeof, values)),
    }


@counts("series.product_terms")
def product_terms(args, result) -> dict:
    return {"series.product_terms": sum(1 for c in args[0].coeffs if c)}


@counts("bipartite.cells")
def one_cell(args, result) -> dict:
    return {"bipartite.cells": 1}


# (module, exported name, metric name or classifier, count hook or None)
TIMED = [
    ("partitions", "build_p_table", "partitions.p_table_s", table_size),
    ("partitions", "build_c_table", "partitions.c_table_s", table_size),
    ("series", "invert", "series.invert_s", product_terms),
    ("bipartite", "pi_value", cell_metric("bipartite.pi_cell_s"), one_cell),
    ("bipartite", "d_value", cell_metric("bipartite.d_cell_s"), one_cell),
    ("bipartite", "d_value_by_difference", cell_metric("bipartite.pi_cell_s"), None),
    ("bipartite", "gf_table", "bipartite.gf_box_s", None),
    ("bipartite", "enumerate_steady", "bipartite.enum_box_s", None),
    ("crank", "crank_column", "crank.column_s", None),
    ("crank", "build_crank_columns", "crank.column_s", None),
    ("crank", "build_crank_table", "crank.full_table_s", None),
    ("crank", "build_crank_table_lambert", "crank.lambert_table_s", None),
    ("crank", "crank_counts_by_enumeration", "crank.enum_s", None),
    ("asymptotics", "asym_pi", "asymptotics.asym_s", None),
    ("asymptotics", "asym_D", "asymptotics.asym_s", None),
    ("asymptotics", "log_of_bigint", "asymptotics.asym_s", None),
    ("formatting", "sci_from_int", "formatting.format_s", None),
    ("formatting", "sci_from_log", "formatting.format_s", None),
    ("formatting", "ratio_string", "formatting.format_s", None),
]

# Counts are summed over a pass, except table_bytes: the largest total of
# one invocation, which is what peak RSS should follow.
COUNT_IS_PEAK = {"partitions.table_bytes"}

T1, CM, VD = "table1-large", "compute-mix", "verify-deep"

# name -> (unit, what it should move: ((end-to-end metric, workload), ...))
LAYER_METRICS = {
    "partitions.p_table_s": ("s", (("wall_s", T1), ("query_p50_s", CM))),
    "partitions.c_table_s": ("s", (("wall_s", T1), ("query_p50_s", CM))),
    "series.invert_s": ("s", (("wall_s", T1), ("query_p50_s", CM))),
    "series.product_terms": ("count", (("wall_s", T1), ("query_p50_s", CM))),
    "partitions.table_entries": ("count", (("wall_s", T1), ("query_p50_s", CM))),
    "partitions.table_bytes": ("bytes", (("peak_rss_mb", T1), ("peak_rss_mb", CM))),
    "bipartite.pi_cell_s": ("s", (("wall_s", T1), ("query_p90_s", CM))),
    "bipartite.cells": ("count", (("wall_s", T1), ("query_p90_s", CM))),
    "bipartite.d_cell_s": ("s", (("query_p90_s", CM),)),
    "crank.column_s": ("s", (("query_p90_s", CM),)),
    "crank.full_table_s": ("s", (("wall_s", VD),)),
    "crank.lambert_table_s": ("s", (("wall_s", VD),)),
    "crank.enum_s": ("s", (("wall_s", VD),)),
    "bipartite.gf_box_s": ("s", (("wall_s", VD),)),
    "bipartite.enum_box_s": ("s", (("wall_s", VD),)),
    "bipartite.small_cells_s": ("s", (("wall_s", VD),)),
    "cli.self_s": ("s", (("setup_s", T1), ("setup_s", CM), ("setup_s", VD), ("query_p50_s", CM))),
    "asymptotics.asym_s": ("s", ()),
    "formatting.format_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.coverage": ("frac", ()),
}

# Metrics that exist whatever the package exports.
ALWAYS = {"cli.self_s", "trace.overhead_s", "trace.coverage"}


def present_metrics(resolved: set) -> set:
    """Metrics fed by at least one resolved (module, name) pair."""
    out = set(ALWAYS)
    for module, name, metric, hook in TIMED:
        if (module, name) in resolved:
            out.update(metric.names if callable(metric) else (metric,))
            out.update(hook.names if hook else ())
    return out
