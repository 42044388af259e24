"""Per-layer metrics computed from a finished trace.

A layer idle on a workload reports 0 for its metrics there (for example
``coupling.*`` on the census).  Call counts are per operation of the
traced pass: per census trial, chain step or walker draw.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def census_breakdown(spans, by_name) -> list[dict]:
    """Split each census call's wall time into set-up, draws, decomposition
    and the remainder (the harness's own overhead)."""
    out = []
    for c in by_name["census"]:
        _, _, c0, c1, _ = spans[c]

        def busy(name):
            return sum(
                spans[i][3] - spans[i][2]
                for i in by_name[name]
                if c0 <= spans[i][2] and spans[i][3] <= c1
            )

        setup, draws, decomp = busy("worker_init"), busy("sample"), busy("decomp")
        wall = c1 - c0
        out.append(
            {
                "wall_s": wall,
                "setup_s": setup,
                "draws_s": draws,
                "decomposition_s": decomp,
                "overhead_s": wall - (setup + draws + decomp),
            }
        )
    return out


def layer_metrics(tracer, details: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, plus the census breakdown."""
    spans = tracer.all_spans()
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, (name, parent, *_rest) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            children[parent].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def durations(ids, scale=1.0):
        return [dur(i) * scale for i in ids]

    samples = set(by_name["sample"])
    tails = [i for i in by_name["tail"] if spans[i][1] in samples]
    head_walks = [i for i in by_name["walk"] if spans[i][1] in samples]
    walker = [i for i in by_name["walk"] if spans[i][1] not in samples]
    split_self = [dur(i) - sum(dur(c) for c in children[i]) for i in samples]
    steps = by_name["step"]
    counts = tracer.counts
    ops = details["traced_ops"]
    traced_trials = ops if by_name["census"] else 0
    breakdown = census_breakdown(spans, by_name)

    def per_op(name):
        return counts[name][0] / ops

    def ms_per_call(name):
        calls, secs = counts[name]
        return secs / calls * 1e3 if calls else 0.0

    head_sizes = [spans[i][4] for i in by_name["split_init"]]
    metrics = {
        "counting.build_s": _mean(durations(by_name["build_table"])),
        "counting.cells": details["cells"],
        "counting.cache_bytes": details["cache_bytes"],
        "counting.cache_write_s": details["cache_write_s"],
        "counting.cache_read_s": details["cache_read_s"],
        "sampling.split_setup_s": _mean(durations(by_name["split_init"])),
        "sampling.draw_ms.p50": _percentile(durations(samples, 1e3), 0.50),
        "sampling.draw_ms.p99": _percentile(durations(samples, 1e3), 0.99),
        "sampling.tail_ms": _mean(durations(tails, 1e3)),
        "sampling.head_walk_ms": _mean(durations(head_walks, 1e3)),
        "sampling.split_self_ms": _mean(split_self) * 1e3,
        "sampling.walker_ms.p50": _percentile(durations(walker, 1e3), 0.50),
        "sampling.acceptance": len(samples) / len(tails) if tails else 0.0,
        "sampling.head_size": statistics.median(head_sizes) if head_sizes else 0,
        "rng.uniform_below.calls": per_op("uniform_below"),
        "rng.uniform_below_ms": ms_per_call("uniform_below"),
        "rng.bernoulli.calls": per_op("bernoulli"),
        "rng.categorical.calls": per_op("categorical"),
        "permutations.decomp_ms.p50": _percentile(durations(by_name["decomp"], 1e3), 0.50),
        "permutations.bijection_ms": _mean(durations(by_name["bijection"], 1e3)),
        "coupling.direct_step_ms.p50": _percentile(
            [dur(i) * 1e3 for i in steps if not spans[i][4]], 0.50
        ),
        "coupling.reflected_step_ms.p50": _percentile(
            [dur(i) * 1e3 for i in steps if spans[i][4]], 0.50
        ),
        "coupling.beta_ms": ms_per_call("beta"),
        "coupling.beta.calls": per_op("beta"),
        "coupling.rho_entry.calls": per_op("rho_entry"),
        "limits.params_ms": _mean(durations(by_name["params"], 1e3)),
        "experiments.overhead_s": _mean([b["overhead_s"] for b in breakdown]),
        "experiments.worker_setup_s": _mean(durations(by_name["worker_init"])),
        "trace.overhead_s": details["trace_overhead_s"],
        "trace.missing_spans": max(0, traced_trials - len(samples)),
    }
    return {"metrics": metrics, "census_breakdown": breakdown, "span_count": len(spans)}
