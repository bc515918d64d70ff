"""Which hierasure functions the traced run wraps, and the per-layer metrics.

Spans are named ``<module>.<function>``; the ``cli.*`` spans are opened by
the cli-pipeline workload around its ``cli.main`` calls.  Every metric is
reported per operation (summed over the traced operations, divided by their
number), except the ratios.  ``bounds`` is not traced: it does microsecond
integer arithmetic that no workload spends time in.
"""

from __future__ import annotations

from hierasure import (  # cli is imported so that install() patches its by-name imports
    cli,  # noqa: F401
    codes,
    constructions,
    correctability,
    fields,
    linalg,
    patterns,
    serialize,
    udm,
)

from tracer import OP, Tracer

GREEDY = "constructions.greedy_gv_code"
PER_OP_S = "s/op"
PER_OP_N = "count/op"


def _rank_cells(tr: Tracer, result, args, kwargs):
    rows = args[0]
    tr.count("linalg.rank_cells", len(rows) * (len(rows[0]) if len(rows) else 0))


def _expansion(tr: Tracer, result, args, kwargs):
    if tr.note_expansion(args[0], args[1]):
        tr.count("correctability.expansions_built")


def _probe(tr: Tracer, result, args, kwargs):
    if tr.depth(GREEDY):
        tr.count("constructions.gv_probes")
        if result.correcting:
            tr.count("constructions.gv_accepted")


def install(tr: Tracer):
    w, g = tr.wrap, tr.wrap_generator
    functions = [
        (linalg, "rank", lambda f: w("linalg.rank", f, _rank_cells)),
        (linalg, "solve", lambda f: w("linalg.solve", f)),
        (linalg, "right_kernel", lambda f: w("linalg.right_kernel", f)),
        (correctability, "is_correcting", lambda f: w("correctability.is_correcting", f, _probe)),
        (correctability, "pattern_correctable", lambda f: w("correctability.pattern_correctable", f)),
        (correctability, "pattern_system", lambda f: w("correctability.pattern_system", f, _expansion)),
        (correctability, "decode", lambda f: w("correctability.decode", f)),
        (fields, "make_tower", lambda f: w("fields.make_tower", f)),
        (patterns, "maximal_patterns",
         lambda f: g("patterns.maximal_patterns", f, "patterns.maximal_yielded")),
        (patterns, "enumerate_family",
         lambda f: g("patterns.enumerate_family", f, "patterns.enumerated")),
        (patterns, "apply_erasure", lambda f: w("patterns.apply_erasure", f)),
        (constructions, "greedy_gv_code", lambda f: w(GREEDY, f)),
        (udm, "verify_udm", lambda f: w("udm.verify_udm", f)),
        (udm, "vontobel_udms", lambda f: w("udm.vontobel_udms", f)),
        (serialize, "code_from_json", lambda f: w("serialize.code_from_json", f)),
        (serialize, "code_to_json", lambda f: w("serialize.code_to_json", f)),
        (serialize, "received_from_json", lambda f: w("serialize.received_from_json", f)),
    ]
    methods = [
        (fields.OrderedBasis, "coordinates", lambda f: w("fields.OrderedBasis.coordinates", f)),
        (fields.OrderedBasis, "combine", lambda f: w("fields.OrderedBasis.combine", f)),
        (codes.LinearCode, "__post_init__", lambda f: w("codes.LinearCode.__post_init__", f)),
    ]
    tr.install(functions, methods)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tr: Tracer, ops: int, overhead_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    t, c, n = tr.time_in, tr.calls, tr.counters.get
    per = 1.0 / ops
    ps_calls = c("correctability.pattern_system")
    built = n("correctability.expansions_built", 0)
    probes = n("constructions.gv_probes", 0)
    return {
        "linalg.rank_calls": (c("linalg.rank") * per, PER_OP_N),
        "linalg.rank_s": (t("linalg.rank") * per, PER_OP_S),
        "linalg.rank_cells": (n("linalg.rank_cells", 0) * per, PER_OP_N),
        "linalg.solve_calls": (c("linalg.solve") * per, PER_OP_N),
        "linalg.solve_s": (t("linalg.solve") * per, PER_OP_S),
        "linalg.right_kernel_s": (t("linalg.right_kernel") * per, PER_OP_S),
        "correctability.patterns_checked": (c("correctability.pattern_correctable") * per, PER_OP_N),
        "correctability.pattern_system_calls": (ps_calls * per, PER_OP_N),
        "correctability.expansions_built": (built * per, PER_OP_N),
        "correctability.expansion_reuse_ratio": (_ratio(ps_calls - built, ps_calls), "ratio"),
        "correctability.pattern_system_s": (t("correctability.pattern_system") * per, PER_OP_S),
        "correctability.decode_s": (t("correctability.decode") * per, PER_OP_S),
        "fields.coordinates_calls": (c("fields.OrderedBasis.coordinates") * per, PER_OP_N),
        "fields.coordinates_s": (t("fields.OrderedBasis.coordinates") * per, PER_OP_S),
        "fields.combine_calls": (c("fields.OrderedBasis.combine") * per, PER_OP_N),
        "fields.combine_s": (t("fields.OrderedBasis.combine") * per, PER_OP_S),
        "fields.make_tower_s": (t("fields.make_tower") * per, PER_OP_S),
        "patterns.maximal_s": (t("patterns.maximal_patterns") * per, PER_OP_S),
        "patterns.maximal_yielded": (n("patterns.maximal_yielded", 0) * per, PER_OP_N),
        "patterns.enumerated": (n("patterns.enumerated", 0) * per, PER_OP_N),
        "patterns.apply_erasure_s": (t("patterns.apply_erasure") * per, PER_OP_S),
        "codes.code_inits": (c("codes.LinearCode.__post_init__") * per, PER_OP_N),
        "codes.code_init_s": (t("codes.LinearCode.__post_init__") * per, PER_OP_S),
        "constructions.greedy_gv_s": (t(GREEDY) * per, PER_OP_S),
        "constructions.gv_probes": (probes * per, PER_OP_N),
        "constructions.gv_accept_ratio": (_ratio(n("constructions.gv_accepted", 0), probes), "ratio"),
        "udm.verify_udm_calls": (c("udm.verify_udm") * per, PER_OP_N),
        "udm.verify_udm_s": (t("udm.verify_udm") * per, PER_OP_S),
        "serialize.code_from_json_s": (t("serialize.code_from_json") * per, PER_OP_S),
        "serialize.code_to_json_s": (t("serialize.code_to_json") * per, PER_OP_S),
        "serialize.received_from_json_s": (t("serialize.received_from_json") * per, PER_OP_S),
        "cli.construct_s": (t("cli.construct") * per, PER_OP_S),
        "cli.verify_s": (t("cli.verify") * per, PER_OP_S),
        "cli.decode_s": (t("cli.decode") * per, PER_OP_S),
        "trace.op_s": (t(OP) * per, PER_OP_S),
        "trace.uncovered_s": (tr.self_time(OP) * per, PER_OP_S),
        "trace.overhead_s": (overhead_s, PER_OP_S),
    }
