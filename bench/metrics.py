"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` match ``BENCHMARK.json`` entry for entry.
Each per-layer metric names the end-to-end metric and workload it should
move; a change that claims to move it shows the effect there.
"""

from __future__ import annotations

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed beside the end-to-end metrics, but not a gated metric: it is 0
# on a correct run, and failures already fail the run.
ERROR_RATE = ("error_rate", "ratio")

HNF = "latency_p50_s on chain most, then block; about nothing on cli"
LATTICE_REUSE = "latency_p50_s on chain and block"
MODULAR = "latency_p50_s on certified_check"
FINABEL = "latency_p50_s on chain and certified_check"
SEQSPACE = "ops_per_s on block, then chain"
SCAN = "ops_per_s on block"
DECIDERS = "latency_p50_s on chain and block"
REPLAY = "latency_tail_s, ops_per_s and peak_rss_mb on certified_check"
TORUS = "latency_p50_s on cli, expected negligible"
IMPORT = "setup_s on every workload and latency_p50_s on cli"
CLI = "latency_p50_s on cli"


def _calls(fn):
    return lambda s, c, x: s.get(fn, (0, 0.0))[0]


def _self(fn):
    return lambda s, c, x: s.get(fn, (0, 0.0))[1]


def _share(counter, fn):
    def value(s, c, x):
        calls = s.get(fn, (0, 0.0))[0]
        return c[counter] / calls if calls else 0.0

    return value


def _counter(key):
    return lambda s, c, x: c[key]


def _extra(key):
    return lambda s, c, x: x[key]


# (name, unit, better, value(stats, counters, extras), moves)
PER_LAYER = (
    ("intlinalg.hnf.calls", "count", "lower", _calls("intlinalg.hnf"), HNF),
    ("intlinalg.hnf.self_s", "s", "lower", _self("intlinalg.hnf"), HNF),
    ("intlinalg.hnf.cells", "count", "lower", _counter("hnf_cells"), HNF),
    ("intlinalg.echelon_lattice.calls", "count", "lower", _calls("intlinalg.echelon_lattice"), HNF),
    ("intlinalg.echelon_lattice.self_s", "s", "lower", _self("intlinalg.echelon_lattice"), HNF),
    ("intlinalg.hnf.transform_used_ratio", "ratio", "higher", _share("hnf_transform_used", "intlinalg.hnf"), LATTICE_REUSE),
    ("intlinalg.hnf.repeat_ratio", "ratio", "lower", _share("hnf_repeats", "intlinalg.hnf"), LATTICE_REUSE),
    ("intlinalg.kernel_mod.calls", "count", "lower", _calls("intlinalg.kernel_mod"), MODULAR),
    ("intlinalg.kernel_mod.self_s", "s", "lower", _self("intlinalg.kernel_mod"), MODULAR),
    ("intlinalg.snf.calls", "count", "lower", _calls("intlinalg.snf"), MODULAR),
    ("intlinalg.snf.self_s", "s", "lower", _self("intlinalg.snf"), MODULAR),
    ("intlinalg.max_entry_bits", "bits", "lower", _counter("max_entry_bits"), MODULAR),
    ("finabel.span.calls", "count", "lower", _calls("finabel.span"), FINABEL),
    ("finabel.span.self_s", "s", "lower", _self("finabel.span"), FINABEL),
    ("finabel.member.calls", "count", "lower", _calls("finabel.member"), FINABEL),
    ("finabel.member.self_s", "s", "lower", _self("finabel.member"), FINABEL),
    ("finabel.invariant_factors.self_s", "s", "lower", _self("finabel.invariant_factors"), FINABEL),
    ("seqspace.project.calls", "count", "lower", _calls("seqspace.project"), SEQSPACE),
    ("seqspace.project.self_s", "s", "lower", _self("seqspace.project"), SEQSPACE),
    ("seqspace.intersect_directsum.calls", "count", "lower", _calls("seqspace.intersect_directsum"), SEQSPACE),
    ("seqspace.intersect_directsum.self_s", "s", "lower", _self("seqspace.intersect_directsum"), SEQSPACE),
    ("seqspace.intersect_sum_window.calls", "count", "lower", _calls("seqspace.intersect_sum_window"), SEQSPACE),
    ("seqspace.intersect_sum_window.self_s", "s", "lower", _self("seqspace.intersect_sum_window"), SEQSPACE),
    ("seqspace.window_subgroup.calls", "count", "lower", _calls("seqspace.window_subgroup"), SEQSPACE),
    ("seqspace.window_subgroup.self_s", "s", "lower", _self("seqspace.window_subgroup"), SEQSPACE),
    ("seqspace.effective_window.calls", "count", "lower", _calls("seqspace.effective_window"), SEQSPACE),
    ("seqspace.project.repeat_ratio", "ratio", "lower", _share("project_repeats", "seqspace.project"), SEQSPACE),
    ("control.is_k_controllable.calls", "count", "lower", _calls("control.is_k_controllable"), SCAN),
    ("control.is_k_controllable.self_s", "s", "lower", _self("control.is_k_controllable"), SCAN),
    ("control.is_k_controllable.holds_ratio", "ratio", "higher", _share("k_holds", "control.is_k_controllable"), SCAN),
    ("control.strong_index.self_s", "s", "lower", _self("control.strong_index"), SCAN),
)
for _fn in ("is_weakly_controllable_discrete", "is_controllable", "is_uniformly_controllable", "uniformity_defect"):
    PER_LAYER += (
        (f"control.{_fn}.calls", "count", "lower", _calls(f"control.{_fn}"), DECIDERS),
        (f"control.{_fn}.self_s", "s", "lower", _self(f"control.{_fn}"), DECIDERS),
    )
PER_LAYER += (
    ("control.verify_verdict.calls", "count", "lower", _calls("control.verify_verdict"), REPLAY),
    ("control.verify_verdict.self_s", "s", "lower", _self("control.verify_verdict"), REPLAY),
    ("control.WindowOracle.build_s", "s", "lower", _self("control.WindowOracle.build"), REPLAY),
    ("control.WindowOracle.query_s", "s", "lower", _self("control.WindowOracle.query"), REPLAY),
    ("control.WindowOracle.elements", "count", "lower", _counter("oracle_elements"), REPLAY),
    ("structure.decompose.self_s", "s", "lower", _self("structure.decompose"), MODULAR),
    ("torus.to_product_subgroup.self_s", "s", "lower", _self("torus.to_product_subgroup"), TORUS),
    ("torus.noncontrollability_witness.self_s", "s", "lower", _self("torus.noncontrollability_witness"), TORUS),
    ("cli.import_s", "s", "lower", _extra("import_s"), IMPORT),
    ("cli.parse_subgroup.self_s", "s", "lower", _self("cli.parse_subgroup"), CLI),
    ("cli.build_report.self_s", "s", "lower", _self("cli.build_report"), CLI),
    ("cli.render_json.self_s", "s", "lower", _self("cli.render_json"), CLI),
    ("cli.run_reproduce.self_s", "s", "lower", _self("cli.run_reproduce"), CLI),
    ("cli.process_overhead_s", "s", "lower", _extra("process_overhead_s"), CLI),
)


def layer_values(summary: dict, extras: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    stats, counters = summary["stats"], summary["counters"]
    return {name: value(stats, counters, extras) for name, _unit, _better, value, _moves in PER_LAYER}
