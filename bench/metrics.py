"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` lists the same names and units; ``test_bench.py``
keeps the two in step.  For each per-layer metric, ``moves`` records which
end-to-end metric it should move, and on which workloads.
"""

from __future__ import annotations

#: (name, unit, better) -- measured with tracing off.  Times are scaled to
#: a reference host speed (``speed.py``); ``run.end_to_end`` says how the
#: passes of a run are summarised.
END_TO_END = (
    ("wall_s", "s", "lower"),          # wall time of a pass over the jobs
    ("cpu_s", "s", "lower"),           # user+sys CPU of the pass's children
    ("setup_s", "s", "lower"),         # start-up probe (--help)
    ("peak_rss_mb", "MB", "lower"),    # largest child max-RSS
)

#: Reported beside the end-to-end metrics but not listed in BENCHMARK.json,
#: whose metrics must never read 0; the result's ``failed``/``attempted``
#: carry the same ratio.
FAIL_RATIO = ("fail_ratio", "1")

#: (name, unit, better, moves) -- from the traced run.
PER_LAYER = (
    ("model.parse_instance_s", "s", "lower", "wall_s on audit and picking"),
    ("model.parse_allocation_s", "s", "lower", "wall_s on audit"),
    ("model.serialize_instance_s", "s", "lower", "wall_s on audit"),
    ("model.binarize_s", "s", "lower", "wall_s on picking and audit"),
    ("model.input_bytes", "bytes", "lower", "wall_s on audit and picking"),
    ("budgets.import_s", "s", "lower", "setup_s on every workload"),
    ("budgets.table_build_s", "s", "lower", "setup_s on every workload"),
    ("fairness.report_s", "s", "lower", "wall_s on audit and picking"),
    ("fairness.agents_checked", "count", "lower", "wall_s on audit and picking"),
    ("fairness.mms_share_s", "s", "lower", "wall_s on audit, a little on oracle"),
    ("fairness.mms_calls", "count", "lower", "wall_s on audit, a little on oracle"),
    ("protocols.picking_s", "s", "lower", "wall_s and cpu_s on picking"),
    ("protocols.turns", "count", "lower", "wall_s and cpu_s on picking"),
    ("protocols.turn_ms", "ms", "lower", "wall_s and cpu_s on picking"),
    ("protocols.member_updates", "count", "lower", "wall_s and cpu_s on picking"),
    ("oracles.sweep_s", "s", "lower", "wall_s and peak_rss_mb on oracle"),
    ("oracles.allocations_examined", "count", "lower", "wall_s on oracle"),
    ("oracles.binary_alloc_per_s", "1/s", "higher", "wall_s on oracle"),
    ("oracles.generic_alloc_per_s", "1/s", "higher", "wall_s on oracle"),
    ("oracles.exists_examined_ratio", "1", "lower", "wall_s on oracle"),
    ("oracles.generate_s", "s", "lower", "wall_s on audit"),
    ("cli.import_s", "s", "lower", "setup_s everywhere, wall_s on audit"),
    ("cli.numpy_import_s", "s", "lower", "setup_s everywhere, wall_s on audit"),
    ("cli.startup_s", "s", "lower", "setup_s everywhere, wall_s on audit"),
    ("cli.self_s", "s", "lower", "wall_s on picking (the --trace job)"),
    ("cli.stdout_bytes", "bytes", "lower", "wall_s on picking"),
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing itself"),
)
