"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and units;
the benchmark's tests keep the two in step.  For each per-layer metric,
``moves`` names the end-to-end metric it should move and on which workload.
"""

# (name, unit, better, definition)
END_TO_END = (
    ("setup_s", "s", "lower",
     "fresh interpreter until the first case is ready: import, corpus "
     "generation, parsing, CycloField construction; median of 11 processes"),
    ("solve_s", "s", "lower",
     "one pass of every case through its checked entry point; median over passes"),
    ("largest_case_s", "s", "lower",
     "the workload's biggest case; median over passes"),
    ("basis_per_s", "1/s", "higher",
     "basis elements of every complex whose homology a pass computes, "
     "per second of solve_s"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the workload's process"),
    ("pass_ratio", "ratio", "higher",
     "cases that ran and agreed, over cases attempted (1 - fail ratio)"),
)

# (name, unit, better, moves)
PER_LAYER = (
    ("diagram.parse_s", "s", "lower", "setup_s, all workloads (a floor)"),
    ("resolution.resolve_s", "s", "lower", "solve_s on torus (2^k cube) and colorings (survivors)"),
    ("resolution.resolve_calls", "count", "lower", "solve_s on torus and colorings"),
    ("states.enumerate_s", "s", "lower", "solve_s on torus and colorings"),
    ("states.enumerate_calls", "count", "lower", "solve_s on torus and colorings"),
    ("states.admissible", "count", "lower", "solve_s on torus and colorings"),
    ("chain.build_self_s", "s", "lower", "solve_s and peak_rss_mb on torus"),
    ("chain.basis", "count", "lower", "solve_s and peak_rss_mb on torus"),
    ("chain.nnz", "count", "lower", "solve_s and peak_rss_mb on torus"),
    ("chain.degree_dim_max", "count", "lower", "peak_rss_mb on torus"),
    ("chain.d_squared_s", "s", "lower", "solve_s on torus and verify"),
    ("chain.rescale_s", "s", "lower", "solve_s on verify"),
    ("homology.rank_s", "s", "lower", "solve_s, largest_case_s on torus and verify; ~0 on colorings"),
    ("homology.rank_max_s", "s", "lower", "largest_case_s on torus and verify"),
    ("homology.rank_calls", "count", "lower", "solve_s on torus and verify"),
    ("homology.rank_rows_max", "count", "lower", "largest_case_s and peak_rss_mb on torus"),
    ("homology.rank_sum", "count", "lower", "must not change: equals the untraced pass"),
    ("homology.rank_per_row", "ratio", "higher", "solve_s on torus and verify"),
    ("homology.survivor_scan_s", "s", "lower", "solve_s on colorings"),
    ("homology.survivor_hit_ratio", "ratio", "higher", "solve_s on colorings"),
    ("homology.closed_form_s", "s", "lower", "solve_s on colorings"),
    ("homology.survivors_s", "s", "lower", "solve_s on colorings"),
    ("homology.colorings", "count", "lower", "solve_s on colorings"),
    ("homology.reconcile_s", "s", "lower", "solve_s on colorings"),
    ("cyclotomic.mul", "count", "lower", "solve_s on torus and verify"),
    ("cyclotomic.add", "count", "lower", "solve_s on torus and verify"),
    ("cyclotomic.inv", "count", "lower", "solve_s on torus and verify"),
    ("potential.lemma_s", "s", "lower", "solve_s on verify"),
    ("potential.tuples", "count", "lower", "solve_s on verify"),
    ("states.projector_s", "s", "lower", "solve_s on verify"),
    ("trace.solve_s", "s", "lower", "traced pass time; solve_s on every workload"),
    ("trace.layer_self_s", "s", "lower", "sum of the layer self times in trace.solve_s"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced pass time"),
)
