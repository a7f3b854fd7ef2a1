(** Simulator-throughput benchmark: accesses/second through
    [Engine.access] per architecture x replacement policy, exported as
    [BENCH_cache.json] (schema {!schema}). Every suite here writes and
    reads its file through {!Bench_record}: its entry
    maps to one flat row ([to_row]) and back ([of_row]), so runs from
    different checkouts are directly comparable row by row. *)

open Cachesec_runtime

type entry = {
  arch : string;
  policy : string;  (** a {!Cachesec_cache.Policy.to_string} spelling
      ("lru" .. "plru") or "secrand" (Newcache) *)
  accesses : int;  (** timed accesses (after a warm-up pass) *)
  seconds : float;  (** fastest repetition *)
  per_sec : float;  (** [accesses /. seconds] *)
  warmup : int;  (** warm-up accesses before the first stopwatch *)
  repeats : int;  (** timed repetitions behind [seconds]/[stddev] *)
  stddev : float;  (** of accesses/sec across the repetitions — the
      error bar; 0 for single-repetition (or v1-seed) rows *)
  kernel : string;  (** [Engine.t.run_kernel]: the step that served
      the row (["sa-lru"], ["newcache"], ...); [""] for v1-seed rows *)
  slab_bytes : int;  (** [Slab.bytes] of [Engine.t.slab]; 0 for v1-seed rows *)
}

val stddev_of : float list -> float
(** Standard deviation of the per-repetition rates behind a row's error
    bar — the POPULATION convention (divide by [n]): the repetitions
    ARE the complete set being described, not a sample from which a
    larger population's spread is inferred. [0.] below two values.
    Contrast {!Cachesec_stats.Summary.std}, which uses the unbiased
    SAMPLE convention ([n-1]) because a summary always holds a sample
    of a larger trial population. Both conventions are pinned by
    regression tests in test_bench. *)

val bench : Run.ctx -> entry list
(** Time every case over a frozen mixed working set (hot 600-line
    region + 4096-line spread) after a warm-up pass: 40k accesses each
    when [ctx.quick], 400k otherwise, and the fastest of 3 repetitions
    (2 under [ctx.quick]), with the stddev of the per-repetition rates
    as the error bar. Each case
    is bracketed in a [throughput:<arch>] span with [accesses_per_sec] /
    [accesses] gauges plus [cache.kernel] (1.0 = the engine's own step,
    0.0 = {!Cachesec_cache.Kernel.generic} — gauges are floats; the
    name string is in the JSON row) and [cache.slab_bytes], reported only after the
    stopwatch has stopped — the timed loop is never instrumented. *)

val schema : string
(** ["bench_cache/v2"]: v1's keys plus [warmup], [repeats], [stddev],
    [kernel], [slab_bytes]. *)

val to_row : entry -> Bench_record.row

val of_row : Bench_record.row -> entry option
(** [None] for a row of another suite. A row missing the v2 keys (the
    frozen v1 seed) gets [warmup = 0], [repeats = 1], [stddev = 0.],
    [kernel = ""], [slab_bytes = 0]. *)

val find : entry list -> arch:string -> policy:string -> entry option

val gate : seed:string -> entry list -> string
(** The ["gate bench_cache"] line: the sa/lru rate over the [seed]
    file's sa/lru rate against the 2.50x floor, PASS or FAIL; FAIL when
    [seed] has no sa/lru row. *)

val render : ?baseline:string -> entry list -> string
(** Human-readable table; when [baseline] names a readable bench file,
    adds a per-row speedup column against its rows. *)

(** End-to-end attack throughput: whole attack trials per second
    (prime → victim encryption → probe → scoring) through the real
    harness via each attack's [run_span] — the unit Driver shards fan
    out — per attack class × representative architecture, on the
    production [access_run] path (rows labelled ["batched"]). Exported
    as [BENCH_attacks.json] (schema {!Attacks.schema}). The gate compares
    current batched rows against the frozen pre-batching seed file's
    scalar rows. *)
module Attacks : sig
  type entry = {
    attack : string;  (** "prime-probe" | "evict-time" | "flush-reload" | "collision" *)
    arch : string;
    path : string;
        (** ["batched"] for every measured row; ["scalar"] only on rows
            read from a pre-batching baseline file *)
    trials : int;  (** timed trials (after a warm-up span) *)
    seconds : float;
    per_sec : float;
  }

  val bench : Run.ctx -> entry list
  (** Time every class × arch case at the FULL trial counts, after one
      warm-up span of a tenth of them, keeping the fastest repetition
      (the minimum is the standard estimator of unloaded cost). The
      gate compares rates against a full-count baseline, and rates
      only transfer when per-span fixed costs amortize identically on
      both sides. [ctx.quick] economises on
      repetitions (2 instead of 3) rather than trials: variance, not
      bias. Each case is spanned as [attacks:<class>:<arch>:<path>]
      with [trials_per_sec] / [trials] gauges reported after its
      stopwatch has stopped. *)

  val schema : string
  (** ["bench_attacks/v2"]. *)

  val to_row : entry -> Bench_record.row

  val of_row : Bench_record.row -> entry option
  (** A row without a [path] key (the pre-batching v1 seed) is labelled
      ["scalar"], which is what it measured. *)

  val speedups : seed:string -> entry list -> (string * float option) list
  (** Per attack class: the minimum speedup of its batched rows over
      the [seed] file's scalar rows of the same arch; [None] when the two
      share no row. *)

  val gate : seed:string -> entry list -> string
  (** One ["gate bench_attacks"] line per class from {!speedups}.
      Prime-probe and evict-time (the two whose trial cost is dominated
      by batched runs) are hard PASS/FAIL against the 1.30x floor, and
      FAIL without a ratio; flush-reload and collision print
      ["(reported)"]. *)

  val render : ?baseline:string -> entry list -> string
end

(** Adaptive-stopping benchmark: the quick validation matrix run twice
    through the same adaptive machinery and batch plan — a [fixed] arm
    ([ci_width = 0.], never stops early, measures the CI widths the
    fixed budgets achieve) and an [adaptive] arm targeted at the fixed
    arm's worst achieved width. The trials ratio between the arms is
    what sequential stopping saves at matched worst-cell precision; it
    is seed-deterministic and jobs-invariant, so it gates hard.
    Wall-clock rides along (reported, compared against the committed
    baseline's adaptive rows, never gated). Rows are exported into
    [BENCH_e2e.json] alongside the pipelining rows (schema
    {!E2e.schema}). *)
module Adaptive : sig
  type entry = {
    arm : string;  (** "fixed" | "adaptive" *)
    jobs : int;
    cores : int;
    cells : int;
    trials : int;  (** attack trials executed across the matrix *)
    caps : int;  (** total trial budget of the same cells *)
    width : float;  (** worst achieved CI half-width across the cells *)
    seconds : float;
  }

  val bench : Run.ctx -> entry list
  (** Always quick scale; each arm spanned as [adaptive:<arm>] with
      [seconds] / [trials] / [ci_width] gauges. Returns
      [[fixed; adaptive]]. *)

  val to_row : entry -> Bench_record.row

  val of_row : Bench_record.row -> entry option
  (** [None] for the section-mode rows sharing the file. *)

  val gate : entry list -> string
  (** The ["gate adaptive"] line: the within-run trials ratio
      fixed/adaptive against the 2.00x floor, PASS or FAIL; FAIL when an
      arm is missing. Hard on every host: the ratio is a function of the
      seeds alone. *)

  val render : ?baseline:string -> entry list -> string
end

(** End-to-end harness throughput: wall-clock of whole report sections —
    the quick-scale validation matrix (36 cells) and the experimental
    figures (9 and 10) — measured twice, with strictly sequential
    campaign execution and with cross-campaign pipelining over the
    persistent Domain pool. Both arms run identical trials under
    identical seeds, so the sequential/pipelined ratio isolates what the
    pool buys: later campaigns' shards filling worker idle time at
    earlier campaigns' join barriers. Exported as [BENCH_e2e.json]
    (schema {!E2e.schema}, shared with {!Adaptive}'s rows); the committed
    [bench/BENCH_e2e.baseline.json] was recorded pre-refactor and feeds
    the [vs base] trajectory column. *)
module E2e : sig
  type entry = {
    section : string;  (** "validation-matrix" | "figures" *)
    mode : string;  (** "sequential" | "pipelined" *)
    jobs : int;  (** resolved worker count of the run *)
    cores : int;  (** [Domain.recommended_domain_count] on the host *)
    units : int;  (** work units in the section (cells / figures) *)
    seconds : float;
  }

  val bench : Run.ctx -> entry list
  (** Run both sections in both modes (sequential arm first), always at
      quick scale; each (mode, section) is spanned as
      [e2e:<mode>:<section>] with [seconds] / [units] gauges. Results
      are bit-identical between the arms — only the wall-clock differs
      (enforced by test_runtime's pipelined-equivalence cases). *)

  val schema : string
  (** ["bench_e2e/v2"]: the pipelining rows, then {!Adaptive}'s rows,
      in one entries array. *)

  val to_row : entry -> Bench_record.row

  val of_row : Bench_record.row -> entry option
  (** [None] for the adaptive rows sharing the file. *)

  val gate : entry list -> string
  (** The ["gate e2e"] line: total sequential seconds / total pipelined
      seconds, PASS or FAIL against the 1.30x floor when the run could
      demonstrate parallelism (host cores >= 4 and jobs >= 4), and
      ["(reported: ...)"] otherwise — on a small host there are no idle
      workers to fill, so a ratio near 1.0 is the expected honest
      answer, not a regression. No verdict when an arm is missing. *)

  val render : ?baseline:string -> entry list -> string
end
