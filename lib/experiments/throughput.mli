(** Simulator-throughput benchmark: accesses/second through
    [Engine.access] per architecture x replacement policy, exported as
    [BENCH_cache.json] (schema {!schema}). Every suite here writes and
    reads its file through {!Cachesec_report.Bench_record}: its entry
    maps to one flat row ([to_row]) and back ([of_row]), so runs from
    different checkouts are directly comparable row by row. *)

open Cachesec_runtime
module Bench_record = Cachesec_report.Bench_record

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
    regression tests in test_stats. *)

val measure :
  ?accesses:int ->
  ?seed:int ->
  ?repeats:int ->
  Cachesec_cache.Spec.t ->
  entry
(** Time [accesses] engine accesses over a frozen mixed working set
    (hot 600-line region + 4096-line spread), after a warm-up pass.
    [repeats] (default 3) timed repetitions over the same addresses;
    the fastest is reported (minimum time is the standard estimator of
    unloaded cost) with the stddev of the per-repetition rates as the
    error bar. *)

val bench : Run.ctx -> entry list
(** Measure every case (40k accesses each when [ctx.quick], 400k
    otherwise; 2 repetitions instead of 3 under [ctx.quick]). Each case
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

  val classes : string list
  (** The four attack-class names, in benchmark row order. *)

  val measure :
    ?seed:int -> ?trials:int -> ?repeats:int ->
    string -> Cachesec_cache.Spec.t -> entry
  (** Time [trials] attack trials (one warm-up span of [trials/10]
      first), repeated [repeats] (default 3) times, keeping the fastest
      repetition — these rates feed a hard gate, and the minimum over
      repetitions is the standard estimator of unloaded cost (external
      load only ever adds time). Raises [Invalid_argument] on an unknown attack
      class. *)

  val bench : Run.ctx -> entry list
  (** Measure every class × arch case at the FULL
      trial counts — the gate compares rates against a full-count
      baseline, and rates only transfer when per-span fixed costs
      amortize identically on both sides. [ctx.quick] economises on
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

  val find :
    entry list -> attack:string -> arch:string -> path:string -> entry option

  val hard_classes : string list
  (** The classes whose gate result is a hard PASS/FAIL
      (["prime-probe"; "evict-time"] — the two whose trial cost is
      dominated by batched runs); the rest report without failing. *)

  val gate : ?threshold:float -> baseline:string -> entry list ->
    (string * float option * bool) list
  (** Per attack class: [(class, min batched-vs-scalar speedup vs the
      baseline file, speedup >= threshold)]. Threshold defaults to
      1.3. *)

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

  val confidence : float
  (** Confidence level both arms measure at (0.95). *)

  val bench : Run.ctx -> entry list
  (** Always quick scale; each arm spanned as [adaptive:<arm>] with
      [seconds] / [trials] / [ci_width] gauges. Returns
      [[fixed; adaptive]]. *)

  val to_row : entry -> Bench_record.row

  val of_row : Bench_record.row -> entry option
  (** [None] for the section-mode rows sharing the file. *)

  val find : entry list -> arm:string -> entry option

  val gate : ?threshold:float -> entry list -> float option * bool
  (** [(savings, savings >= threshold)] (default 2.0), where [savings]
      is the within-run trials ratio fixed/adaptive. Hard on every host:
      the ratio is a function of the seeds alone. *)

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

  val sections : string list
  (** Benchmark section names, in row order. *)

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

  val find :
    ?jobs:int -> entry list -> section:string -> mode:string -> entry option
  (** Prefer the row matching [?jobs] (baselines may hold several jobs
      settings), falling back to any row of the (section, mode). *)

  val speedup : entry list -> float option
  (** Total sequential seconds / total pipelined seconds across all
      sections; [None] when either arm is missing. *)

  type verdict = Pass | Fail | Reported

  val gate : ?threshold:float -> entry list -> float option * verdict
  (** The pipelining gate: [Pass]/[Fail] against [threshold] (default
      1.3) when the run could demonstrate parallelism (host cores >= 4
      and jobs >= 4); [Reported] otherwise — on a small host there are
      no idle workers to fill, so a ratio near 1.0 is the expected
      honest answer, not a regression. *)

  val render : ?baseline:string -> entry list -> string
end
