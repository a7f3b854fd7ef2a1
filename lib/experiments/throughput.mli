(** Simulator-throughput benchmark: accesses/second through
    [Engine.access] per architecture x replacement policy, with a
    machine-readable JSON export ([BENCH_cache.json]) whose format is
    frozen so runs from different PRs are directly comparable. *)

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
      error bar; 0 for single-repetition (or v1-file) rows *)
  kernel : string;  (** [Engine.t.kernel]: the monomorphized kernel name
      or ["generic"]; [""] for rows read from a v1 file *)
  slab_bytes : int;  (** [Slab.bytes] of [Engine.t.slab]; 0 for v1 rows *)
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
  ?kernel:Cachesec_cache.Kernel.selection ->
  Cachesec_cache.Spec.t ->
  entry
(** Time [accesses] engine accesses over a frozen mixed working set
    (hot 600-line region + 4096-line spread), after a warm-up pass.
    [repeats] (default 3) timed repetitions over the same addresses;
    the fastest is reported (minimum time is the standard estimator of
    unloaded cost) with the stddev of the per-repetition rates as the
    error bar. [?kernel] forwards to {!Cachesec_cache.Factory.build}
    ([Generic] measures the dispatching fallback). *)

val cases : unit -> Cachesec_cache.Spec.t list
(** The 29 benchmark rows: 8 policied architectures x {lru, random,
    fifo}, with the conventional SA cache swept across the full
    {!Cachesec_cache.Policy.all} registry instead, plus Newcache
    (SecRAND only). Rows missing from a committed baseline render as
    ["-"] in the vs-base column and never gate. *)

val bench : Run.ctx -> entry list
(** Measure every case (40k accesses each when [ctx.quick], 400k
    otherwise; 2 repetitions instead of 3 under [ctx.quick]). Each case
    is bracketed in a [throughput:<arch>] span with [accesses_per_sec] /
    [accesses] gauges plus [cache.kernel] (1.0 = monomorphized kernel,
    0.0 = generic fallback — gauges are floats; the name string is in
    the JSON row) and [cache.slab_bytes], reported only after the
    stopwatch has stopped — the timed loop is never instrumented. *)

val to_json : ?span_id:int -> entry list -> string
(** Schema [bench_cache/v2]: v1's keys plus [warmup], [repeats],
    [stddev], [kernel], [slab_bytes]. {!read} accepts both versions. *)

val write : ?span_id:int -> path:string -> entry list -> unit
(** [?span_id] (when non-zero) records the telemetry span id of the
    benchmark section as a ["telemetry_span"] header line, so the file
    cross-references the [TELEMETRY_*.json] of the same run. {!read}
    skips the line, keeping old and new files mutually parseable. *)

val read : path:string -> entry list
(** Parse a file produced by {!write} — either schema version; v1 rows
    get [warmup = 0], [repeats = 1], [stddev = 0.], [kernel = ""],
    [slab_bytes = 0]. [[]] if absent or unparseable. *)

val find : entry list -> arch:string -> policy:string -> entry option

val render : ?baseline:string -> entry list -> string
(** Human-readable table; when [baseline] names a readable
    {!write}-format file, adds a per-row speedup column against it. *)

(** End-to-end attack throughput: whole attack trials per second
    (prime → victim encryption → probe → scoring) through the real
    harness via each attack's [run_span] — the unit Driver shards fan
    out — per attack class × representative architecture × replay path.
    Every case is measured twice in one run: [batched] (auto-selected
    [access_run] kernels, the production path) and [scalar]
    ([Kernel.Scalar]: the monomorphized per-access kernel looped by
    [run_of_scalar], the exact pre-batching cost model), so the
    batched/scalar ratio is a same-host controlled experiment. Exported
    as [BENCH_attacks.json] (schema [bench_attacks/v2]; [v1] files,
    which predate batching, still parse with their rows labelled
    [scalar]). The gate compares current batched rows against the
    committed baseline's scalar rows. *)
module Attacks : sig
  type entry = {
    attack : string;  (** "prime-probe" | "evict-time" | "flush-reload" | "collision" *)
    arch : string;
    path : string;  (** "batched" | "scalar" — replay path measured *)
    trials : int;  (** timed trials (after a warm-up span) *)
    seconds : float;
    per_sec : float;
  }

  val archs : Cachesec_cache.Spec.t list
  (** sa, newcache, rp — the three harness regimes (many small sets /
      one fully-associative "set" / randomized indexing). *)

  val classes : string list
  (** The four attack-class names, in benchmark row order. *)

  val measure :
    ?seed:int -> ?trials:int -> ?repeats:int ->
    ?kernel:Cachesec_cache.Kernel.selection ->
    string -> Cachesec_cache.Spec.t -> entry
  (** Time [trials] attack trials (one warm-up span of [trials/10]
      first), repeated [repeats] (default 3) times, keeping the fastest
      repetition — these rates feed a hard gate, and the minimum over
      repetitions is the standard estimator of unloaded cost (external
      load only ever adds time). [kernel] (default [Auto]) selects the
      replay path and labels the row ([Auto] → ["batched"], [Scalar] →
      ["scalar"]). Raises [Invalid_argument] on an unknown attack
      class. *)

  val bench : Run.ctx -> entry list
  (** Measure every class × arch × \{batched, scalar\} case at the FULL
      trial counts — the gate compares rates against a full-count
      baseline, and rates only transfer when per-span fixed costs
      amortize identically on both sides. [ctx.quick] economises on
      repetitions (2 instead of 3) rather than trials: variance, not
      bias. Each case is spanned as [attacks:<class>:<arch>:<path>]
      with [trials_per_sec] / [trials] gauges reported after its
      stopwatch has stopped. *)

  val to_json : ?span_id:int -> entry list -> string
  val write : ?span_id:int -> path:string -> entry list -> unit

  val read : path:string -> entry list
  (** Parses both [bench_attacks/v2] rows and pre-batching [v1] rows —
      the latter carry no [path] field and are labelled ["scalar"],
      which is what they measured. *)

  val find :
    entry list -> attack:string -> arch:string -> path:string -> entry option

  val min_speedup : entry list -> baseline:entry list -> attack:string -> float option
  (** Worst-case speedup of [attack]'s batched rows over the baseline's
      scalar rows, across the measured architectures; [None] without
      overlapping rows on both sides. *)

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
    [bench_e2e/v2]). *)
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

  val entry_to_json : entry -> string
  val read : path:string -> entry list
  (** Scan a [BENCH_e2e.json] for adaptive rows, skipping the
      section-mode rows; [[]] when absent. *)

  val find : entry list -> arm:string -> entry option

  val savings : entry list -> float option
  (** Within-run trials ratio fixed/adaptive — the gate observable. *)

  val wall_reduction : entry list -> float option
  (** Within-run wall-clock ratio fixed/adaptive; reported, not gated. *)

  val gate : ?threshold:float -> entry list -> float option * bool
  (** [(savings, savings >= threshold)] (default 2.0). Hard on every
      host: the ratio is a function of the seeds alone. *)

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
    (schema [bench_e2e/v1], frozen line format); the committed
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

  val to_json :
    ?span_id:int -> ?adaptive:Adaptive.entry list -> entry list -> string
  (** Schema [bench_e2e/v2]: the pipelining rows plus (optionally) the
      adaptive-arm rows in the same entries array. Every reader scans
      line-wise and skips rows it does not parse, so v1 and v2 files
      are mutually readable. *)

  val write :
    ?span_id:int -> ?adaptive:Adaptive.entry list -> path:string ->
    entry list -> unit

  val read : path:string -> entry list
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
