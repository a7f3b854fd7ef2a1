(** The security/performance trade-off the paper discusses qualitatively
    (Section 2.2), quantified: victim hit rates per architecture under
    synthetic workloads. *)

val hit_rate_table : ?seed:int -> ?accesses:int -> unit -> string
(** Victim (pid 0) hit rate for the nine paper caches, one column per
    workload of the standard suite: a fitting loop, a capacity-exceeding
    loop, a conflict-heavy stride, a Zipf mix and uniform random. *)

val measure :
  ?seed:int ->
  ?accesses:int ->
  Cachesec_cache.Spec.t ->
  Cachesec_cache.Workload.pattern ->
  float
(** One cell of the table (exposed for tests). *)

val model_table : ?seed:int -> ?accesses:int -> unit -> string
(** {!Cachesec_analysis.Perf_model} (Che / Fagin-King IRM approximations)
    against the simulator on fully-associative geometries over a sweep of
    Zipf exponents. *)
