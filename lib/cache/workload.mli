(** Synthetic memory-access workloads.

    The paper argues qualitatively that partitioning caches trade
    performance for security and randomization caches are cheaper; this
    module provides workload generators so the simulator can quantify
    those hit-rate costs (the bench harness's performance section). *)

type pattern =
  | Sequential of { start : int; length : int }
      (** one pass over [length] consecutive lines *)
  | Loop of { start : int; length : int }
      (** cyclic sweeps over a working set — capacity-sensitive *)
  | Strided of { start : int; stride : int; count : int }
      (** cyclic strided sweeps — conflict-sensitive *)
  | Uniform of { base : int; range : int }
      (** uniform random lines in [base, base+range) *)
  | Zipf of { base : int; range : int; exponent : float }
      (** Zipf-distributed popularity (rank r with weight 1/r^exponent) *)

val generate :
  pattern -> Cachesec_stats.Rng.t -> accesses:int -> int array
(** The line-address trace. [accesses] must be positive; patterns with
    zero-size ranges raise [Invalid_argument]. *)

val replay : Engine.t -> pid:int -> int array -> unit
(** Run a trace through a cache. *)

val hit_rate :
  Engine.t -> pid:int -> pattern -> rng:Cachesec_stats.Rng.t -> accesses:int -> float
(** Reset counters, replay a fresh trace, return the pid's hit rate. *)
