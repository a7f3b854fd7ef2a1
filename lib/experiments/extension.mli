(** Extensions beyond the paper's nine designs, exercising the claim that
    PIFG "is very extensible and can model new attacks and new cache
    architectures":

    - the skewed randomized cache ({!Cachesec_cache.Skewed}) scored both
      analytically (PIFG built on the fly) and empirically (all four
      simulated attacks);
    - the multi-line eviction refinement of Table 6's closing note. *)

val skewed_pas : unit -> (string * float) list
(** Analytical PAS of the skewed cache for the four attack types,
    derived from its per-domain-keyed mapping:
    Type 1/2 eviction stages carry 1/(banks * slots) per line; Type 3 is
    demand-fetch reuse (1.0); Type 4 is cross-domain (0). *)

val skewed_report : Cachesec_runtime.Run.ctx -> string
(** Analytical PAS table plus the outcome of the four simulated attacks
    against the skewed engine; the four attacks run
    with seeds [ctx.seed] .. [ctx.seed + 3]. *)

val multi_line_report : ?lines:int -> unit -> string
(** Type 1 PAS, single vs [lines]-line requirement, across the nine
    caches (default 4 lines — the paper's note that randomization gets
    even stronger). *)
