(** Conventional set-associative cache (the paper's baseline).

    Physically indexed and tagged: any process hits on any cached line with
    a matching address, which is what makes the conventional cache leak
    through all four attack types. With [ways = lines] this is the fully
    associative cache; the paper's baseline uses random replacement "since
    this gives better resilience against cache attackers" (Section 3.7). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** Defaults: {!Config.standard}, random replacement. *)

val config : t -> Config.t
val policy : t -> Policy.t
val access : t -> pid:int -> int -> Outcome.t
val peek : t -> pid:int -> int -> bool
val flush_line : t -> pid:int -> int -> bool
val flush_all : t -> unit
val counters : t -> Counters.t

val engine : ?kernel:Kernel.selection -> t -> Engine.t
(** [?kernel] (default [Auto]) selects the access path: [Auto] binds the
    per-policy monomorphized kernel from {!Kernel_sa}; [Generic] keeps
    the policy-dispatching fallback (differential-testing oracle). Both
    are bit-identical in state, RNG draws and outcomes. *)
