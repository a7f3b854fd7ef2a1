(** Newcache (Wang & Lee 2008; Liu et al. 2016).

    Memory maps into an {e ephemeral logical cache}: a per-process
    direct-mapped cache of [lines * 2^extra_bits] logical lines; logical
    lines map to the physical array fully associatively. Our model keeps,
    per physical line, the triple (context, logical index, tag):

    - {e hit}: some physical line matches all three;
    - {e index miss} (no line matches context+index): the incoming line
      replaces a uniformly random physical line — the paper's p2 = 1/N;
    - {e tag miss} (context+index match but tag differs): the conflicting
      line is invalidated and the incoming line replaces a uniformly
      random physical line (the randomized arm of the SecRAND policy; we
      apply it uniformly, a simplification documented in DESIGN.md).

    The per-context mapping is also what zeroes p4 for flush-and-reload:
    a line fetched by the victim's context can never hit for the
    attacker's context, even at the same memory address. *)

type t

val create :
  ?config:Config.t -> ?extra_bits:int -> rng:Cachesec_stats.Rng.t -> unit -> t
(** [config] wants [ways = lines] conceptually, but only [lines] is used:
    the physical array is fully associative by construction. [extra_bits]
    defaults to 4 (logical cache 16x the physical size).

    The CAM is a chained hash index over the physical lines: its size is
    O([lines]), whatever the logical size and however many contexts
    access it, and its lookups and updates, the engine's [flush_all]
    included, allocate nothing.

    @raise Invalid_argument if [extra_bits] is negative or above
    [max_extra_bits ~lines]. *)

val max_extra_bits : lines:int -> int
(** The largest [extra_bits] for which the logical line count
    [lines lsl extra_bits] fits in an [int] ([lines > 0]). *)

val logical_lines : t -> int

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one Newcache
    step ([run_kernel] ["newcache"]). [flush_line] removes only the
    accessor's own context's copy (the PID feature means a pid cannot
    name another context's line). *)
