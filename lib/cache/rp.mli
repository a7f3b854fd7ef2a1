(** Random Permutation (RP) cache (Wang & Lee 2007).

    Each process owns a dynamic permutation table from logical set indices
    to physical sets. Hits require the accessor's own mapping and context
    (the PID feature), so shared lines cached under the victim's context
    never hit for the attacker (p4 = 0 for flush-and-reload).

    Miss handling distinguishes interference:
    - {e internal miss} (the policy's victim way in the mapped set is
      invalid or belongs to the accessor): normal replacement in place;
    - {e external miss} (the victim way belongs to another process): a
      uniformly random physical set S' is chosen (p1 = 1/S in the paper's
      Table 3), a random line of S' is evicted (p2 = 1/W), the accessed
      line is filled there, and the accessor's table entries for S and S'
      are swapped.

    A process may also disable its own permutation (window dressing for
    the attacker in the paper's pre-PAS Section 5D): {!set_identity}. *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t

val table : t -> pid:int -> int array
(** A copy of the pid's current permutation table (created on first use as
    the identity). *)

val set_identity : t -> pid:int -> unit
(** Reset the pid's table to the identity (models an attacker opting out
    of the permutation feature for his own process). *)

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one RP step
    ([run_kernel] ["rp-<policy>"]). *)
