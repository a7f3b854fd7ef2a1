(** Key-recovery scoring shared by the attack implementations.

    An attack produces a score per candidate key-byte value (higher =
    more likely). Because the channel leaks at cache-line granularity, 16
    consecutive table entries are indistinguishable: success is judged on
    the {e line nibble} (index / entries-per-line) rather than the full
    byte. *)

val argmax : float array -> int
(** Lowest index among maxima. Raises [Invalid_argument] on empty. *)

val normalize : float array -> float array
(** Shift/scale to [0, 1]; a constant array maps to all zeros. *)

val group_scores : float array -> group_size:int -> float array
(** Average scores within consecutive groups (byte candidates to line-
    granularity candidates). Length must be divisible by [group_size]. *)

val nibble_recovered : scores:float array -> true_byte:int -> group_size:int -> bool
(** Whether the argmax over grouped scores falls in the true byte's
    group. A perfectly flat profile counts as not recovered (it carries
    no information; argmax would spuriously select group 0). *)

val separation : float array -> winner:int -> float
(** (score[winner] - mean(others)) / std(others): how far the winner
    stands out; [nan] when fewer than 3 candidates or zero spread. *)
