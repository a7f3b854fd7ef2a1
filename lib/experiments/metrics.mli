(** Comparing PAS with the mutual-information style metrics the paper
    cites as prior work ([14], [15], [27], [35]).

    For each architecture we run a flush-and-reload campaign and estimate
    I(X; Y) where X is the victim's secret first-round line (4 bits at
    line granularity) and Y is the attacker's observation (the first
    reload hit, or "nothing"). A leaky cache approaches 4 bits; a
    protected one sits at the estimator's bias floor. The table shows the
    two metrics rank the nine architectures the same way, while PAS is
    available at design time without running anything. *)

type row = {
  arch : string;
  pas_type4 : float;
  mi_bits : float;  (** plug-in estimate of I(secret line; observation) *)
  normalized : float;  (** MI / H(secret) in [0, 1] *)
}

val table : ?seed:int -> ?trials:int -> unit -> row list
val render : row list -> string
