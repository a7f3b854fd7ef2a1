(** Build a runnable {!Engine.t} from a {!Spec.t} plus scenario bindings. *)

type scenario = {
  victim_pid : int;
  victim_lines : (int * int) list;
      (** inclusive line ranges owned by the victim's security domain
          (AES tables, victim private data). SP homes these in the victim
          partition; Nomo protects [victim_pid]; RF applies the spec's
          window to [victim_pid]. *)
}

val default_scenario : scenario
(** victim pid 0 and no owned ranges — fine for single-process use. *)

val build :
  ?config:Config.t ->
  Spec.t ->
  scenario ->
  rng:Cachesec_stats.Rng.t ->
  Engine.t
(** Instantiate. [config]'s [ways] is overridden by the spec's [ways]
    (its line count and line size are kept); Newcache ignores [ways]. *)

val sampler :
  Spec.t ->
  scenario ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  Engine.t
(** A source of engines for Monte-Carlo samples that must each start on
    a fresh cache. Every call splits [rng] and returns the engine
    [build spec scenario ~rng:(Rng.split rng)] would return. Only
    the first call builds: later calls reset that same engine
    ({!Engine.t.reset}) on the split stream, so a sample pays for the
    lines the previous one touched instead of a construction. An engine
    returned is valid until the next call, which resets it. *)
