type t = {
  name : string;
  config : Config.t;
  sigma : float;
  slab : Slab.t;
  access : pid:int -> int -> Outcome.t;
  access_run :
    pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit;
  run_kernel : string;
  peek : pid:int -> int -> bool;
  flush_line : pid:int -> int -> bool;
  flush_all : unit -> unit;
  lock_line : pid:int -> int -> bool;
  unlock_line : pid:int -> int -> bool;
  set_window : pid:int -> back:int -> fwd:int -> unit;
  counters : unit -> Counters.snapshot;
  counters_for : int -> Counters.snapshot;
  reset_counters : unit -> unit;
  reset : rng:Cachesec_stats.Rng.t -> unit;
  dump : unit -> (int * Line.t) list;
}

let no_lock ~pid:_ _ = false
let no_window ~pid:_ ~back:_ ~fwd:_ = ()
