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
  counters : Counters.t;
  reset : rng:Cachesec_stats.Rng.t -> unit;
}

let dump t = Slab.dump t.slab

let of_backing (b : Backing.t) ~name ~run_kernel ~access ~access_run ~find =
  {
    name;
    config = b.Backing.cfg;
    sigma = 0.;
    slab = b.Backing.slab;
    access;
    access_run;
    run_kernel;
    peek = (fun ~pid addr -> find ~pid addr >= 0);
    flush_line = (fun ~pid addr -> Backing.flush b ~pid (find ~pid addr));
    flush_all = (fun () -> Backing.flush_all b);
    lock_line = (fun ~pid:_ _ -> false);
    unlock_line = (fun ~pid:_ _ -> false);
    set_window = (fun ~pid:_ ~back:_ ~fwd:_ -> ());
    counters = b.Backing.counters;
    reset = (fun ~rng -> Backing.reset b ~rng);
  }
