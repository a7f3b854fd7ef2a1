open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  interval : int;
  mutable since_eviction : int;
  mutable random_evictions : int;
}

let create ?(config = Config.direct_mapped) ?(policy = Policy.Random)
    ?(interval = 10) ~rng () =
  if interval <= 0 then invalid_arg "Re.create: interval must be positive";
  {
    b = Backing.create config ~rng;
    policy;
    interval;
    since_eviction = 0;
    random_evictions = 0;
  }

let random_evictions t = t.random_evictions

(* Fires after every [interval]-th access: returns a uniformly random
   slot for the caller to evict, else -1. *)
let eviction_slot t =
  t.since_eviction <- t.since_eviction + 1;
  if t.since_eviction >= t.interval then begin
    t.since_eviction <- 0;
    t.random_evictions <- t.random_evictions + 1;
    Rng.int t.b.Backing.rng t.b.Backing.slab.Slab.n
  end
  else -1

(* --- the transition ---------------------------------------------------- *)

(* One access: the SA transition, then the periodic random eviction of
   every [interval]-th access, reported as the access's second
   displacement when the slot held a line. *)
let[@inline] step t ~pid addr =
  let code = Sa.step t.policy t.b ~pid addr in
  let slot = eviction_slot t in
  if slot < 0 then code else code + Kernel.also_evict t.b slot

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish t.b c mode k (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let reset t ~rng =
  Backing.reset t.b ~rng;
  t.since_eviction <- 0;
  t.random_evictions <- 0

let engine t =
  {
    (Engine.of_backing t.b
       ~name:
         (Printf.sprintf "re-%d-way-T%d" t.b.Backing.cfg.Config.ways t.interval)
       ~run_kernel:"re"
       ~access:(fun ~pid addr -> access t ~pid addr)
       ~access_run:(fun ~pid ~trace ~pos ~len mode ->
         run t ~pid ~trace ~pos ~len mode)
       ~find:(fun ~pid:_ addr -> Backing.find t.b addr))
    with
    Engine.reset = reset t;
  }
