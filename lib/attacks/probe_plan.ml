open Cachesec_cache

type t = {
  engine : Engine.t;
  pid : int;
  sets : int;
  ways : int;
  lines : int array;  (** set-major: [lines.(set * ways + k)] *)
  (* Per-set probe scratch, owned by the embedded Count counter: its
     [misses] array IS the plan's result buffer ([bin] = the set being
     probed). The counter and the [Count] value wrapping it are built
     once here so the trial loops allocate nothing at sigma 0; at
     sigma > 0 each probed access's gaussian draw boxes floats (4
     minor words per probed access). *)
  counter : Kernel.counter;
  count_mode : Kernel.mode;
}

let make ?(base = Attacker.default_base) engine ~pid =
  let cfg = engine.Engine.config in
  let sets = Config.sets cfg and ways = cfg.Config.ways in
  let lines =
    Array.init (sets * ways) (fun i ->
        Attacker.nth_conflict_line cfg ~base ~set:(i / ways) (i mod ways))
  in
  let counter = Kernel.make_counter ~bins:sets in
  { engine; pid; sets; ways; lines; counter; count_mode = Kernel.Count counter }

(* Prime: one batched Fill run — outcomes discarded, engine state and
   RNG stream identical to the scalar access loop. *)
let prime_all t =
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.lines ~pos:0
    ~len:(t.sets * t.ways) Kernel.Fill

(* Probe: one batched Count run per set, folding into the set's scratch
   slot. The [Count] accumulation reproduces the scalar branch
   exactly: at sigma = 0 no randomness is consumed and a classified
   miss is a true miss; at sigma > 0 one gaussian per access in access
   order — the same stream the scalar [Timing.observe_outcome] loop
   consumed. *)
let probe_set t rng set =
  let c = t.counter in
  c.Kernel.misses.(set) <- 0;
  c.Kernel.bin <- set;
  c.Kernel.sigma <- t.engine.Engine.sigma;
  c.Kernel.noise <- rng;
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.lines ~pos:(set * t.ways)
    ~len:t.ways t.count_mode

let probe_all t rng =
  for set = 0 to t.sets - 1 do
    probe_set t rng set
  done

let classified_misses t set = t.counter.Kernel.misses.(set)
