open Cachesec_cache

type t = {
  engine : Engine.t;
  pid : int;
  sets : int;
  ways : int;
  lines : int array;  (** set-major: [lines.(set * ways + k)] *)
  (* Per-set probe scratch, owned by the embedded Count counter: its
     arrays ARE the plan's result buffers ([bin] = the set being
     probed). The counter and the [Count] value wrapping it are built
     once here so the trial loops allocate nothing. *)
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

let sets t = t.sets
let ways t = t.ways
let line t ~set k = t.lines.((set * t.ways) + k)

(* Prime: one batched Fill run — outcomes discarded, engine state and
   RNG stream identical to the scalar access loop. *)
let prime_set t set =
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.lines ~pos:(set * t.ways)
    ~len:t.ways Kernel.Fill

let prime_all t =
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.lines ~pos:0
    ~len:(t.sets * t.ways) Kernel.Fill

(* Probe: one batched Count run per set, folding into the set's scratch
   slot. The [Count] accumulation reproduces the scalar branch
   exactly: at sigma = 0 no randomness is consumed, classified = true
   misses and the time sum is the exact miss total; at sigma > 0 one
   gaussian per access in access order — the same stream the scalar
   [Timing.observe_outcome] loop consumed. *)
let probe_set t rng set =
  let c = t.counter in
  c.Kernel.true_misses.(set) <- 0;
  c.Kernel.classified.(set) <- 0;
  c.Kernel.times.(set) <- 0.;
  c.Kernel.bin <- set;
  c.Kernel.sigma <- t.engine.Engine.sigma;
  c.Kernel.noise <- rng;
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.lines ~pos:(set * t.ways)
    ~len:t.ways t.count_mode

let probe_all t rng =
  for set = 0 to t.sets - 1 do
    probe_set t rng set
  done

let true_misses t set = t.counter.Kernel.true_misses.(set)
let classified_misses t set = t.counter.Kernel.classified.(set)
let time t set = t.counter.Kernel.times.(set)
