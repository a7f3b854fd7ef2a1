(* Monomorphized access loops for the conventional set-associative
   cache, one per replacement policy. Each is the [Sa.access] generic
   path with every layer flattened into one straight-line function:
   sequence tick and set index inlined (no [Backing] calls), the tag
   probe and victim scans running directly over the slab arrays, and the
   policy dispatch hoisted to engine-build time (the caller binds
   [access_lru]/[access_fifo]/[access_random] once).

   Bit-identity contract: state writes, RNG draw order and outcome
   construction exactly match the generic path — [test_kernels] replays
   random workloads against both. The hit path allocates nothing. *)

open Cachesec_stats

(* Shared straight-line pieces; top-level with all state as arguments so
   the non-flambda compiler emits no closures. *)

let[@inline] tick (b : Backing.t) =
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  seq

let[@inline] set_of (b : Backing.t) addr =
  if b.Backing.set_mask >= 0 then addr land b.Backing.set_mask
  else addr mod b.Backing.sets

(* Fill [way] with [addr] and build the filled outcome (identical to the
   generic miss tail). *)
let fill_outcome (s : Slab.t) way ~pid ~addr ~seq =
  let evicted = Slab.victim s way in
  Slab.fill s way ~tag:addr ~owner:pid ~seq;
  Outcome.fill ~fetched:addr ~evicted

let access_lru (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let last_use = s.Slab.last_use in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set last_use i seq;
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_min last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_fifo (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          let fill_seq = s.Slab.fill_seq in
          Slab.scan_min fill_seq (base + 1) stop base
            (Array.unsafe_get fill_seq base)
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_random (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv else base + Rng.int b.Backing.rng s.Slab.ways
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_mru (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let last_use = s.Slab.last_use in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set last_use i seq;
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_max last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* LFU/MFU: the hit path carries one extra int store (the frequency
   bump [Policy.touch] does on the generic path); the victim scan runs
   over the frequency slab with the same first-occurrence tie-break as
   every other scan. *)

let access_lfu (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let freq = s.Slab.freq in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Array.unsafe_set freq i (Array.unsafe_get freq i + 1);
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_min freq (base + 1) stop base (Array.unsafe_get freq base)
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_mfu (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let freq = s.Slab.freq in
  let seq = tick b in
  let base = set_of b addr * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Array.unsafe_set freq i (Array.unsafe_get freq i + 1);
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_max freq (base + 1) stop base (Array.unsafe_get freq base)
      in
      fill_outcome s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* Tree-PLRU: the tree word is re-pointed on every hit AND after every
   fill ([Policy.touch]/[Policy.filled] on the generic path). The
   non-power-of-two fallback mirrors [Policy.victim_in]'s LRU order so
   the two paths stay bit-identical on any geometry. *)

let access_plru (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let seq = tick b in
  let set = set_of b addr in
  let w = s.Slab.ways in
  let base = set * w in
  let stop = base + w in
  let i = Slab.scan_tag tags addr base stop in
  let outcome =
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Policy.plru_touch s i;
      Outcome.hit
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else if Policy.plru_tree_capable w then
          base + Policy.plru_walk (Array.unsafe_get s.Slab.tree set) w 1
        else
          let last_use = s.Slab.last_use in
          Slab.scan_min last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      let o = fill_outcome s way ~pid ~addr ~seq in
      Policy.plru_touch s way;
      o
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* --- batched run kernels ---------------------------------------------- *)

(* One straight-line loop per policy over a packed address run: the
   scalar kernel body with the per-access costs hoisted — the counters
   cells resolved once per run (the pid is constant across a trace), the
   sequence counter kept in a local and written back once, and the
   [Outcome.t] materialized only in [Trace] mode ([Fill]/[Count] bump
   the cells field-wise and never call [Slab.victim], so the miss path
   stops allocating). Bit-identity contract with [len] scalar accesses:
   same state writes, same RNG draw order, same counters (differential
   batched-vs-scalar fuzz in test_kernels; attack golden digests). *)

(* Hit epilogue shared by every batched kernel (and [Kernel_pl]/
   [Kernel_rp]/[Kernel_newcache]): counters plus per-mode accumulation.
   [k] indexes the Trace writeback slot. *)
let finish_hit g p (mode : Kernel.mode) k =
  Counters.cell_hit g;
  Counters.cell_hit p;
  match mode with
  | Kernel.Fill -> ()
  | Kernel.Count c -> Kernel.count_hit c
  | Kernel.Trace out -> Array.unsafe_set out k Outcome.hit

(* Fill-miss epilogue (the [fill_outcome] tail): Trace builds the exact
   scalar outcome; Fill/Count test way validity directly instead of
   allocating [Slab.victim]'s [(pid, tag) option]. *)
let finish_miss_fill (s : Slab.t) way ~pid ~addr ~seq g p (mode : Kernel.mode)
    k =
  match mode with
  | Kernel.Trace out ->
    let o = fill_outcome s way ~pid ~addr ~seq in
    Counters.cell_record g o;
    Counters.cell_record p o;
    Array.unsafe_set out k o
  | Kernel.Fill | Kernel.Count _ ->
    let evictions = if Array.unsafe_get s.Slab.tags way >= 0 then 1 else 0 in
    Slab.fill s way ~tag:addr ~owner:pid ~seq;
    Counters.cell_miss_cached g ~evictions;
    Counters.cell_miss_cached p ~evictions;
    (match mode with Kernel.Count c -> Kernel.count_miss c | _ -> ())

(* Read-through miss epilogue: nothing filled, nothing displaced. *)
let finish_miss_uncached g p (mode : Kernel.mode) k =
  Counters.cell_miss_uncached g;
  Counters.cell_miss_uncached p;
  match mode with
  | Kernel.Fill -> ()
  | Kernel.Count c -> Kernel.count_miss c
  | Kernel.Trace out -> Array.unsafe_set out k Outcome.miss_uncached

let run_lru (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let last_use = s.Slab.last_use in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set last_use i seq;
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_min last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_fifo (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          let fill_seq = s.Slab.fill_seq in
          Slab.scan_min fill_seq (base + 1) stop base
            (Array.unsafe_get fill_seq base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_random (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv else base + Rng.int b.Backing.rng ways
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_mru (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let last_use = s.Slab.last_use in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set last_use i seq;
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_max last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_lfu (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let freq = s.Slab.freq in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Array.unsafe_set freq i (Array.unsafe_get freq i + 1);
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_min freq (base + 1) stop base (Array.unsafe_get freq base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_mfu (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let freq = s.Slab.freq in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let base = set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Array.unsafe_set freq i (Array.unsafe_get freq i + 1);
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_max freq (base + 1) stop base (Array.unsafe_get freq base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len

let run_plru (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let set = set_of b addr in
    let base = set * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Policy.plru_touch s i;
      finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else if Policy.plru_tree_capable ways then
          base + Policy.plru_walk (Array.unsafe_get s.Slab.tree set) ways 1
        else
          let last_use = s.Slab.last_use in
          Slab.scan_min last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      finish_miss_fill s way ~pid ~addr ~seq g p mode k;
      Policy.plru_touch s way
    end
  done;
  b.Backing.seq <- seq0 + len
