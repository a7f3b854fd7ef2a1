(* Monomorphized per-policy access loops for the PL cache: the SA loops
   with one extra check on the miss path — a locked victim is served
   read-through instead of displaced (paper Section 2.2.1). Locking
   itself stays in [Pl] (cold path). Bit-identical to the generic
   [Pl.access]; see [Kernel_sa] for the layout rationale. *)

open Cachesec_stats

(* Miss tail shared by the three policies: read-through when the chosen
   victim is locked (locked implies valid — [Slab.fill] and
   [Slab.invalidate] both clear the bit), else fill. *)
let miss_tail (s : Slab.t) way ~pid ~addr ~seq =
  if Array.unsafe_get s.Slab.locked way = 1 then Outcome.miss_uncached
  else begin
    let evicted = Slab.victim s way in
    Slab.fill s way ~tag:addr ~owner:pid ~seq;
    Outcome.fill ~fetched:addr ~evicted
  end

let access_lru (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let last_use = s.Slab.last_use in
  let seq = Kernel_sa.tick b in
  let base = Kernel_sa.set_of b addr * s.Slab.ways in
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
      miss_tail s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_fifo (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let seq = Kernel_sa.tick b in
  let base = Kernel_sa.set_of b addr * s.Slab.ways in
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
      miss_tail s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

let access_random (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let seq = Kernel_sa.tick b in
  let base = Kernel_sa.set_of b addr * s.Slab.ways in
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
      miss_tail s way ~pid ~addr ~seq
    end
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* --- batched run kernels ---------------------------------------------- *)

(* Batched miss tail: the PL read-through check in front of the shared
   SA fill epilogue. *)
let finish_miss_pl (s : Slab.t) way ~pid ~addr ~seq g p (mode : Kernel.mode) k
    =
  if Array.unsafe_get s.Slab.locked way = 1 then
    Kernel_sa.finish_miss_uncached g p mode k
  else Kernel_sa.finish_miss_fill s way ~pid ~addr ~seq g p mode k

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
    let base = Kernel_sa.set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set last_use i seq;
      Kernel_sa.finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv
        else
          Slab.scan_min last_use (base + 1) stop base
            (Array.unsafe_get last_use base)
      in
      finish_miss_pl s way ~pid ~addr ~seq g p mode k
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
    let base = Kernel_sa.set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Kernel_sa.finish_hit g p mode k
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
      finish_miss_pl s way ~pid ~addr ~seq g p mode k
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
    let base = Kernel_sa.set_of b addr * ways in
    let stop = base + ways in
    let i = Slab.scan_tag tags addr base stop in
    if i >= 0 then begin
      Array.unsafe_set s.Slab.last_use i seq;
      Kernel_sa.finish_hit g p mode k
    end
    else begin
      let inv = Slab.scan_invalid tags base stop in
      let way =
        if inv >= 0 then inv else base + Rng.int b.Backing.rng ways
      in
      finish_miss_pl s way ~pid ~addr ~seq g p mode k
    end
  done;
  b.Backing.seq <- seq0 + len
