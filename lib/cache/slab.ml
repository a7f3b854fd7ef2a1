(* Flat struct-of-arrays line state: one untagged int slab per field,
   indexed by physical line number. Replaces the boxed per-line
   [Line.t] records of the seed engines: a tag probe is now a bounded
   scan over one contiguous int array (eight tags = one cache line of
   host memory) instead of a pointer chase per way.

   Representation invariants:
   - [tags.(i) >= 0] iff line [i] is valid. Memory-line numbers are
     non-negative everywhere in the simulator (they are line-number
     addresses), so [invalid_tag = -1] can never collide with a real
     tag and the valid bit needs no slab of its own.
   - invalid lines keep [owners = -1], [locked = 0], [aux = 0] and
     retain their timestamps.
   - dirty log: every line that is valid, and every set whose [tree]
     word is non-zero, was reached by a {!fill} of an invalid line since
     the last {!clear}, and that fill pushed the line onto
     [dirty.(0 .. dirty_len - 1)]. Lines absent from the log are
     therefore already in the cleared state, so {!clear} resets only the
     logged lines (and their sets' tree words). Entries are never
     removed before a clear, so a line invalidated and refilled (a
     [flush_line], an RE random eviction) is logged twice. The log holds
     [n / 2] entries, since every engine pays for it and a collision
     trial's 160-access encryption (plus RE refills) fills fewer; past
     that it overflows ([dirty_len] = capacity + 1) and {!clear} falls
     back to the full pass.
   - set [s] occupies the contiguous index range
     [s * ways, (s + 1) * ways): the per-set stride is [ways] and every
     range handed to the scan loops below satisfies
     [0 <= base && base + len <= n].

   The top-level scan loops use [Array.unsafe_get]: their bounds are
   the range invariant above, established once at engine construction
   (geometry) rather than per access. They take every free variable as
   an argument, and they and the per-line mutators are [@inline]: the
   default (release) build compiles without -opaque, so each engine
   step inlines them, with no call per access. Under
   [--profile dev] (-opaque) they are ordinary calls, with the same
   results. *)

type t = {
  n : int;  (** physical line count; every slab has length [n] *)
  ways : int;  (** per-set stride: set [s] starts at [s * ways] *)
  set_shift : int;  (** [log2 ways]: line [i] is in set [i lsr set_shift] *)
  tags : int array;  (** memory-line number, or [invalid_tag] *)
  owners : int array;  (** filling pid; [-1] when invalid *)
  last_use : int array;  (** access sequence of the last touch (LRU) *)
  fill_seq : int array;  (** access sequence of the fill (FIFO) *)
  aux : int array;  (** architecture-specific (Newcache logical index) *)
  locked : int array;  (** PL protection bit, 0/1 *)
  freq : int array;  (** access count since fill (LFU/MFU); 0 when invalid *)
  tree : int array;  (** per-set tree-PLRU bits word, indexed by set *)
  dirty : int array;  (** lines filled from invalid since the last clear *)
  mutable dirty_len : int;
      (** used prefix of [dirty]; its length + 1 = overflowed *)
}

let invalid_tag = -1

let create ~lines ~ways =
  if lines <= 0 then invalid_arg "Slab.create: lines must be positive";
  if ways <= 0 || lines mod ways <> 0 then
    invalid_arg "Slab.create: ways must be positive and divide lines";
  if ways land (ways - 1) <> 0 then
    invalid_arg "Slab.create: ways must be a power of two";
  let rec log2 k = if 1 lsl k = ways then k else log2 (k + 1) in
  {
    n = lines;
    ways;
    set_shift = log2 0;
    tags = Array.make lines invalid_tag;
    owners = Array.make lines (-1);
    last_use = Array.make lines 0;
    fill_seq = Array.make lines 0;
    aux = Array.make lines 0;
    locked = Array.make lines 0;
    freq = Array.make lines 0;
    tree = Array.make (lines / ways) 0;
    dirty = Array.make (lines / 2) 0;
    dirty_len = 0;
  }

(* Resident footprint of the seven per-line field slabs, the dirty log
   and the per-set PLRU tree slab (header word + elements, unboxed
   words, 8 bytes per word on 64-bit): the [cache.slab_bytes] gauge the
   bench reports per engine. *)
let bytes t =
  ((7 * (t.n + 1)) + (Array.length t.dirty + 1) + (t.n / t.ways) + 1) * 8

let valid t i = t.tags.(i) >= 0

(* --- hot scans (bounds = the range invariant, see header) ----------- *)

(* Loops, not [let rec]: the compiler never inlines a recursive
   function, and every engine step inlines these. *)

let[@inline] scan_tag (tags : int array) tag i stop =
  let j = ref i in
  while !j < stop && Array.unsafe_get tags !j <> tag do
    incr j
  done;
  if !j < stop then !j else -1

let[@inline] scan_tag_owned (tags : int array) (owners : int array) tag owner i
    stop =
  let j = ref i in
  while
    !j < stop
    && not
         (Array.unsafe_get tags !j = tag && Array.unsafe_get owners !j = owner)
  do
    incr j
  done;
  if !j < stop then !j else -1

(* First invalid index in [i, stop), or -1: a fill never evicts while
   free space remains. *)
let[@inline] scan_invalid (tags : int array) i stop =
  let j = ref i in
  while !j < stop && Array.unsafe_get tags !j >= 0 do
    incr j
  done;
  if !j < stop then !j else -1

(* Index of the minimum of [a] over the non-empty range [i, stop);
   first occurrence wins ties (same as the seed's per-line scans).
   Carrying [bestv] saves the re-load of [a.(best)] per step. *)
let[@inline] scan_min (a : int array) i stop =
  let best = ref i and bestv = ref (Array.unsafe_get a i) in
  for j = i + 1 to stop - 1 do
    let v = Array.unsafe_get a j in
    if v < !bestv then begin
      best := j;
      bestv := v
    end
  done;
  !best

(* Index of the maximum of [a] over the non-empty range [i, stop);
   first occurrence wins ties, mirroring {!scan_min} (MRU and MFU
   victim scans). *)
let[@inline] scan_max (a : int array) i stop =
  let best = ref i and bestv = ref (Array.unsafe_get a i) in
  for j = i + 1 to stop - 1 do
    let v = Array.unsafe_get a j in
    if v > !bestv then begin
      best := j;
      bestv := v
    end
  done;
  !best

let find_tag t ~tag ~base ~len = scan_tag t.tags tag base (base + len)

let find_tag_owned t ~tag ~owner ~base ~len =
  scan_tag_owned t.tags t.owners tag owner base (base + len)

(* --- per-line mutators --------------------------------------------- *)

let[@inline] fill t i ~tag ~owner ~seq =
  if t.tags.(i) < 0 then begin
    let k = t.dirty_len and cap = Array.length t.dirty in
    if k < cap then begin
      t.dirty.(k) <- i;
      t.dirty_len <- k + 1
    end
    else t.dirty_len <- cap + 1
  end;
  t.tags.(i) <- tag;
  t.owners.(i) <- owner;
  t.locked.(i) <- 0;
  t.last_use.(i) <- seq;
  t.fill_seq.(i) <- seq;
  t.aux.(i) <- 0;
  t.freq.(i) <- 1

let[@inline] touch t i ~seq = t.last_use.(i) <- seq

let invalidate t i =
  t.tags.(i) <- invalid_tag;
  t.owners.(i) <- -1;
  t.locked.(i) <- 0;
  t.aux.(i) <- 0;
  t.freq.(i) <- 0

let victim t i = if t.tags.(i) >= 0 then Some (t.owners.(i), t.tags.(i)) else None

let locked t i = t.locked.(i) = 1
let set_locked t i v = t.locked.(i) <- (if v then 1 else 0)

(* --- cold views ----------------------------------------------------- *)

(* Materialize one line as the classic boxed record — the dump/debug
   view. Invalid lines report [tag = 0]. *)
let line t i =
  let v = valid t i in
  {
    Line.valid = v;
    tag = (if v then t.tags.(i) else 0);
    owner = t.owners.(i);
    locked = locked t i;
    last_use = t.last_use.(i);
    fill_seq = t.fill_seq.(i);
    aux = t.aux.(i);
  }

(* Valid lines with their index, as fresh snapshots (the slabs are the
   state of record). *)
let dump t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if valid t i then acc := (i, line t i) :: !acc
  done;
  !acc

(* Invalidate everything in one pass per field slab; returns how many
   valid lines were displaced. *)
let clear_full t =
  let displaced = ref 0 in
  for i = 0 to t.n - 1 do
    if t.tags.(i) >= 0 then incr displaced
  done;
  Array.fill t.tags 0 t.n invalid_tag;
  Array.fill t.owners 0 t.n (-1);
  Array.fill t.locked 0 t.n 0;
  Array.fill t.aux 0 t.n 0;
  Array.fill t.freq 0 t.n 0;
  Array.fill t.tree 0 (t.n / t.ways) 0;
  t.dirty_len <- 0;
  !displaced

(* Same state and count as [clear_full], touching only the logged lines
   (see the dirty-log invariant in the header). A line logged twice is
   counted once: its first visit invalidates it. *)
let clear t =
  if t.dirty_len > Array.length t.dirty then clear_full t
  else begin
    let displaced = ref 0 in
    for k = 0 to t.dirty_len - 1 do
      let i = t.dirty.(k) in
      if t.tags.(i) >= 0 then incr displaced;
      invalidate t i;
      t.tree.(i lsr t.set_shift) <- 0
    done;
    t.dirty_len <- 0;
    !displaced
  end
