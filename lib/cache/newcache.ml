open Cachesec_stats

(* The CAM is a chained hash index over the physical lines. [head] maps
   a bucket, hashed from (context, logical index), to the first physical
   line of its chain; [next] links each chained line to the next one.
   A chained line's key is not stored again: it is read back from the
   slab ([owners] holds the context, [aux] the logical index), so a
   probe compares two ints per chained line and allocates nothing.

   Invariants:
   - a physical line is chained iff it is valid, in the bucket of its
     own (owners, aux) key; every mutation of a line's validity or key
     unlinks it first and relinks it after;
   - keys are unique among valid lines: a tag miss invalidates the
     index-conflicting line before the fill installs the key again;
   - [Array.length head] is a power of two, at least twice the physical
     line count, so the load factor stays at most one half. The index
     grows with the physical lines only, never with the logical lines
     or the number of contexts.

   Invalid lines carry owners = -1 and aux = 0, a key pid -1 can ask
   for; the first invariant is what keeps them from ever matching. *)
type t = {
  b : Backing.t;
  head : int array;  (** bucket -> first chained physical line, or -1 *)
  next : int array;  (** physical line -> next line of its chain, or -1 *)
  shift : int;  (** [Sys.int_size - log2 (Array.length head)] *)
  logical_lines : int;  (** [lines lsl extra_bits], a power of two *)
}

let max_extra_bits ~lines =
  if lines <= 0 then invalid_arg "Newcache.max_extra_bits: lines must be positive";
  let rec go e =
    if e + 1 < Sys.int_size && lines <= max_int asr (e + 1) then go (e + 1)
    else e
  in
  go 0

let create ?(config = Config.fully_associative) ?(extra_bits = 4) ~rng () =
  let lines = config.Config.lines in
  if extra_bits < 0 then invalid_arg "Newcache.create: negative extra_bits";
  if extra_bits > max_extra_bits ~lines then
    invalid_arg "Newcache.create: lines lsl extra_bits overflows";
  let rec bits k = if 1 lsl k >= 2 * lines then k else bits (k + 1) in
  let hbits = bits 0 in
  {
    b = Backing.create config ~rng;
    head = Array.make (1 lsl hbits) (-1);
    next = Array.make lines (-1);
    shift = Sys.int_size - hbits;
    logical_lines = lines lsl extra_bits;
  }

let logical_lines t = t.logical_lines

(* Multiplicative hashing: the top bits of the key times an odd
   constant, so the strided addresses of eviction sets spread over the
   buckets as well as contiguous ones do. Overflow wraps; any int pid
   is fine, since a collision only lengthens a chain. *)
let[@inline] bucket t ~pid li =
  ((li + (pid * 0x2545F4914F6CDD1D)) * 0x2545F4914F6CDD1D) lsr t.shift

(* The chained line keyed (pid, li) from line [i] on, or -1. Indices
   are -1 or physical lines by construction of [head]/[next]. *)
let rec chain_find (owners : int array) (aux : int array) (next : int array) pid
    li i =
  if i < 0 then -1
  else if Array.unsafe_get owners i = pid && Array.unsafe_get aux i = li then i
  else chain_find owners aux next pid li (Array.unsafe_get next i)

(* [h] is [bucket t ~pid li]. *)
let[@inline] cam_find t ~pid li h =
  let s = t.b.Backing.slab in
  chain_find s.Slab.owners s.Slab.aux t.next pid li (Array.unsafe_get t.head h)

(* Unlink line [i] from the chain after line [j] (the first invariant
   guarantees [i] is further down it). *)
let rec unlink_after (next : int array) i j =
  let k = next.(j) in
  if k = i then next.(j) <- next.(i) else unlink_after next i k

(* Take the valid line [i] out of the index, before its key changes or
   it is invalidated. *)
let unlink t i =
  let s = t.b.Backing.slab in
  let h = bucket t ~pid:s.Slab.owners.(i) s.Slab.aux.(i) in
  let first = t.head.(h) in
  if first = i then t.head.(h) <- t.next.(i) else unlink_after t.next i first

(* --- the transition ---------------------------------------------------- *)

(* One access. A hit needs context, logical index and tag to match. A
   tag miss first invalidates the index-conflicting line (keeping the
   CAM key unique); every miss then replaces a uniformly random physical
   line — the single RNG draw. *)
let[@inline] step t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let li = addr land (t.logical_lines - 1) in
  let h = bucket t ~pid li in
  let m = cam_find t ~pid li h in
  if m >= 0 && Array.unsafe_get s.Slab.tags m = addr then begin
    Array.unsafe_set s.Slab.last_use m seq;
    Kernel.hit
  end
  else begin
    let conflict =
      if m >= 0 then begin
        unlink t m;
        Kernel.also_evict b m
      end
      else 0
    in
    let way = Rng.int b.Backing.rng s.Slab.n in
    if s.Slab.tags.(way) >= 0 then unlink t way;
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    s.Slab.aux.(way) <- li;
    t.next.(way) <- t.head.(h);
    t.head.(h) <- way;
    code + conflict
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish t.b c mode k (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let full_match t ~pid addr =
  let li = addr land (t.logical_lines - 1) in
  let i = cam_find t ~pid li (bucket t ~pid li) in
  if i >= 0 && t.b.Backing.slab.Slab.tags.(i) = addr then i else -1

let flush_line t ~pid addr =
  let i = full_match t ~pid addr in
  if i >= 0 then unlink t i;
  Backing.flush t.b ~pid i

(* Before a slab clear: every line goes invalid, so every chain
   empties. A non-empty bucket holds a valid line, and every valid line
   is in the slab's dirty log (the {!Slab} invariant), so clearing the
   buckets of the logged valid lines empties the index; once the log has
   overflowed, one fill does. Either way it must run before the clear
   erases the keys. [next] is read only through a chain and needs no
   reset. *)
let empty_index t =
  let s = t.b.Backing.slab in
  if s.Slab.dirty_len > Array.length s.Slab.dirty then
    Array.fill t.head 0 (Array.length t.head) (-1)
  else
    for k = 0 to s.Slab.dirty_len - 1 do
      let i = s.Slab.dirty.(k) in
      if s.Slab.tags.(i) >= 0 then
        t.head.(bucket t ~pid:s.Slab.owners.(i) s.Slab.aux.(i)) <- -1
    done

let flush_all t =
  empty_index t;
  Backing.flush_all t.b

let reset t ~rng =
  empty_index t;
  Backing.reset t.b ~rng

let engine t =
  {
    (Engine.of_backing t.b
       ~name:(Printf.sprintf "newcache-%d-logical" t.logical_lines)
       ~run_kernel:"newcache"
       ~access:(fun ~pid addr -> access t ~pid addr)
       ~access_run:(fun ~pid ~trace ~pos ~len mode ->
         run t ~pid ~trace ~pos ~len mode)
       ~find:(full_match t))
    with
    Engine.flush_line = flush_line t;
    flush_all = (fun () -> flush_all t);
    reset = reset t;
  }
