open Cachesec_cache
open Cachesec_crypto
open Cachesec_stats

type t = {
  engine : Engine.t;
  pid : int;
  key : Aes.key;
  layout : Aes_layout.t;
  (* Reusable per-victim scratch for the allocation-free encryption
     path. One victim never runs two encryptions concurrently (trials
     are sequential within a campaign shard), so a single set of buffers
     suffices. *)
  sc : Aes.scratch;
  trace : int array;
  lines : int array;  (** [trace] translated to cache lines, replay input *)
  warm : int array;  (** the contiguous table lines, for batched warming *)
  counter : Kernel.counter;
  count_mode : Kernel.mode;
  ct : Bytes.t;
}

let create ~engine ~pid ~key ~layout =
  let counter = Kernel.make_counter ~bins:1 in
  {
    engine;
    pid;
    key;
    layout;
    sc = Aes.create_scratch ();
    trace = Array.make Aes.trace_length 0;
    lines = Array.make Aes.trace_length 0;
    warm =
      (let base = Aes_layout.base_line layout in
       Array.init (Aes_layout.line_count layout) (fun i -> base + i));
    counter;
    count_mode = Kernel.Count counter;
    ct = Bytes.create 16;
  }

let pid t = t.pid
let key t = t.key
let layout t = t.layout
let engine t = t.engine

(* The fast path, fused: cipher writes the packed trace into [t.trace],
   the trace is translated to cache lines in one tight loop, and a
   single batched Count run replays the whole encryption in program
   order — same engine state and RNG stream as the historical per-access
   loop, without building an [Outcome.t] per lookup. The counter's sigma
   stays 0 (the victim never classifies its own accesses), so the run
   consumes no observation randomness. *)
let encrypt_misses t plaintext =
  Aes.encrypt_traced_into t.sc t.key ~src:plaintext ~dst:t.ct ~trace:t.trace;
  let tr = t.trace in
  let lines = t.lines in
  for i = 0 to Aes.trace_length - 1 do
    Array.unsafe_set lines i
      (Aes_layout.line_of_packed t.layout (Array.unsafe_get tr i))
  done;
  let misses = t.counter.Kernel.misses in
  misses.(0) <- 0;
  t.engine.Engine.access_run ~pid:t.pid ~trace:lines ~pos:0
    ~len:Aes.trace_length t.count_mode;
  misses.(0)

let encrypt_quiet_fast t plaintext = ignore (encrypt_misses t plaintext)

let encrypt_timed t plaintext =
  let m = encrypt_misses t plaintext in
  ( Bytes.copy t.ct,
    Timing.time_of_counts ~hits:(Aes.trace_length - m) ~misses:m )

let encrypt_quiet t plaintext =
  encrypt_quiet_fast t plaintext;
  Bytes.copy t.ct

(* The table lines are contiguous ([Aes_layout.line_ranges] is a single
   range), precompiled into [t.warm] at creation: warming is one batched
   Fill run in the same ascending order as the historical
   [Aes_layout.all_lines] loop. *)
let warm_tables t =
  t.engine.Engine.access_run ~pid:t.pid ~trace:t.warm ~pos:0
    ~len:(Array.length t.warm) Kernel.Fill

let lock_tables t =
  let base = Aes_layout.base_line t.layout in
  let locked = ref 0 in
  for line = base to base + Aes_layout.line_count t.layout - 1 do
    if t.engine.Engine.lock_line ~pid:t.pid line then incr locked
  done;
  !locked

let random_plaintext_into rng b =
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 256))
  done

let random_plaintext rng =
  let b = Bytes.create 16 in
  random_plaintext_into rng b;
  b
