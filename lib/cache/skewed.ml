open Cachesec_stats

type t = {
  b : Backing.t;
  (* packed (pid, bank) -> secret slot permutation for that domain and
     bank. The key is [pid * banks + bank] (an int, so the per-probe
     lookup allocates neither a tuple nor an option). *)
  keys : (int, int array) Hashtbl.t;
}

let create ?(config = Config.standard) ~rng () =
  { b = Backing.create config ~rng; keys = Hashtbl.create 16 }

let banks t = t.b.Backing.cfg.Config.ways
let slots_per_bank t = Config.sets t.b.Backing.cfg

let key_of t ~pid ~bank =
  let k = (pid * banks t) + bank in
  match Hashtbl.find t.keys k with
  | p -> p
  | exception Not_found ->
    let p = Rng.permutation t.b.rng (slots_per_bank t) in
    Hashtbl.replace t.keys k p;
    p

let slot_of t ~pid ~bank addr =
  (* Mix the tag bits into the index before the secret permutation so
     that lines sharing a conventional set index still scatter. *)
  let s = slots_per_bank t in
  let mixed = (addr + ((addr / s) * 7)) mod s in
  (key_of t ~pid ~bank).(mixed)

(* Physical index of (bank, slot): bank-major layout. *)
let cell t ~bank ~slot = (bank * slots_per_bank t) + slot

(* Top-level probe loop (state passed explicitly) so the non-flambda
   compiler emits no per-call closure. Tags are non-negative when
   valid, so [tags.(i) = addr] subsumes the valid check. *)
let rec probe_banks t pid addr bank n =
  if bank >= n then -1
  else begin
    let i = cell t ~bank ~slot:(slot_of t ~pid ~bank addr) in
    let s = t.b.Backing.slab in
    if s.Slab.tags.(i) = addr && s.Slab.owners.(i) = pid then i
    else probe_banks t pid addr (bank + 1) n
  end

(* Physical index of the bank cell holding [addr] for [pid], or -1.
   Allocation-free once the per-(pid, bank) permutations exist. *)
let find t ~pid addr = probe_banks t pid addr 0 (banks t)

let access t ~pid addr =
  let b = t.b in
  let seq = Backing.tick b in
  let i = find t ~pid addr in
  let outcome =
    if i >= 0 then begin
      Slab.touch b.Backing.slab i ~seq;
      Outcome.hit
    end
    else begin
      let s = b.Backing.slab in
      let bank = Rng.int b.rng (banks t) in
      let i = cell t ~bank ~slot:(slot_of t ~pid ~bank addr) in
      let evicted = Slab.victim s i in
      Slab.fill s i ~tag:addr ~owner:pid ~seq;
      Outcome.fill ~fetched:addr ~evicted
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

(* A fresh cache draws each (pid, bank) permutation from its RNG on
   first use, so the reset one forgets them and draws them again from
   [rng]. *)
let reset t ~rng =
  Backing.reset t.b ~rng;
  Hashtbl.clear t.keys

let engine t =
  {
    (Engine.of_backing t.b
       ~name:(Printf.sprintf "skewed-%d-bank" (banks t))
       ~run_kernel:Kernel.generic
       ~access:(fun ~pid addr -> access t ~pid addr)
       ~access_run:(Kernel.run_of_scalar (fun ~pid addr -> access t ~pid addr))
       ~find:(find t))
    with
    Engine.reset = reset t;
  }
