open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks
open Cachesec_runtime

type result = {
  l2_name : string;
  recovered : bool;
  best_candidate : int;
  true_byte : int;
}

(* Latency threshold separating "L2 hit" (0.4) from "memory" (1.0). *)
let l2_hit_threshold = 0.7

let run ?(seed = 37) ?(trials = 2000) ~l2_spec () =
  let rng = Rng.create ~seed in
  let layout = Aes_layout.create Config.standard in
  let scenario =
    { Factory.victim_pid = 0; victim_lines = Aes_layout.line_ranges layout }
  in
  let l2 = Factory.build l2_spec scenario ~rng:(Rng.split rng) in
  let h = Hierarchy.create ~l2 ~rng:(Rng.split rng) () in
  let hierarchy_engine = Hierarchy.engine h in
  let key = Aes.key_of_hex Setup.default_key_hex in
  let victim = Victim.create ~engine:hierarchy_engine ~pid:0 ~key ~layout in
  let attacker_pid = 1 in
  let table = 0 in
  let lines = Array.of_list (Aes_layout.table_lines layout ~table) in
  let epl = Aes_layout.entries_per_line layout in
  let cand_hits = Array.make 256 0. in
  let experiment_rng = Rng.split rng in
  for _ = 1 to trials do
    List.iter
      (fun line -> ignore (Hierarchy.flush_line h ~pid:attacker_pid line))
      (Aes_layout.all_lines layout);
    let p = Victim.random_plaintext experiment_rng in
    ignore (Victim.encrypt_quiet victim p);
    let hit = Array.make (Array.length lines) false in
    Array.iteri
      (fun idx line ->
        let _, latency = Hierarchy.access_timed h ~pid:attacker_pid line in
        let observed =
          if hierarchy_engine.Engine.sigma = 0. then latency
          else
            latency +. Rng.gaussian experiment_rng ~mu:0. ~sigma:hierarchy_engine.Engine.sigma
        in
        hit.(idx) <- observed < l2_hit_threshold)
      lines;
    let pb = Char.code (Bytes.get p 0) in
    for k = 0 to 255 do
      if hit.((pb lxor k) / epl) then cand_hits.(k) <- cand_hits.(k) +. 1.
    done
  done;
  let true_byte = Char.code (Bytes.get (Aes.key_bytes key) 0) in
  let best_candidate = Recovery.argmax cand_hits in
  {
    l2_name = Spec.display_name l2_spec;
    recovered =
      Recovery.nibble_recovered ~scores:cand_hits ~true_byte ~group_size:epl;
    best_candidate;
    true_byte;
  }

let report (ctx : Run.ctx) =
  let seed = ctx.Run.seed in
  let trials = Figures.trials_for ctx 2000 in
  let render (r : result) =
    Printf.sprintf
      "  shared L2 = %-12s %s (winner 0x%02x, true 0x%02x)\n" r.l2_name
      (if r.recovered then "key nibble LEAKS across cores"
       else "protected")
      r.best_candidate r.true_byte
  in
  "LLC flush-and-reload across cores (private L1s, shared L2):\n"
  ^ render (run ~seed ~trials ~l2_spec:Spec.paper_sa ())
  ^ render (run ~seed ~trials ~l2_spec:Spec.paper_newcache ())
