open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_report

type protocol = Set_conflict | Occupancy

let protocol_name = function
  | Set_conflict -> "set-conflict"
  | Occupancy -> "occupancy"

type row = {
  arch : string;
  protocol : protocol;
  error_rate : float;
  capacity : float;
}

let receiver_pid = 1
let sender_pid = 2

let touch engine ~pid (lines : int array) =
  for i = 0 to Array.length lines - 1 do
    ignore (engine.Engine.access ~pid lines.(i))
  done

let probe engine rng ~pid (lines : int array) =
  let sigma = engine.Engine.sigma in
  let misses = ref 0 in
  for i = 0 to Array.length lines - 1 do
    let o = engine.Engine.access ~pid lines.(i) in
    (* Same special case as Probe_plan: at sigma = 0 the observation
       draws nothing and classifies back to the true event. *)
    if sigma = 0. then begin
      if Outcome.is_miss o then incr misses
    end
    else
      let t = Timing.observe_outcome rng ~sigma o in
      match Timing.classify t with
      | Outcome.Miss -> incr misses
      | Outcome.Hit -> ()
  done;
  !misses

(* Line sets per protocol, precompiled into arrays. The sender's lines
   rotate across symbols so his transmissions are always misses;
   [fill_sender buf i] writes symbol [i]'s sender lines into the
   caller's reusable [buf] (length [sender_len]) without allocating. *)
let plan protocol (cfg : Config.t) =
  match protocol with
  | Set_conflict ->
    let count = Stdlib.min cfg.ways 8 in
    let set = 11 mod Config.sets cfg in
    let receiver =
      Array.init count (fun k -> Attacker.nth_conflict_line cfg ~set k)
    in
    let fill_sender buf i =
      let base =
        Attacker.default_base + (1 lsl 24)
        + (i mod 4096 * count * Config.sets cfg)
      in
      for k = 0 to count - 1 do
        buf.(k) <- Attacker.nth_conflict_line cfg ~base ~set k
      done
    in
    (receiver, count, fill_sender)
  | Occupancy ->
    let size = (3 * cfg.lines) / 4 in
    let receiver = Array.init size (fun k -> Attacker.default_base + k) in
    let len = cfg.lines / 2 in
    let fill_sender buf i =
      let base = Attacker.default_base + (1 lsl 24) + (i mod 64 * cfg.lines) in
      for k = 0 to len - 1 do
        buf.(k) <- base + k
      done
    in
    (receiver, len, fill_sender)

let run_row ?(seed = 53) ?(bits = 2000) protocol spec =
  if bits <= 0 then invalid_arg "Covert.table: bits must be positive";
  let root = Rng.create ~seed in
  let engine =
    Factory.build spec Factory.default_scenario ~rng:(Rng.split root)
  in
  let rng = Rng.split root in
  let receiver_lines, sender_len, fill_sender = plan protocol engine.Engine.config in
  let sender_buf = Array.make (Stdlib.max sender_len 1) 0 in
  let symbol i bit =
    touch engine ~pid:receiver_pid receiver_lines;
    if bit then begin
      (* Computed only for 1-bits, as the lazy list argument used to be. *)
      fill_sender sender_buf i;
      touch engine ~pid:sender_pid sender_buf
    end;
    float_of_int (probe engine rng ~pid:receiver_pid receiver_lines)
  in
  (* Calibration preamble of known alternating bits: threshold at the
     midpoint of the two observed means. Absorbs per-architecture
     baselines (prime self-eviction under random replacement, Nomo's
     reduced effective ways, RE's periodic evictions, noisy timing). *)
  let training = 200 in
  let sum0 = ref 0. and sum1 = ref 0. in
  for i = 1 to training do
    let bit = i land 1 = 1 in
    let m = symbol i bit in
    if bit then sum1 := !sum1 +. m else sum0 := !sum0 +. m
  done;
  let threshold = (!sum0 +. !sum1) /. float_of_int training in
  let joint = Mutual_information.create ~x_card:2 ~y_card:2 in
  let errors = ref 0 in
  for i = 1 to bits do
    let bit = Rng.bool rng in
    let received = symbol (training + i) bit > threshold in
    if received <> bit then incr errors;
    Mutual_information.observe joint ~x:(Bool.to_int bit)
      ~y:(Bool.to_int received)
  done;
  {
    arch = Spec.display_name spec;
    protocol;
    error_rate = float_of_int !errors /. float_of_int bits;
    capacity = Mutual_information.mi joint;
  }

let table ?seed ?bits () =
  List.concat_map
    (fun spec ->
      [ run_row ?seed ?bits Set_conflict spec; run_row ?seed ?bits Occupancy spec ])
    Spec.all_paper

let render rows =
  let body =
    List.map
      (fun r ->
        [
          r.arch;
          protocol_name r.protocol;
          Printf.sprintf "%.3f" r.error_rate;
          Printf.sprintf "%.3f" r.capacity;
        ])
      rows
  in
  "Covert channels between colluding processes, per-symbol capacity\n\
   I(sent; received). Set-conflict is the covert twin of prime-and-probe\n\
   and dies under per-process randomized mappings; the occupancy channel\n\
   survives every shared cache (aggregate occupancy is preserved by any\n\
   mapping), which is why covert channels are far harder to close than\n\
   side channels.\n"
  ^ Table.render
      ~headers:[ "Cache"; "protocol"; "error rate"; "capacity (bits/symbol)" ]
      ~rows:body ()
