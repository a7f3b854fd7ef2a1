type t = {
  per_byte_winner : int array;
  per_byte_recovered : bool array;
  nibbles_recovered : int;
  bits_recovered : int;
}

let aggregate cells =
  let per_byte_winner = Array.map fst cells in
  let per_byte_recovered = Array.map snd cells in
  let nibbles =
    Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 per_byte_recovered
  in
  {
    per_byte_winner;
    per_byte_recovered;
    nibbles_recovered = nibbles;
    bits_recovered = 4 * nibbles;
  }

let flush_reload ~victim ~attacker_pid ~rng ~trials_per_byte =
  aggregate
    (Array.init 16 (fun target_byte ->
         let r =
           Flush_reload.run ~victim ~attacker_pid ~rng
             { Flush_reload.trials = trials_per_byte; target_byte; victim_prefetch = false }
         in
         (r.Flush_reload.best_candidate, r.Flush_reload.nibble_recovered)))

let render t =
  let cells =
    Array.to_list
      (Array.mapi
         (fun i w ->
           if t.per_byte_recovered.(i) then Printf.sprintf "%x_" (w lsr 4)
           else "??")
         t.per_byte_winner)
  in
  Printf.sprintf "%s  %d/16 nibbles (%d key bits)" (String.concat " " cells)
    t.nibbles_recovered t.bits_recovered
