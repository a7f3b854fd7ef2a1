open Cachesec_cache
open Cachesec_crypto

type config = { trials : int }

type result = {
  round10_guess : int array;
  bytes_correct : int;
  master_key_guess : string;
  key_recovered : bool;
}

let run ~victim ~attacker_pid ~rng c =
  if c.trials <= 0 then invalid_arg "Last_round.run: trials must be positive";
  let layout = Victim.layout victim in
  let engine = Victim.engine victim in
  let epl = Aes_layout.entries_per_line layout in
  let te4_lines = Array.of_list (Aes_layout.table_lines layout ~table:4) in
  let scores = Array.make_matrix 16 256 0. in
  for _ = 1 to c.trials do
    List.iter
      (fun line -> ignore (engine.Engine.flush_line ~pid:attacker_pid line))
      (Aes_layout.all_lines layout);
    let p = Victim.random_plaintext rng in
    let ciphertext = Victim.encrypt_quiet victim p in
    let hit = Array.make (Array.length te4_lines) false in
    Array.iteri
      (fun idx line ->
        let o = engine.Engine.access ~pid:attacker_pid line in
        let t = Timing.observe_outcome rng ~sigma:engine.Engine.sigma o in
        hit.(idx) <- Timing.classify t = Outcome.Hit)
      te4_lines;
    for j = 0 to 15 do
      let cj = Char.code (Bytes.get ciphertext j) in
      for k = 0 to 255 do
        let index = Sbox.inv_sub (cj lxor k) in
        if hit.(index / epl) then scores.(j).(k) <- scores.(j).(k) +. 1.
      done
    done
  done;
  let round10_guess = Array.init 16 (fun j -> Recovery.argmax scores.(j)) in
  let guess_bytes = Bytes.init 16 (fun j -> Char.chr round10_guess.(j)) in
  let true_r10 = Aes.round10_key (Victim.key victim) in
  let bytes_correct =
    let n = ref 0 in
    for j = 0 to 15 do
      if Bytes.get guess_bytes j = Bytes.get true_r10 j then incr n
    done;
    !n
  in
  let master = Aes.key_of_round10 guess_bytes in
  let master_key_guess = Aes.hex_of_bytes (Aes.key_bytes master) in
  {
    round10_guess;
    bytes_correct;
    master_key_guess;
    key_recovered =
      Bytes.equal (Aes.key_bytes master) (Aes.key_bytes (Victim.key victim));
  }
