open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  default_window : int * int;
  built_windows : (int * (int * int)) list;  (** [windows] as created *)
  mutable windows : (int * (int * int)) list;
      (** pid -> (back, fwd), newest first; a list, not a hash table, so
          a reset is one store *)
  (* Last (pid, window) pair served by [window]: misses come in long
     same-pid runs, so the memo saves a list walk per miss.
     Invalidated by [set_window] and [reset]. *)
  mutable memo_pid : int;
  mutable memo_window : int * int;
}

let create ?(config = Config.standard) ?(policy = Policy.Random)
    ?(default_window = (0, 0)) ?(windows = []) ~rng () =
  if
    List.exists
      (fun (_, (back, fwd)) -> back < 0 || fwd < 0)
      ((min_int, default_window) :: windows)
  then invalid_arg "Rf.create: negative window";
  {
    b = Backing.create config ~rng;
    policy;
    default_window;
    built_windows = windows;
    windows;
    memo_pid = min_int;
    memo_window = default_window;
  }

(* [Not_found] is preallocated: a memo miss walks the list without
   allocating. *)
let rec find_window (pid : int) = function
  | [] -> raise Not_found
  | (p, w) :: rest -> if p = pid then w else find_window pid rest

let window t ~pid =
  if pid = t.memo_pid then t.memo_window
  else begin
    let w =
      match find_window pid t.windows with
      | w -> w
      | exception Not_found -> t.default_window
    in
    t.memo_pid <- pid;
    t.memo_window <- w;
    w
  end

let set_window t ~pid ~back ~fwd =
  if back < 0 || fwd < 0 then invalid_arg "Rf.set_window: negative window";
  t.windows <-
    (pid, (back, fwd)) :: List.filter (fun (p, _) -> p <> pid) t.windows;
  t.memo_pid <- min_int

(* --- the transition ---------------------------------------------------- *)

(* One access. A miss fetches a line drawn uniformly from the pid's
   window [addr - back, addr + fwd] (clamped to non-negative lines)
   instead of [addr]. A zero window is exactly demand fetch and draws no
   randomness, so RF(0,0) replays an SA cache's RNG stream bit-for-bit.
   A window line already cached is a read-through; a fetched line other
   than [addr] leaves [addr] uncached. *)
let[@inline] step t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let w = s.Slab.ways in
  let base = (addr land b.Backing.set_mask) * w in
  let i = Slab.scan_tag s.Slab.tags addr base (base + w) in
  if i >= 0 then begin
    Policy.touch t.policy s i ~seq;
    Kernel.hit
  end
  else begin
    let back, fwd = window t ~pid in
    let lo = Stdlib.max 0 (addr - back) and hi = addr + fwd in
    let line = if lo = hi then lo else lo + Rng.int b.Backing.rng (hi - lo + 1) in
    let lbase = (line land b.Backing.set_mask) * w in
    if Slab.scan_tag s.Slab.tags line lbase (lbase + w) >= 0 then
      Kernel.read_through
    else begin
      let way = Policy.victim_in t.policy b.Backing.rng s ~base:lbase ~len:w in
      let code = Kernel.fill b way ~tag:line ~owner:pid ~seq in
      Policy.filled t.policy s way;
      if line = addr then code else Kernel.not_cached code
    end
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish t.b c mode k (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let reset t ~rng =
  Backing.reset t.b ~rng;
  t.windows <- t.built_windows;
  t.memo_pid <- min_int

let engine t =
  {
    (Engine.of_backing t.b
       ~name:(Printf.sprintf "rf-%d-way" t.b.Backing.cfg.Config.ways)
       ~run_kernel:"rf"
       ~access:(fun ~pid addr -> access t ~pid addr)
       ~access_run:(fun ~pid ~trace ~pos ~len mode ->
         run t ~pid ~trace ~pos ~len mode)
       ~find:(fun ~pid:_ addr -> Backing.find t.b addr))
    with
    Engine.set_window = set_window t;
    reset = reset t;
  }
