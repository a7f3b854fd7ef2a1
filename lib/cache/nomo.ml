type t = {
  b : Backing.t;
  policy : Policy.t;
  reserved : int;
  protected_pids : int list;
}

let create ?(config = Config.standard) ?(policy = Policy.Random) ?reserved
    ~protected_pids ~rng () =
  let reserved = Option.value reserved ~default:(config.Config.ways / 4) in
  if reserved < 0 || reserved >= config.Config.ways then
    invalid_arg "Nomo.create: reserved must lie in [0, ways)";
  { b = Backing.create config ~rng; policy; reserved; protected_pids }

let reserved_ways t = t.reserved
let shared_ways t = t.b.Backing.cfg.Config.ways - t.reserved
(* [List.mem] without its polymorphic compare: runs on every miss. *)
let rec mem_pid (pid : int) = function
  | [] -> false
  | p :: rest -> p = pid || mem_pid pid rest

let is_protected t pid = mem_pid pid t.protected_pids

(* Top-level loop (all state as arguments): a local [let rec] capturing
   the slabs/[stop]/[pid] would allocate its closure on every miss under
   the non-flambda compiler. Valid lines have non-negative tags. *)
let rec count_owned (tags : int array) (owners : int array) pid i stop n =
  if i >= stop then n
  else
    count_owned tags owners pid (i + 1) stop
      (if tags.(i) >= 0 && owners.(i) = pid then n + 1 else n)

(* Valid lines in [base, base + len) filled by [pid]. Allocation-free. *)
let owned_in_range t ~base ~len ~pid =
  let s = t.b.Backing.slab in
  count_owned s.Slab.tags s.Slab.owners pid base (base + len) 0

(* The set's ways split into two contiguous slices: the first [reserved]
   ways and the shared remainder. A protected pid that holds fewer than
   [reserved] lines in the whole set fills into the reserved slice;
   everyone else fills into the shared slice. *)
let fills_reserved t ~protected ~base ~pid =
  protected
  && owned_in_range t ~base ~len:t.b.Backing.cfg.Config.ways ~pid < t.reserved

(* --- the transition ---------------------------------------------------- *)

(* One access. A miss fills the policy's victim within the accessor's
   slice. A slice is a whole set only when [reserved = 0]; otherwise
   under Plru the victim choice is the deterministic LRU fallback (tree
   bits are maintained by the hooks but never consulted for
   slice-shaped ranges — see {!Policy}). *)
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
    let in_reserved =
      fills_reserved t ~protected:(is_protected t pid) ~base ~pid
    in
    let cand_base = if in_reserved then base else base + t.reserved in
    let cand_len = if in_reserved then t.reserved else w - t.reserved in
    if cand_len <= 0 then
      (* reserved = 0 for a protected pid never happens (owned < 0 is
         impossible); an empty shared slice can only occur if
         reserved = ways, excluded at create. Still: serve read-through
         defensively. *)
      Kernel.read_through
    else begin
      let way =
        Policy.victim_in t.policy b.Backing.rng s ~base:cand_base ~len:cand_len
      in
      let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
      Policy.filled t.policy s way;
      code
    end
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish c mode (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let engine t =
  Engine.of_backing t.b
    ~name:
      (Printf.sprintf "nomo-%d/%d-reserved" t.reserved
         t.b.Backing.cfg.Config.ways)
    ~run_kernel:"nomo"
    ~access:(fun ~pid addr -> access t ~pid addr)
    ~access_run:(fun ~pid ~trace ~pos ~len mode ->
      run t ~pid ~trace ~pos ~len mode)
    ~find:(fun ~pid:_ addr -> Backing.find t.b addr)
