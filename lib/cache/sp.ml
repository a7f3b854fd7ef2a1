type t = {
  b : Backing.t;
  policy : Policy.t;
  partitions : int;
  per : int;  (** sets per partition, a power of two *)
  per_mask : int;  (** [per - 1] *)
  victim_pid : int;
  victim_ranges : int array;
      (** the victim's inclusive line ranges, flat: [lo0; hi0; lo1; hi1; ...] *)
}

let create_two_domain ?(config = Config.standard) ?(policy = Policy.Random)
    ?(partitions = 2) ~victim_pid ~victim_lines ~rng () =
  if partitions <= 0 then invalid_arg "Sp.create: partitions must be positive";
  if Config.sets config mod partitions <> 0 then
    invalid_arg "Sp.create: partitions must divide the set count";
  if partitions < 2 then
    invalid_arg "Sp.create: two domains need at least 2 partitions";
  let per = Config.sets config / partitions in
  {
    b = Backing.create config ~rng;
    policy;
    partitions;
    per;
    per_mask = per - 1;
    victim_pid;
    victim_ranges =
      Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) victim_lines);
  }

let sets_per_partition t = t.per

(* Top-level scan with every free variable as an argument (a local
   [let rec] would allocate its closure per access). [r] has even
   length, so [i + 1] is in bounds whenever [i] is. *)
let rec in_ranges (r : int array) line i =
  i < Array.length r
  && ((line >= Array.unsafe_get r i && line <= Array.unsafe_get r (i + 1))
     || in_ranges r line (i + 2))

(* The set of a line is determined by its home partition — 0 for the
   victim's lines, 1 for everything else — so both processes agree on
   where a shared line lives. *)
let[@inline] set_in t ~victim_line addr =
  let s = addr land t.per_mask in
  if victim_line then s else t.per + s

let set_of t addr =
  set_in t ~victim_line:(in_ranges t.victim_ranges addr 0) addr

(* --- the transition ---------------------------------------------------- *)

(* One access: a global physically-addressed probe; a miss fills the
   policy's victim only when the line is homed in the accessor's own
   partition, and is served read-through otherwise (nothing displaced). *)
let[@inline] step t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let victim_line = in_ranges t.victim_ranges addr 0 in
  let w = s.Slab.ways in
  let base = set_in t ~victim_line addr * w in
  let i = Slab.scan_tag s.Slab.tags addr base (base + w) in
  if i >= 0 then begin
    Policy.touch t.policy s i ~seq;
    Kernel.hit
  end
  else if (pid = t.victim_pid) <> victim_line (* homed elsewhere *) then
    Kernel.read_through
  else begin
    let way = Policy.victim_in t.policy b.Backing.rng s ~base ~len:w in
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    Policy.filled t.policy s way;
    code
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish t.b c mode k (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let engine t =
  Engine.of_backing t.b
    ~name:
      (Printf.sprintf "sp-%d-part-%d-way" t.partitions
         t.b.Backing.cfg.Config.ways)
    ~run_kernel:"sp"
    ~access:(fun ~pid addr -> access t ~pid addr)
    ~access_run:(fun ~pid ~trace ~pos ~len mode ->
      run t ~pid ~trace ~pos ~len mode)
    ~find:(fun ~pid:_ addr ->
      Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr)
