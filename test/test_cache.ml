(* Tests for the cache simulator substrate: geometry, policies and the
   architecture-specific security mechanisms of all nine caches. *)

open Cachesec_stats
open Cachesec_cache

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng () = Rng.create ~seed:1234

(* --- Config / Address ------------------------------------------------- *)

let test_config () =
  let c = Config.standard in
  Alcotest.(check int) "sets" 64 (Config.sets c);
  Alcotest.(check int) "capacity" (32 * 1024) (Config.capacity_bytes c);
  Alcotest.(check int) "fa sets" 1 (Config.sets Config.fully_associative);
  Alcotest.(check int) "dm sets" 512 (Config.sets Config.direct_mapped);
  Alcotest.check_raises "non pow2 lines"
    (Invalid_argument "Config.v: lines must be a positive power of two")
    (fun () -> ignore (Config.v ~line_bytes:64 ~lines:500 ~ways:4));
  Alcotest.check_raises "ways divide"
    (Invalid_argument "Config.v: ways must divide lines") (fun () ->
      ignore (Config.v ~line_bytes:64 ~lines:512 ~ways:7))

let test_address () =
  let c = Config.standard in
  Alcotest.(check int) "line of byte" 2 (Address.line_of_byte c 128);
  Alcotest.(check int) "byte of line" 128 (Address.byte_of_line c 2);
  Alcotest.(check int) "set" 1 (Address.set_index c 65);
  Alcotest.(check int) "tag" 1 (Address.tag c 65);
  Alcotest.(check (list int)) "range lines" [ 0; 1 ]
    (Address.lines_in_byte_range c ~first:0 ~length:100);
  Alcotest.(check (list int)) "empty range" []
    (Address.lines_in_byte_range c ~first:0 ~length:0)

let prop_address_roundtrip =
  qtest "line = tag*sets + set" QCheck.(int_range 0 1000000) (fun line ->
      let c = Config.standard in
      (Address.tag c line * Config.sets c) + Address.set_index c line = line)

(* --- Policy selectors over a Slab ------------------------------------ *)

(* Every line filled, line i at seq i+1. *)
let filled_slab ~lines ~ways =
  let s = Slab.create ~lines ~ways in
  for i = 0 to lines - 1 do
    Slab.fill s i ~tag:i ~owner:0 ~seq:(i + 1)
  done;
  s

(* The list selector prefers invalid candidates in list order. *)
let test_replacement_invalid_first () =
  let s = filled_slab ~lines:4 ~ways:4 in
  Slab.invalidate s 1;
  Slab.invalidate s 2;
  let r = rng () in
  List.iter
    (fun policy ->
      Alcotest.(check int)
        (Policy.to_string policy ^ " picks invalid")
        2
        (Policy.victim_among_in policy r s ~candidates:[ 3; 2; 1 ]))
    [ Policy.Lru; Policy.Random; Policy.Fifo ]

let test_replacement_lru () =
  let s = filled_slab ~lines:4 ~ways:4 in
  Slab.touch s 0 ~seq:100;
  let r = rng () in
  Alcotest.(check int) "least recent" 1
    (Policy.victim_in Policy.Lru r s ~base:0 ~len:4);
  Alcotest.(check int) "restricted range" 2
    (Policy.victim_in Policy.Lru r s ~base:2 ~len:2)

let test_replacement_fifo () =
  let s = filled_slab ~lines:4 ~ways:4 in
  Slab.touch s 1 ~seq:100;
  (* FIFO ignores touches: oldest fill in the range wins. *)
  let r = rng () in
  Alcotest.(check int) "oldest fill" 1
    (Policy.victim_in Policy.Fifo r s ~base:1 ~len:3)

let test_replacement_random_uniform () =
  let s = filled_slab ~lines:8 ~ways:8 in
  let r = rng () in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Policy.victim_in Policy.Random r s ~base:0 ~len:8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

(* victim_in / victim_among_in agree on a contiguous slice that is not a
   whole set (lines 5..10 straddle two 8-way sets), including the single
   RNG draw of Random, while the slice is refilled and touched between
   picks. Plru is left out: on whole aligned sets its tree walk is meant
   to differ from the list path's LRU order. *)
let test_replacement_range_list_agree () =
  List.iter
    (fun policy ->
      let s = filled_slab ~lines:16 ~ways:8 in
      let r1 = Rng.create ~seed:77 and r2 = Rng.create ~seed:77 in
      let work = Rng.create ~seed:5 in
      for seq = 100 to 299 do
        let v = Policy.victim_in policy r1 s ~base:5 ~len:6 in
        Alcotest.(check int)
          (Policy.to_string policy ^ " range = list")
          (Policy.victim_among_in policy r2 s
             ~candidates:[ 5; 6; 7; 8; 9; 10 ])
          v;
        Slab.fill s v ~tag:seq ~owner:0 ~seq;
        Policy.filled policy s v;
        Policy.touch policy s (5 + Rng.int work 6) ~seq;
        if seq mod 7 = 0 then Slab.invalidate s (5 + Rng.int work 6)
      done)
    Policy.[ Lru; Random; Fifo; Mru; Lfu; Mfu ]

let test_replacement_errors () =
  let s = filled_slab ~lines:2 ~ways:2 in
  let r = rng () in
  Alcotest.check_raises "empty list"
    (Invalid_argument "Policy.victim_among_in: no candidates") (fun () ->
      ignore (Policy.victim_among_in Policy.Lru r s ~candidates:[]));
  Alcotest.check_raises "list out of range"
    (Invalid_argument "Policy.victim_among_in: candidate out of range")
    (fun () ->
      ignore (Policy.victim_among_in Policy.Lru r s ~candidates:[ 0; 5 ]))

(* --- Policy registry ----------------------------------------------------- *)

let test_policy_registry () =
  Alcotest.(check int) "seven policies" 7 Policy.count;
  Alcotest.(check int) "all lists each once" 7
    (List.length (List.sort_uniq compare Policy.all));
  List.iteri
    (fun i p ->
      Alcotest.(check int)
        (Policy.to_string p ^ " id is registry position")
        i (Policy.id p);
      Alcotest.(check bool)
        (Policy.to_string p ^ " round-trips")
        true
        (Policy.of_string (Policy.to_string p) = Some p))
    Policy.all;
  Alcotest.(check bool) "unknown spelling" true (Policy.of_string "mlu" = None);
  Alcotest.(check string) "names joins the registry"
    "lru|random|fifo|mru|lfu|mfu|plru" Policy.names

let test_policy_needs () =
  let n = Policy.needs in
  Alcotest.(check bool) "lru last_use" true (n Policy.Lru).Policy.last_use;
  Alcotest.(check bool) "mru last_use" true (n Policy.Mru).Policy.last_use;
  Alcotest.(check bool) "random rng" true (n Policy.Random).Policy.rng;
  Alcotest.(check bool) "fifo fill_seq" true (n Policy.Fifo).Policy.fill_seq;
  Alcotest.(check bool) "lfu freq" true (n Policy.Lfu).Policy.freq;
  Alcotest.(check bool) "mfu freq" true (n Policy.Mfu).Policy.freq;
  Alcotest.(check bool) "plru tree" true (n Policy.Plru).Policy.tree;
  Alcotest.(check bool) "lru draws no rng" false (n Policy.Lru).Policy.rng;
  Alcotest.(check bool) "plru needs no freq" false (n Policy.Plru).Policy.freq

let test_policy_victims () =
  let s = filled_slab ~lines:8 ~ways:8 in
  let r = rng () in
  (* Line i filled at seq i+1; touching line 0 makes it MRU. *)
  Slab.touch s 0 ~seq:100;
  Alcotest.(check int) "lru skips the touched line" 1
    (Policy.victim_in Policy.Lru r s ~base:0 ~len:8);
  Alcotest.(check int) "mru picks the touched line" 0
    (Policy.victim_in Policy.Mru r s ~base:0 ~len:8);
  Alcotest.(check int) "fifo ignores touches" 0
    (Policy.victim_in Policy.Fifo r s ~base:0 ~len:8);
  (* Frequency: bump line 3 twice through the policy touch hook. *)
  Policy.touch Policy.Lfu s 3 ~seq:101;
  Policy.touch Policy.Lfu s 3 ~seq:102;
  Alcotest.(check int) "mfu evicts the hottest line" 3
    (Policy.victim_in Policy.Mfu r s ~base:0 ~len:8);
  Alcotest.(check bool) "lfu avoids the hottest line" true
    (Policy.victim_in Policy.Lfu r s ~base:0 ~len:8 <> 3);
  (* Every policy fills an invalid way before evicting. *)
  Slab.invalidate s 5;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Policy.to_string p ^ " invalid way first")
        5
        (Policy.victim_in p r s ~base:0 ~len:8))
    Policy.all

let test_policy_plru () =
  Alcotest.(check bool) "pow2 capable" true (Policy.plru_tree_capable 8);
  Alcotest.(check bool) "1-way not capable" false (Policy.plru_tree_capable 1);
  Alcotest.(check bool) "non-pow2 not capable" false
    (Policy.plru_tree_capable 6);
  let s = filled_slab ~lines:8 ~ways:4 in
  let r = rng () in
  (* Fresh tree word (all zero) walks left-left to leaf 0. *)
  Alcotest.(check int) "zero tree walks to way 0" 0
    (Policy.victim_in Policy.Plru r s ~base:0 ~len:4);
  (* Touching way 0 points the whole path away from it. *)
  Policy.plru_touch s 0;
  Alcotest.(check int) "after touch 0 victim moves subtree" 2
    (Policy.victim_in Policy.Plru r s ~base:0 ~len:4);
  (* Four victim+fill rounds visit four distinct leaves (the basis of
     the sa_plru = sa_lru closed-form step). *)
  let visited = ref [] in
  for round = 1 to 4 do
    let v = Policy.victim_in Policy.Plru r s ~base:4 ~len:4 in
    visited := v :: !visited;
    Slab.fill s v ~tag:(100 + round) ~owner:0 ~seq:(50 + round);
    Policy.filled Policy.Plru s v
  done;
  Alcotest.(check int) "4 consecutive misses clean the set" 4
    (List.length (List.sort_uniq compare !visited));
  (* A range that is not a whole aligned set falls back to LRU order:
     the tree word covers set-shaped candidate ranges only. *)
  Slab.touch s 1 ~seq:200;
  Alcotest.(check int) "slice range uses LRU fallback" 0
    (Policy.victim_in Policy.Plru r s ~base:0 ~len:2)

let test_policy_errors () =
  let s = filled_slab ~lines:4 ~ways:4 in
  let r = rng () in
  Alcotest.check_raises "empty range"
    (Invalid_argument "Policy.victim_in: no candidates") (fun () ->
      ignore (Policy.victim_in Policy.Lru r s ~base:0 ~len:0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Policy.victim_in: candidate out of range") (fun () ->
      ignore (Policy.victim_in Policy.Lru r s ~base:2 ~len:4))

(* --- Counters ---------------------------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  Counters.record c ~pid:0 Outcome.hit;
  Counters.record c ~pid:1 (Outcome.fill ~fetched:1 ~evicted:(Some (0, 5)));
  Counters.record c ~pid:1 Outcome.miss_uncached;
  Counters.record_flush c ~pid:0;
  let g = Counters.global c in
  Alcotest.(check int) "accesses" 3 g.Counters.accesses;
  Alcotest.(check int) "hits" 1 g.Counters.hits;
  Alcotest.(check int) "misses" 2 g.Counters.misses;
  Alcotest.(check int) "evictions" 1 g.Counters.evictions;
  Alcotest.(check int) "read throughs" 1 g.Counters.read_throughs;
  Alcotest.(check int) "flushes" 1 g.Counters.flushes;
  let p1 = Counters.for_pid c 1 in
  Alcotest.(check int) "pid1 misses" 2 p1.Counters.misses;
  Alcotest.(check int) "unknown pid" 0 (Counters.for_pid c 9).Counters.accesses;
  Alcotest.(check (float 1e-9)) "hit rate" (1. /. 3.) (Counters.hit_rate g);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.global c).Counters.accesses

(* --- SA ----------------------------------------------------------------- *)

let test_sa_miss_then_hit () =
  let sa = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  let o1 = sa.Engine.access ~pid:0 100 in
  Alcotest.(check bool) "first miss" true (Outcome.is_miss o1);
  Alcotest.(check bool) "cached" true o1.Outcome.cached;
  let o2 = sa.Engine.access ~pid:0 100 in
  Alcotest.(check bool) "then hit" true (Outcome.is_hit o2)

let test_sa_cross_pid_hit () =
  let sa = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  ignore (sa.Engine.access ~pid:0 100);
  Alcotest.(check bool) "other pid hits same line" true
    (Outcome.is_hit (sa.Engine.access ~pid:1 100))

let test_sa_eviction_reported () =
  let sa = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  let sets = Config.sets sa.Engine.config in
  (* Fill one set completely, then overflow it. *)
  for k = 0 to 7 do
    ignore (sa.Engine.access ~pid:0 (5 + (k * sets)))
  done;
  let o = sa.Engine.access ~pid:1 (5 + (8 * sets)) in
  Alcotest.(check int) "one eviction" 1 (Outcome.eviction_count o);
  let owner, line = List.hd (Outcome.evictions o) in
  Alcotest.(check int) "victim owner" 0 owner;
  Alcotest.(check int) "victim in same set" 5 (line mod sets)

let test_sa_peek_nonmutating () =
  let sa = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  ignore (sa.Engine.access ~pid:0 7);
  Alcotest.(check bool) "peek true" true (sa.Engine.peek ~pid:0 7);
  Alcotest.(check bool) "peek false" false (sa.Engine.peek ~pid:0 8);
  let before = (Counters.global sa.Engine.counters).Counters.accesses in
  ignore (sa.Engine.peek ~pid:0 7);
  Alcotest.(check int) "no access recorded" before
    (Counters.global sa.Engine.counters).Counters.accesses

let test_sa_flush () =
  let sa = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  ignore (sa.Engine.access ~pid:0 7);
  Alcotest.(check bool) "flush removes" true (sa.Engine.flush_line ~pid:1 7);
  Alcotest.(check bool) "absent now" false (sa.Engine.peek ~pid:0 7);
  Alcotest.(check bool) "second flush false" false (sa.Engine.flush_line ~pid:1 7);
  ignore (sa.Engine.access ~pid:0 7);
  sa.Engine.flush_all ();
  Alcotest.(check bool) "flush all" false (sa.Engine.peek ~pid:0 7)

let test_sa_lru_exact () =
  let config = Config.v ~line_bytes:64 ~lines:8 ~ways:2 in
  let sa = Sa.engine (Sa.create ~config ~policy:Policy.Lru ~rng:(rng ()) ()) in
  (* Set 0 of 4 sets: lines 0, 4, 8 map there. *)
  ignore (sa.Engine.access ~pid:0 0);
  ignore (sa.Engine.access ~pid:0 4);
  ignore (sa.Engine.access ~pid:0 0);  (* 0 is now most recent *)
  let o = sa.Engine.access ~pid:0 8 in
  Alcotest.(check (list (pair int int))) "LRU evicts 4" [ (0, 4) ]
    (Outcome.evictions o)

let test_sa_fully_associative () =
  let sa = Sa.engine (Sa.create ~config:Config.fully_associative ~rng:(rng ()) ()) in
  (* 512 distinct lines fit regardless of addresses. *)
  for i = 0 to 511 do
    ignore (sa.Engine.access ~pid:0 (i * 64))
  done;
  let snap = Counters.global sa.Engine.counters in
  Alcotest.(check int) "no evictions while filling" 0 snap.Counters.evictions

let test_sa_engine () =
  let e = Sa.engine (Sa.create ~rng:(rng ()) ()) in
  Alcotest.(check string) "name" "sa-8-way-random" e.Engine.name;
  Alcotest.(check (float 0.)) "no noise" 0. e.Engine.sigma;
  Alcotest.(check bool) "lock unsupported" false (e.Engine.lock_line ~pid:0 3);
  ignore (e.Engine.access ~pid:0 3);
  Alcotest.(check int) "dump size" 1 (List.length (Engine.dump e))

(* --- SP ----------------------------------------------------------------- *)

let make_sp () =
  Sp.create_two_domain ~victim_pid:0 ~victim_lines:[ (0, 99) ] ~rng:(rng ()) ()

let test_sp_basic () =
  let t = make_sp () in
  Alcotest.(check int) "sets per partition" 32 (Sp.sets_per_partition t);
  let sp = Sp.engine t in
  let o = sp.Engine.access ~pid:0 5 in
  Alcotest.(check bool) "victim fill ok" true o.Outcome.cached;
  Alcotest.(check bool) "victim hit" true (Outcome.is_hit (sp.Engine.access ~pid:0 5))

let test_sp_cross_partition_read_through () =
  let sp = Sp.engine (make_sp ()) in
  (* Attacker (pid 1) misses on a victim-homed line: read-through. *)
  let o = sp.Engine.access ~pid:1 5 in
  Alcotest.(check bool) "miss" true (Outcome.is_miss o);
  Alcotest.(check bool) "not cached" false o.Outcome.cached;
  Alcotest.(check (list (pair int int))) "nothing evicted" [] (Outcome.evictions o)

let test_sp_shared_line_hit () =
  let sp = Sp.engine (make_sp ()) in
  ignore (sp.Engine.access ~pid:0 5);
  (* The victim fetched a shared (victim-homed) line: the attacker's
     subsequent read hits - the paper's flush-and-reload channel. *)
  Alcotest.(check bool) "attacker hits victim-fetched line" true
    (Outcome.is_hit (sp.Engine.access ~pid:1 5))

let test_sp_attacker_cannot_evict_victim () =
  let sp = Sp.engine (make_sp ()) in
  for i = 0 to 99 do
    ignore (sp.Engine.access ~pid:0 i)
  done;
  (* Attacker hammers his own space; no victim line may disappear. *)
  for i = 0 to 5000 do
    ignore (sp.Engine.access ~pid:1 (1000 + i))
  done;
  let victim_lines_alive =
    List.for_all (fun i -> sp.Engine.peek ~pid:0 i) (List.init 100 Fun.id)
  in
  Alcotest.(check bool) "all victim lines alive" true victim_lines_alive

let test_sp_validation () =
  Alcotest.check_raises "partitions divide"
    (Invalid_argument "Sp.create: partitions must divide the set count")
    (fun () ->
      ignore
        (Sp.create_two_domain ~partitions:3 ~victim_pid:0 ~victim_lines:[]
           ~rng:(rng ()) ()));
  Alcotest.check_raises "two domains, two partitions"
    (Invalid_argument "Sp.create: two domains need at least 2 partitions")
    (fun () ->
      ignore
        (Sp.create_two_domain ~partitions:1 ~victim_pid:0 ~victim_lines:[]
           ~rng:(rng ()) ()))

(* --- PL ----------------------------------------------------------------- *)

let test_pl_lock_protects () =
  let t = Pl.create ~rng:(rng ()) () in
  let pl = Pl.engine t in
  Alcotest.(check bool) "lock ok" true (pl.Engine.lock_line ~pid:0 5);
  Alcotest.(check bool) "present" true (pl.Engine.peek ~pid:0 5);
  (* Exhaustive attacker pressure on the same set cannot dislodge it. *)
  let sets = Config.sets pl.Engine.config in
  for k = 1 to 2000 do
    ignore (pl.Engine.access ~pid:1 (5 + (k * sets)))
  done;
  Alcotest.(check bool) "still locked in" true (pl.Engine.peek ~pid:0 5);
  Alcotest.(check (list int)) "locked lines" [ 5 ] (Pl.locked_lines t)

let test_pl_read_through_on_locked_victim () =
  let pl = Pl.engine (Pl.create ~rng:(rng ()) ()) in
  let sets = Config.sets pl.Engine.config in
  (* Lock the whole set: every later miss on that set is read-through. *)
  for k = 0 to 7 do
    Alcotest.(check bool) "lock fill" true (pl.Engine.lock_line ~pid:0 (5 + (k * sets)))
  done;
  let o = pl.Engine.access ~pid:1 (5 + (8 * sets)) in
  Alcotest.(check bool) "miss" true (Outcome.is_miss o);
  Alcotest.(check bool) "read through" false o.Outcome.cached;
  (* And the 9th lock attempt fails: no unlocked way left. *)
  Alcotest.(check bool) "no way to lock" false
    (pl.Engine.lock_line ~pid:0 (5 + (9 * sets)))

let test_pl_unlock_owner_only () =
  let t = Pl.create ~rng:(rng ()) () in
  let pl = Pl.engine t in
  ignore (pl.Engine.lock_line ~pid:0 5);
  Alcotest.(check bool) "other pid cannot unlock" false (pl.Engine.unlock_line ~pid:1 5);
  Alcotest.(check bool) "owner unlocks" true (pl.Engine.unlock_line ~pid:0 5);
  Alcotest.(check (list int)) "no locks left" [] (Pl.locked_lines t)

let test_pl_flush_respects_lock () =
  let pl = Pl.engine (Pl.create ~rng:(rng ()) ()) in
  ignore (pl.Engine.lock_line ~pid:0 5);
  Alcotest.(check bool) "attacker flush denied" false (pl.Engine.flush_line ~pid:1 5);
  Alcotest.(check bool) "owner flush ok" true (pl.Engine.flush_line ~pid:0 5)

let test_pl_unlocked_behaves_normally () =
  let pl = Pl.engine (Pl.create ~rng:(rng ()) ()) in
  ignore (pl.Engine.access ~pid:0 5);
  Alcotest.(check bool) "hit" true (Outcome.is_hit (pl.Engine.access ~pid:0 5))

(* --- Nomo ---------------------------------------------------------------- *)

let make_nomo () =
  Nomo.create ~protected_pids:[ 0 ] ~rng:(rng ()) ()

let test_nomo_geometry () =
  let nm = make_nomo () in
  Alcotest.(check int) "reserved default w/4" 2 (Nomo.reserved_ways nm);
  Alcotest.(check int) "shared" 6 (Nomo.shared_ways nm);
  Alcotest.(check bool) "protected" true (Nomo.is_protected nm 0);
  Alcotest.(check bool) "unprotected" false (Nomo.is_protected nm 1)

let test_nomo_attacker_cannot_monopolize () =
  let nm = Nomo.engine (make_nomo ()) in
  let sets = Config.sets nm.Engine.config in
  (* Victim parks two lines (fits the reservation). *)
  ignore (nm.Engine.access ~pid:0 5);
  ignore (nm.Engine.access ~pid:0 (5 + sets));
  (* Attacker hammers the same set with thousands of lines. *)
  for k = 2 to 3000 do
    ignore (nm.Engine.access ~pid:1 (5 + (k * sets)))
  done;
  Alcotest.(check bool) "victim line 1 alive" true (nm.Engine.peek ~pid:0 5);
  Alcotest.(check bool) "victim line 2 alive" true
    (nm.Engine.peek ~pid:0 (5 + sets))

let test_nomo_victim_spills_when_exceeding () =
  let nm = Nomo.engine (Nomo.create ~reserved:1 ~protected_pids:[ 0 ] ~rng:(rng ()) ()) in
  let sets = Config.sets nm.Engine.config in
  (* Attacker owns the shared ways first. *)
  for k = 0 to 6 do
    ignore (nm.Engine.access ~pid:1 (1000 * sets |> fun b -> b + 5 + (k * sets)))
  done;
  (* Victim inserts two lines: the second must displace someone in the
     shared ways (interference). *)
  ignore (nm.Engine.access ~pid:0 5);
  let o = nm.Engine.access ~pid:0 (5 + sets) in
  Alcotest.(check bool) "spill evicts attacker" true
    (List.exists (fun (owner, _) -> owner = 1) (Outcome.evictions o))

let test_nomo_validation () =
  Alcotest.check_raises "reserved = ways"
    (Invalid_argument "Nomo.create: reserved must lie in [0, ways)") (fun () ->
      ignore (Nomo.create ~reserved:8 ~protected_pids:[] ~rng:(rng ()) ()))

(* --- Newcache -------------------------------------------------------------- *)

let test_newcache_hit_after_fill () =
  let t = Newcache.create ~rng:(rng ()) () in
  let nc = Newcache.engine t in
  Alcotest.(check int) "logical lines" (512 * 16) (Newcache.logical_lines t);
  ignore (nc.Engine.access ~pid:0 7);
  Alcotest.(check bool) "hit" true (Outcome.is_hit (nc.Engine.access ~pid:0 7))

let test_newcache_pid_isolation () =
  let nc = Newcache.engine (Newcache.create ~rng:(rng ()) ()) in
  ignore (nc.Engine.access ~pid:0 7);
  Alcotest.(check bool) "other context misses same address" true
    (Outcome.is_miss (nc.Engine.access ~pid:1 7));
  (* Both copies can coexist. *)
  Alcotest.(check bool) "victim copy alive" true (nc.Engine.peek ~pid:0 7)

let test_newcache_index_conflict () =
  let nc = Newcache.engine (Newcache.create ~extra_bits:0 ~rng:(rng ()) ()) in
  (* extra_bits 0: logical lines = 512, so addresses 7 and 519 share a
     logical index; caching the second must invalidate the first. *)
  ignore (nc.Engine.access ~pid:0 7);
  let o = nc.Engine.access ~pid:0 (7 + 512) in
  Alcotest.(check bool) "conflict evicted old" true
    (List.mem (0, 7) (Outcome.evictions o));
  Alcotest.(check bool) "old gone" false (nc.Engine.peek ~pid:0 7);
  Alcotest.(check bool) "new present" true (nc.Engine.peek ~pid:0 (7 + 512))

let test_newcache_flush_own_only () =
  let nc = Newcache.engine (Newcache.create ~rng:(rng ()) ()) in
  ignore (nc.Engine.access ~pid:0 7);
  Alcotest.(check bool) "attacker flush misses victim copy" false
    (nc.Engine.flush_line ~pid:1 7);
  Alcotest.(check bool) "victim flush works" true (nc.Engine.flush_line ~pid:0 7)

let test_newcache_cam_consistency () =
  (* After a busy random workload, peek must agree with a full scan of
     the dumped lines (the chained index over the physical lines never
     loses, keeps or misfiles a line). *)
  let e = Newcache.engine (Newcache.create ~rng:(rng ()) ()) in
  let r = rng () in
  for _ = 1 to 5000 do
    let pid = Rng.int r 2 and addr = Rng.int r 2000 in
    match Rng.int r 10 with
    | 0 -> ignore (e.Engine.flush_line ~pid addr)
    | 1 when Rng.int r 50 = 0 -> e.Engine.flush_all ()
    | _ -> ignore (e.Engine.access ~pid addr)
  done;
  let dumped = Engine.dump e in
  for pid = 0 to 1 do
    for addr = 0 to 1999 do
      let scan =
        List.exists
          (fun (_, (l : Line.t)) -> l.Line.owner = pid && l.Line.tag = addr)
          dumped
      in
      if scan <> e.Engine.peek ~pid addr then
        Alcotest.failf "cam desync pid=%d addr=%d (scan=%b)" pid addr scan
    done
  done

(* [lines lsl extra_bits] must not overflow: past the bound the logical
   line count wraps to zero (every access would divide by it), to a
   negative number, or, for shifts of 63 and up, back to a small cache
   that was never asked for. *)
let test_newcache_extra_bits_overflow () =
  let max = Newcache.max_extra_bits ~lines:512 in
  Alcotest.(check int) "512-line bound" 52 max;
  let t = Newcache.create ~extra_bits:max ~rng:(rng ()) () in
  let nc = Newcache.engine t in
  Alcotest.(check int) "largest logical cache" (512 lsl max)
    (Newcache.logical_lines t);
  ignore (nc.Engine.access ~pid:0 7);
  Alcotest.(check bool) "it still caches" true (nc.Engine.peek ~pid:0 7);
  List.iter
    (fun extra_bits ->
      match Newcache.create ~extra_bits ~rng:(rng ()) () with
      | _ -> Alcotest.failf "extra_bits %d accepted" extra_bits
      | exception Invalid_argument _ -> ())
    [ -1; max + 1; 54; 62; 63; 64; 70 ];
  Alcotest.(check int) "one line" 61 (Newcache.max_extra_bits ~lines:1)

let test_newcache_random_eviction_spread () =
  let nc = Newcache.engine (Newcache.create ~rng:(rng ()) ()) in
  (* Fill all 512 physical lines, then insert more and check the
     evictions hit many distinct victims. *)
  for i = 0 to 511 do
    ignore (nc.Engine.access ~pid:0 i)
  done;
  let evicted = Hashtbl.create 64 in
  for i = 512 to 767 do
    let o = nc.Engine.access ~pid:0 (i + 100000) in
    List.iter (fun (_, line) -> Hashtbl.replace evicted line ()) (Outcome.evictions o);
    ignore i
  done;
  Alcotest.(check bool) "many distinct victims" true
    (Hashtbl.length evicted > 150)

(* --- RP ---------------------------------------------------------------- *)

let test_rp_same_pid_hit () =
  let rp = Rp.engine (Rp.create ~rng:(rng ()) ()) in
  ignore (rp.Engine.access ~pid:0 5);
  Alcotest.(check bool) "hit" true (Outcome.is_hit (rp.Engine.access ~pid:0 5))

let test_rp_pid_isolation () =
  let rp = Rp.engine (Rp.create ~rng:(rng ()) ()) in
  ignore (rp.Engine.access ~pid:0 5);
  Alcotest.(check bool) "cross-context miss" true
    (Outcome.is_miss (rp.Engine.access ~pid:1 5))

let test_rp_table_bijection_under_load () =
  let t = Rp.create ~rng:(rng ()) () in
  let rp = Rp.engine t in
  let r = rng () in
  for _ = 1 to 5000 do
    ignore (rp.Engine.access ~pid:(Rng.int r 2) (Rng.int r 4096))
  done;
  List.iter
    (fun pid ->
      let tbl = Rp.table t ~pid in
      let seen = Array.make (Array.length tbl) false in
      Array.iter (fun s -> seen.(s) <- true) tbl;
      Alcotest.(check bool)
        (Printf.sprintf "pid %d table is a bijection" pid)
        true
        (Array.for_all Fun.id seen))
    [ 0; 1 ]

let test_rp_set_identity () =
  let t = Rp.create ~rng:(rng ()) () in
  let rp = Rp.engine t in
  let r = rng () in
  for _ = 1 to 1000 do
    ignore (rp.Engine.access ~pid:0 (Rng.int r 4096))
  done;
  Rp.set_identity t ~pid:0;
  let tbl = Rp.table t ~pid:0 in
  Alcotest.(check bool) "identity restored" true
    (Array.for_all Fun.id (Array.mapi (fun i s -> i = s) tbl))

let test_rp_external_miss_randomizes () =
  let rp = Rp.engine (Rp.create ~rng:(rng ()) ()) in
  let sets = Config.sets rp.Engine.config in
  (* Victim owns all of (his) set 5. *)
  for k = 0 to 7 do
    ignore (rp.Engine.access ~pid:0 (5 + (k * sets)))
  done;
  (* Attacker storms logical set 5 with 50 distinct lines. On SA this
     would clean the set almost surely; RP's randomized interference
     handling (random set + table swap) must leave most victim lines
     alive. *)
  for k = 0 to 49 do
    ignore (rp.Engine.access ~pid:1 (100032 + 5 + (k * sets)))
  done;
  let survivors =
    List.length
      (List.filter
         (fun k -> rp.Engine.peek ~pid:0 (5 + (k * sets)))
         (List.init 8 Fun.id))
  in
  Alcotest.(check bool) "most victim lines survive" true (survivors >= 4)

(* --- RF ---------------------------------------------------------------- *)

let test_rf_demand_fetch_default () =
  let t = Rf.create ~rng:(rng ()) () in
  let rf = Rf.engine t in
  Alcotest.(check (pair int int)) "default window" (0, 0) (Rf.window t ~pid:0);
  let o = rf.Engine.access ~pid:0 100 in
  Alcotest.(check bool) "window 0 caches the line" true o.Outcome.cached;
  Alcotest.(check bool) "hit after" true (Outcome.is_hit (rf.Engine.access ~pid:0 100))

let test_rf_window_fetch () =
  let rf = Rf.engine (Rf.create ~rng:(rng ()) ()) in
  rf.Engine.set_window ~pid:0 ~back:64 ~fwd:64;
  let in_window = ref 0 and accessed_cached = ref 0 in
  for i = 0 to 199 do
    let addr = 100 + (i * 200) in
    let o = rf.Engine.access ~pid:0 addr in
    (match o.Outcome.fetched with
    | Some l when l >= addr - 64 && l <= addr + 64 -> incr in_window
    | Some _ -> Alcotest.fail "fetch outside window"
    | None -> incr in_window (* already-cached window line: no fill *));
    if o.Outcome.cached then incr accessed_cached
  done;
  Alcotest.(check int) "fills stay in window" 200 !in_window;
  (* P(cached) = 1/129 per miss: expect a handful at most. *)
  Alcotest.(check bool) "accessed line rarely cached" true (!accessed_cached < 15)

let test_rf_window_validation () =
  let rf = Rf.engine (Rf.create ~rng:(rng ()) ()) in
  Alcotest.check_raises "negative window"
    (Invalid_argument "Rf.set_window: negative window") (fun () ->
      rf.Engine.set_window ~pid:0 ~back:(-1) ~fwd:0)

let test_rf_per_pid_windows () =
  let t = Rf.create ~rng:(rng ()) () in
  let rf = Rf.engine t in
  rf.Engine.set_window ~pid:0 ~back:8 ~fwd:8;
  Alcotest.(check (pair int int)) "victim window" (8, 8) (Rf.window t ~pid:0);
  Alcotest.(check (pair int int)) "attacker stays demand" (0, 0)
    (Rf.window t ~pid:1);
  (* The attacker's own accesses behave conventionally. *)
  let o = rf.Engine.access ~pid:1 5000 in
  Alcotest.(check bool) "attacker demand fetch" true o.Outcome.cached

(* --- RE ---------------------------------------------------------------- *)

let test_re_periodic_eviction () =
  let t = Re.create ~interval:10 ~rng:(rng ()) () in
  let re = Re.engine t in
  for i = 0 to 99 do
    ignore (re.Engine.access ~pid:0 i)
  done;
  Alcotest.(check int) "10 periodic evictions" 10 (Re.random_evictions t)

let test_re_interval_one () =
  let t = Re.create ~interval:1 ~rng:(rng ()) () in
  let re = Re.engine t in
  for i = 0 to 9 do
    ignore (re.Engine.access ~pid:0 i)
  done;
  Alcotest.(check int) "every access" 10 (Re.random_evictions t)

let test_re_eviction_in_outcome () =
  let re =
    Re.engine
      (Re.create ~config:(Config.v ~line_bytes:64 ~lines:2 ~ways:1) ~interval:1
         ~rng:(rng ()) ())
  in
  ignore (re.Engine.access ~pid:0 0);
  ignore (re.Engine.access ~pid:0 1);
  (* With only two slots and an eviction per access, outcomes soon carry
     periodic evictions. *)
  let saw_extra = ref false in
  for i = 2 to 40 do
    let o = re.Engine.access ~pid:0 (i mod 2) in
    if Outcome.is_hit o && Outcome.eviction_count o > 0 then saw_extra := true
  done;
  Alcotest.(check bool) "periodic eviction reported on hits" true !saw_extra

let test_re_validation () =
  Alcotest.check_raises "interval"
    (Invalid_argument "Re.create: interval must be positive") (fun () ->
      ignore (Re.create ~interval:0 ~rng:(rng ()) ()))

(* --- Noisy / Timing ------------------------------------------------------ *)

let test_noisy () =
  let n = Noisy.create ~sigma:1.5 ~rng:(rng ()) () in
  Alcotest.(check (float 0.)) "sigma stored" 1.5 (Noisy.sigma n);
  let e = Noisy.engine n in
  Alcotest.(check (float 0.)) "engine sigma" 1.5 e.Engine.sigma;
  ignore (e.Engine.access ~pid:0 3);
  Alcotest.(check bool) "behaves like SA" true (e.Engine.peek ~pid:0 3);
  Alcotest.check_raises "negative sigma"
    (Invalid_argument "Noisy.create: negative sigma") (fun () ->
      ignore (Noisy.create ~sigma:(-1.) ~rng:(rng ()) ()))

let test_timing () =
  let r = rng () in
  Alcotest.(check (float 0.)) "hit time" 0.
    (Timing.observe r ~sigma:0. Outcome.Hit);
  Alcotest.(check (float 0.)) "miss time" 1.
    (Timing.observe r ~sigma:0. Outcome.Miss);
  Alcotest.(check bool) "classify miss" true
    (Timing.classify 0.9 = Outcome.Miss);
  Alcotest.(check bool) "classify hit" true (Timing.classify 0.1 = Outcome.Hit);
  Alcotest.(check (float 0.)) "no error without noise" 0.
    (Timing.error_probability ~sigma:0.);
  Alcotest.(check (float 1e-3)) "error at sigma 1" 0.3085
    (Timing.error_probability ~sigma:1.)

let test_timing_error_empirical () =
  let r = rng () in
  let sigma = 0.8 in
  let errors = ref 0 in
  let n = 20000 in
  for i = 1 to n do
    let event = if i mod 2 = 0 then Outcome.Hit else Outcome.Miss in
    let t = Timing.observe r ~sigma event in
    if Timing.classify t <> event then incr errors
  done;
  let expected = Timing.error_probability ~sigma in
  Alcotest.(check (float 0.02)) "empirical error rate" expected
    (float_of_int !errors /. float_of_int n)

(* --- Spec / Factory ------------------------------------------------------ *)

let test_spec_names () =
  Alcotest.(check int) "nine architectures" 9 (List.length Spec.all_paper);
  List.iter
    (fun spec ->
      match Spec.of_name (Spec.name spec) with
      | Some s ->
        Alcotest.(check string) "roundtrip" (Spec.name spec) (Spec.name s)
      | None -> Alcotest.failf "of_name failed for %s" (Spec.name spec))
    Spec.all_paper;
  Alcotest.(check (option string)) "unknown" None
    (Option.map Spec.name (Spec.of_name "bogus"))

let test_factory_builds_all () =
  let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 79) ] } in
  List.iter
    (fun spec ->
      let e = Factory.build spec scenario ~rng:(rng ()) in
      let o = e.Engine.access ~pid:0 5 in
      Alcotest.(check bool)
        (Spec.name spec ^ " first access misses")
        true (Outcome.is_miss o))
    Spec.all_paper

let test_factory_sp_homing () =
  let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 79) ] } in
  let e = Factory.build Spec.paper_sp scenario ~rng:(rng ()) in
  (* Attacker read-through on victim-homed line. *)
  let o = e.Engine.access ~pid:1 5 in
  Alcotest.(check bool) "read through" false o.Outcome.cached

let test_factory_rf_window () =
  let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 79) ] } in
  let e = Factory.build Spec.paper_rf scenario ~rng:(rng ()) in
  (* The victim's window is the paper's 129 lines: his misses usually do
     not cache the accessed line. *)
  let cached = ref 0 in
  for i = 0 to 99 do
    let o = e.Engine.access ~pid:0 (200 + (i * 300)) in
    if o.Outcome.cached then incr cached
  done;
  Alcotest.(check bool) "victim accesses rarely cached" true (!cached < 10);
  (* The attacker's accesses stay demand-fetched. *)
  let o = e.Engine.access ~pid:1 999999 in
  Alcotest.(check bool) "attacker demand" true o.Outcome.cached

let () =
  Alcotest.run "cache"
    [
      ( "geometry",
        [
          Alcotest.test_case "config" `Quick test_config;
          Alcotest.test_case "address" `Quick test_address;
          prop_address_roundtrip;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "invalid first" `Quick test_replacement_invalid_first;
          Alcotest.test_case "lru" `Quick test_replacement_lru;
          Alcotest.test_case "fifo" `Quick test_replacement_fifo;
          Alcotest.test_case "random uniform" `Quick test_replacement_random_uniform;
          Alcotest.test_case "range/list agree" `Quick
            test_replacement_range_list_agree;
          Alcotest.test_case "errors" `Quick test_replacement_errors;
        ] );
      ( "policy registry",
        [
          Alcotest.test_case "registry round-trip" `Quick test_policy_registry;
          Alcotest.test_case "state needs" `Quick test_policy_needs;
          Alcotest.test_case "victim semantics" `Quick test_policy_victims;
          Alcotest.test_case "tree-plru" `Quick test_policy_plru;
          Alcotest.test_case "errors" `Quick test_policy_errors;
        ] );
      ("counters", [ Alcotest.test_case "arithmetic" `Quick test_counters ]);
      ( "sa",
        [
          Alcotest.test_case "miss then hit" `Quick test_sa_miss_then_hit;
          Alcotest.test_case "cross-pid hit" `Quick test_sa_cross_pid_hit;
          Alcotest.test_case "eviction reported" `Quick test_sa_eviction_reported;
          Alcotest.test_case "peek non-mutating" `Quick test_sa_peek_nonmutating;
          Alcotest.test_case "flush" `Quick test_sa_flush;
          Alcotest.test_case "lru exact" `Quick test_sa_lru_exact;
          Alcotest.test_case "fully associative" `Quick test_sa_fully_associative;
          Alcotest.test_case "engine" `Quick test_sa_engine;
        ] );
      ( "sp",
        [
          Alcotest.test_case "basics" `Quick test_sp_basic;
          Alcotest.test_case "cross-partition read-through" `Quick
            test_sp_cross_partition_read_through;
          Alcotest.test_case "shared line hit" `Quick test_sp_shared_line_hit;
          Alcotest.test_case "no cross eviction" `Quick
            test_sp_attacker_cannot_evict_victim;
          Alcotest.test_case "validation" `Quick test_sp_validation;
        ] );
      ( "pl",
        [
          Alcotest.test_case "lock protects" `Quick test_pl_lock_protects;
          Alcotest.test_case "read-through on locked" `Quick
            test_pl_read_through_on_locked_victim;
          Alcotest.test_case "unlock owner only" `Quick test_pl_unlock_owner_only;
          Alcotest.test_case "flush respects lock" `Quick test_pl_flush_respects_lock;
          Alcotest.test_case "unlocked normal" `Quick test_pl_unlocked_behaves_normally;
        ] );
      ( "nomo",
        [
          Alcotest.test_case "geometry" `Quick test_nomo_geometry;
          Alcotest.test_case "non-monopolizable" `Quick
            test_nomo_attacker_cannot_monopolize;
          Alcotest.test_case "victim spills" `Quick
            test_nomo_victim_spills_when_exceeding;
          Alcotest.test_case "validation" `Quick test_nomo_validation;
        ] );
      ( "newcache",
        [
          Alcotest.test_case "hit after fill" `Quick test_newcache_hit_after_fill;
          Alcotest.test_case "pid isolation" `Quick test_newcache_pid_isolation;
          Alcotest.test_case "index conflict" `Quick test_newcache_index_conflict;
          Alcotest.test_case "flush own only" `Quick test_newcache_flush_own_only;
          Alcotest.test_case "cam consistency" `Quick test_newcache_cam_consistency;
          Alcotest.test_case "extra_bits overflow" `Quick
            test_newcache_extra_bits_overflow;
          Alcotest.test_case "eviction spread" `Quick
            test_newcache_random_eviction_spread;
        ] );
      ( "rp",
        [
          Alcotest.test_case "same pid hit" `Quick test_rp_same_pid_hit;
          Alcotest.test_case "pid isolation" `Quick test_rp_pid_isolation;
          Alcotest.test_case "bijection under load" `Quick
            test_rp_table_bijection_under_load;
          Alcotest.test_case "set identity" `Quick test_rp_set_identity;
          Alcotest.test_case "external miss randomizes" `Quick
            test_rp_external_miss_randomizes;
        ] );
      ( "rf",
        [
          Alcotest.test_case "demand fetch default" `Quick test_rf_demand_fetch_default;
          Alcotest.test_case "window fetch" `Quick test_rf_window_fetch;
          Alcotest.test_case "window validation" `Quick test_rf_window_validation;
          Alcotest.test_case "per-pid windows" `Quick test_rf_per_pid_windows;
        ] );
      ( "re",
        [
          Alcotest.test_case "periodic eviction" `Quick test_re_periodic_eviction;
          Alcotest.test_case "interval one" `Quick test_re_interval_one;
          Alcotest.test_case "eviction in outcome" `Quick test_re_eviction_in_outcome;
          Alcotest.test_case "validation" `Quick test_re_validation;
        ] );
      ( "noisy & timing",
        [
          Alcotest.test_case "noisy" `Quick test_noisy;
          Alcotest.test_case "timing" `Quick test_timing;
          Alcotest.test_case "timing error empirical" `Quick
            test_timing_error_empirical;
        ] );
      ( "spec & factory",
        [
          Alcotest.test_case "spec names" `Quick test_spec_names;
          Alcotest.test_case "factory builds all" `Quick test_factory_builds_all;
          Alcotest.test_case "sp homing" `Quick test_factory_sp_homing;
          Alcotest.test_case "rf window" `Quick test_factory_rf_window;
        ] );
    ]
