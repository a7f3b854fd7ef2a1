(* The PAS query server: protocol codec round-trips (the memo key's
   injectivity rests on them), decode refusing out-of-range overrides,
   canonical memo keys ([Protocol.canonical]: equivalence AND
   collision-freedom over the full matrix), router memoization, and
   forked end-to-end servers — including the backpressure and dedup
   paths.

   Fork discipline: every end-to-end test forks BEFORE this process
   ever touches the Domain pool (serial contexts only in the parent),
   so the child starts with clean pool state; children leave via
   [Unix._exit], never through the test runner's at_exit. *)

open Cachesec_serve
open Cachesec_cache
open Cachesec_analysis

let bits = Int64.bits_of_float

let float_eq a b = bits a = bits b

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- protocol codec -------------------------------------------------- *)

let sample_queries : Protocol.query list =
  [
    Ping;
    Stats;
    Shutdown;
    Pas
      {
        spec = Spec.paper_sa;
        config = Config.standard;
        attack = Attack_type.Prime_and_probe;
        cold = false;
      };
    Pas
      {
        spec = Spec.Noisy { ways = 4; policy = Policy.Lru; sigma = 0.1 +. 0.2 };
        config = Config.v ~line_bytes:32 ~lines:1024 ~ways:4;
        attack = Attack_type.Evict_and_time;
        cold = true;
      };
    Prepas { spec = Spec.paper_rp; k = 17; cold = false };
    Resilience
      { spec = Spec.paper_newcache; attack = Attack_type.Flush_and_reload;
        cold = false };
    Table
      { attack = Attack_type.Cache_collision; config = Config.standard;
        cold = true };
    Validate
      { spec = Spec.paper_rf; attack = Attack_type.Flush_and_reload; seed = 99;
        quick = true; cold = false };
  ]

let test_query_roundtrip () =
  List.iter
    (fun q ->
      match Protocol.decode_query (Protocol.encode_query q) with
      | Ok q' ->
        Alcotest.(check bool)
          (Printf.sprintf "round trip %s" (Protocol.encode_query q))
          true (q = q')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_queries

let test_reply_roundtrip () =
  let replies : Protocol.reply list =
    [
      Ok_;
      Overloaded;
      Error_ "duplicate argument ways";
      Pas_v 0.015625;
      Pas_v (0.1 +. 0.2);
      Prepas_v 0.89127753099463636;
      Resilience_v { verdict = "high"; pas = 7.75e-3 };
      Table_v [ ("sa", 1.0); ("rf", 0.0077519379844961239); ("re", 1e-300) ];
      Validate_v
        { pas = 0.69146246272399381; predicted_leak = true; recovered = false;
          separation = -3.25; agrees = false };
      Stats_v [ ("hits", 12.); ("uptime_s", 0.5) ];
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_reply (Protocol.encode_reply r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "round trip %s" (Protocol.encode_reply r))
          true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    replies;
  (* Floats survive bit-exactly, not just structurally. *)
  match Protocol.decode_reply (Protocol.encode_reply (Pas_v (0.1 +. 0.2))) with
  | Ok (Pas_v v) ->
    Alcotest.(check bool) "bit-exact float" true (float_eq v (0.1 +. 0.2))
  | _ -> Alcotest.fail "expected Pas_v"

(* Overrides outside the range the cache model accepts. *)
let out_of_range =
  [
    "resilience cache=sp attack=prime-and-probe partitions=0";
    "pas cache=sp attack=prime-and-probe partitions=0";
    "pas cache=sp attack=prime-and-probe partitions=1";
    "pas cache=sp attack=prime-and-probe partitions=3";
    "pas cache=sp attack=prime-and-probe partitions=-2";
    "pas cache=sp attack=prime-and-probe partitions=128";  (* > 64 sets *)
    "pas cache=sp attack=prime-and-probe ways=16 lines=64 partitions=8";
    "pas cache=nomo attack=prime-and-probe reserved=-1";
    "validate cache=nomo attack=cache-collision reserved=8";
    "validate cache=nomo attack=cache-collision ways=2";  (* reserved=2 *)
    "pas cache=rf attack=cache-collision back=-3";
    "pas cache=rf attack=cache-collision fwd=-1";
    "validate cache=re attack=prime-and-probe interval=0";
    "validate cache=re attack=prime-and-probe interval=-5";
    "pas cache=noisy attack=prime-and-probe sigma=inf";
    "pas cache=noisy attack=prime-and-probe sigma=-inf";
    "pas cache=noisy attack=prime-and-probe sigma=nan";
    "pas cache=noisy attack=prime-and-probe sigma=-0.5";
    "validate cache=sa attack=prime-and-probe ways=3";  (* 512 lines *)
    "resilience cache=sa attack=prime-and-probe ways=1024";
  ]

let test_decode_errors () =
  let bad =
    [
      "";
      "frobnicate cache=sa";
      "pas attack=prime-and-probe";  (* missing cache *)
      "pas cache=sa";  (* missing attack *)
      "pas cache=zz attack=prime-and-probe";
      "pas cache=sa attack=warp-drive";
      "pas cache=sa attack=prime-and-probe ways=8 ways=8";  (* duplicate *)
      "pas cache=sa attack=prime-and-probe bogusflag";
      "pas cache=sa attack=prime-and-probe nbits=3";  (* wrong arch *)
      "pas cache=newcache attack=prime-and-probe policy=lru";
      "pas cache=sa attack=prime-and-probe lines=100";  (* not a pow2 *)
      "prepas cache=sa k=minus";
      "ping cold";
    ]
    @ out_of_range
  in
  List.iter
    (fun line ->
      match Protocol.decode_query line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error for %S" line)
    bad

(* The decoder pinned over a generated corpus: every verb (and an
   unknown one) x every paper cache name (and an unknown one) x no, one
   and two overrides, each field taking valid, out-of-range, non-numeric
   and inapplicable values. The digest covers each line with its
   decoded wire form or its exact error, so a change to decoding, to
   the canonical spelling or to an error message moves it. *)
let corpus_fields =
  [
    ("policy", [ "lru"; "plru"; "random"; "clock"; "" ]);
    ("ways", [ "1"; "4"; "8"; "3"; "0"; "-2"; "1024"; "x" ]);
    ("nbits", [ "0"; "4"; "52"; "53"; "-1"; "x" ]);
    ("partitions", [ "2"; "4"; "0"; "1"; "3"; "128"; "x" ]);
    ("reserved", [ "0"; "2"; "7"; "8"; "-1"; "x" ]);
    ("back", [ "0"; "32"; "-3"; "x" ]);
    ("fwd", [ "0"; "64"; "-1"; "1.5" ]);
    ("interval", [ "1"; "20"; "0"; "-5"; "x" ]);
    ("sigma", [ "0"; "-0"; "0.5"; "1e300"; "-0.5"; "inf"; "nan"; "x" ]);
    ("lines", [ "64"; "1024"; "100"; "0"; "x" ]);
    ("lb", [ "32"; "0"; "x" ]);
    ("k", [ "8"; "-1"; "x" ]);
  ]

let decoder_corpus () =
  let overrides =
    let single =
      List.concat_map
        (fun (k, vs) -> List.map (fun v -> [ k ^ "=" ^ v ]) vs)
        corpus_fields
    in
    let rec pairs = function
      | [] -> []
      | (k, vs) :: rest ->
        List.concat_map
          (fun v ->
            List.concat_map
              (fun (k', vs') ->
                List.map (fun v' -> [ k ^ "=" ^ v; k' ^ "=" ^ v' ]) vs')
              rest)
          vs
        @ pairs rest
    in
    ([] :: single) @ pairs corpus_fields
  in
  let verbs =
    [ "pas"; "prepas"; "resilience"; "table"; "validate"; "ping"; "stats";
      "shutdown"; "frob" ]
  in
  let caches = List.map Spec.name Spec.all_paper @ [ "zz" ] in
  let attacks = List.map Attack_type.name Attack_type.all in
  let n = ref 0 in
  List.concat_map
    (fun verb ->
      List.concat_map
        (fun cache ->
          List.map
            (fun ovs ->
              incr n;
              let attack =
                match List.nth_opt attacks (!n mod 5) with
                | Some a -> [ "attack=" ^ a ]
                | None -> []
              in
              let cold = if !n mod 7 = 0 then [ "cold" ] else [] in
              String.concat " "
                ((verb :: ("cache=" ^ cache) :: ovs) @ attack @ cold))
            overrides)
        caches)
    verbs

let test_decoder_corpus () =
  let corpus = decoder_corpus () in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      (match Protocol.decode_query line with
      | Ok q -> Buffer.add_string b ("\tOk " ^ Protocol.encode_query q)
      | Error msg -> Buffer.add_string b ("\tError " ^ msg));
      Buffer.add_char b '\n')
    corpus;
  Alcotest.(check int) "corpus lines" 173340 (List.length corpus);
  Alcotest.(check string) "corpus digest" "24381782165ae1aa502c5103105891d7"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Queries the decoder accepts: every verb, all nine architectures with
   in-range overrides, several geometries, and floats that a lossy
   printer would merge ([0.1 +. 0.2] vs [0.3], [-0.] vs [0.]). *)
let gen_query : Protocol.query QCheck.Gen.t =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun e -> 1 lsl e) (int_range lo hi) in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let sigma =
    oneof
      [ oneofl [ 0.; -0.; 0.1 +. 0.2; 0.3; 1.; 1e-300; 5e-324; 1e300 ];
        float_bound_inclusive 4. ]
  in
  let spec ~lines ~ways =
    let* policy = oneofl Policy.all in
    oneof
      [
        return (Spec.Sa { ways; policy });
        map
          (fun partitions -> Spec.Sp { ways; policy; partitions })
          (pow2 1 (log2 (lines / ways)));
        return (Spec.Pl { ways; policy });
        map
          (fun reserved -> Spec.Nomo { ways; policy; reserved })
          (int_range 0 (ways - 1));
        map
          (fun extra_bits -> Spec.Newcache { extra_bits })
          (int_range 0 (Newcache.max_extra_bits ~lines));
        return (Spec.Rp { ways; policy });
        map2
          (fun back fwd -> Spec.Rf { ways; policy; back; fwd })
          (int_range 0 512) (int_range 0 512);
        map (fun interval -> Spec.Re { ways; policy; interval }) (int_range 1 1000);
        map (fun sigma -> Spec.Noisy { ways; policy; sigma }) sigma;
      ]
  in
  let attack = oneofl Attack_type.all in
  let* cold = bool in
  let* ways = pow2 0 4 in
  let* lines = pow2 6 12 and* line_bytes = pow2 4 7 in
  let standard = Config.standard.Config.lines in
  oneof
    [
      oneofl [ Protocol.Ping; Stats; Shutdown ];
      (let* spec = spec ~lines ~ways and* attack = attack in
       let ways = match spec with Spec.Newcache _ -> 8 | _ -> ways in
       return
         (Protocol.Pas
            { spec; config = Config.v ~line_bytes ~lines ~ways; attack; cold }));
      (let* spec = spec ~lines:standard ~ways and* k = int_range 0 4096 in
       return (Protocol.Prepas { spec; k; cold }));
      (let* spec = spec ~lines:standard ~ways and* attack = attack in
       return (Protocol.Resilience { spec; attack; cold }));
      (let* attack = attack in
       return
         (Protocol.Table
            { attack; config = Config.v ~line_bytes ~lines ~ways; cold }));
      (let* spec = spec ~lines:standard ~ways
       and* attack = attack
       and* seed = oneof [ int; oneofl [ min_int; max_int; 0 ] ]
       and* quick = bool in
       return (Protocol.Validate { spec; attack; seed; quick; cold }));
    ]

(* [decode_query (encode_query q) = Ok q] with floats compared by bits:
   the memo key ([Protocol.canonical], the line without [cold]) is
   injective because of it. *)
let test_query_roundtrip_generated =
  let same_bits (a : Protocol.query) (b : Protocol.query) =
    match (a, b) with
    | ( (Pas { spec = Spec.Noisy { sigma = x; _ }; _ }
        | Prepas { spec = Spec.Noisy { sigma = x; _ }; _ }
        | Resilience { spec = Spec.Noisy { sigma = x; _ }; _ }
        | Validate { spec = Spec.Noisy { sigma = x; _ }; _ }),
        ( Pas { spec = Spec.Noisy { sigma = y; _ }; _ }
        | Prepas { spec = Spec.Noisy { sigma = y; _ }; _ }
        | Resilience { spec = Spec.Noisy { sigma = y; _ }; _ }
        | Validate { spec = Spec.Noisy { sigma = y; _ }; _ }) ) ->
      float_eq x y
    | _ -> true
  in
  qtest ~count:2000 "query round trip over generated queries"
    (QCheck.make ~print:Protocol.encode_query gen_query)
    (fun q ->
      match Protocol.decode_query (Protocol.encode_query q) with
      | Ok q' -> q = q' && same_bits q q'
      | Error _ -> false)

let test_encode_ways_mismatch () =
  (* The pas wire form carries a single ways= argument; a Pas whose
     config disagrees with the spec cannot round-trip and must refuse
     to encode rather than silently ask a different question. *)
  let q : Protocol.query =
    Pas
      {
        spec = Spec.Sa { ways = 8; policy = Policy.Lru };
        config = Config.v ~line_bytes:64 ~lines:512 ~ways:4;
        attack = Attack_type.Prime_and_probe;
        cold = false;
      }
  in
  match Protocol.encode_query q with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "expected Invalid_argument, got %S" s

let test_frames_incremental () =
  let payloads = [ "ping"; "pas cache=sa attack=prime-and-probe\nstats"; "" ] in
  let wire =
    String.concat ""
      (List.map (fun p -> Bytes.to_string (Protocol.frame p)) payloads)
  in
  let fr = Protocol.Frames.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      match Protocol.Frames.feed fr ~bytes:(Bytes.make 1 c) ~len:1 with
      | ps, None -> got := !got @ ps
      | _, Some e -> Alcotest.failf "feed error: %s" e)
    wire;
  Alcotest.(check (list string)) "byte-at-a-time reassembly" payloads !got;
  Alcotest.(check int) "no leftover" 0 (Protocol.Frames.pending_bytes fr);
  (* An oversized declared length is an unrecoverable stream error,
     reported after the frames completed before it, and again on every
     later feed. *)
  let fr = Protocol.Frames.create () in
  let wire = Bytes.cat (Protocol.frame "ping") (Bytes.of_string "\xff\xff\xff\xff") in
  (match Protocol.Frames.feed fr ~bytes:wire ~len:(Bytes.length wire) with
  | [ "ping" ], Some _ -> ()
  | ps, None ->
    Alcotest.failf "oversized frame accepted after %d frames" (List.length ps)
  | ps, Some _ -> Alcotest.failf "%d frames before the error, not 1" (List.length ps));
  match Protocol.Frames.feed fr ~bytes:(Protocol.frame "ping") ~len:8 with
  | [], Some _ -> ()
  | _ -> Alcotest.fail "a broken stream accepted more bytes"

(* A frame trickled in 1 KiB reads costs in proportion to its size, so a
   slow client cannot stall the loop: a feed that re-copied its pending
   bytes on every read would allocate ~2000x this frame. *)
let test_frames_trickle () =
  let payload = String.init Protocol.max_frame (fun i -> Char.chr (i land 0xff)) in
  let wire = Protocol.frame payload in
  let fr = Protocol.Frames.create () in
  let chunk = Bytes.create 1024 in
  let got = ref [] in
  let before = Gc.allocated_bytes () in
  let off = ref 0 in
  while !off < Bytes.length wire do
    let len = min 1024 (Bytes.length wire - !off) in
    Bytes.blit wire !off chunk 0 len;
    (match Protocol.Frames.feed fr ~bytes:chunk ~len with
    | ps, None -> got := !got @ ps
    | _, Some e -> Alcotest.failf "feed error: %s" e);
    off := !off + len
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "one frame" 1 (List.length !got);
  Alcotest.(check bool) "payload reassembled" true (!got = [ payload ]);
  Alcotest.(check int) "no leftover" 0 (Protocol.Frames.pending_bytes fr);
  if allocated > 2. *. float_of_int Protocol.max_frame then
    Alcotest.failf "feeding a %d-byte frame allocated %.0f bytes"
      Protocol.max_frame allocated

(* --- canonical keys --------------------------------------------------- *)

let key_of_line line =
  match Protocol.decode_query line with
  | Ok q -> (
    match Protocol.canonical q with
    | Some k -> k
    | None -> Alcotest.failf "no key for %S" line)
  | Error e -> Alcotest.failf "decode %S: %s" line e

let test_key_equivalence () =
  let same a b =
    Alcotest.(check string)
      (Printf.sprintf "%S == %S" a b)
      (key_of_line a) (key_of_line b)
  in
  (* Defaults expanded vs spelled out. *)
  same "pas cache=sa attack=prime-and-probe"
    "pas cache=sa ways=8 policy=random lb=64 lines=512 attack=prime-and-probe";
  same "prepas cache=rp" "prepas cache=rp k=32 ways=8 policy=random";
  same "table attack=cache-collision"
    "table attack=cache-collision ways=8 lb=64 lines=512";
  (* Numeric spellings of the same value. *)
  same "pas cache=noisy sigma=1 attack=evict-and-time"
    "pas cache=noisy sigma=1.0 attack=evict-and-time";
  same "validate cache=sa attack=flush-and-reload seed=42 quick=1"
    "validate cache=sa attack=flush-and-reload";
  (* Argument order is irrelevant. *)
  same "pas cache=sa attack=prime-and-probe policy=lru"
    "pas policy=lru attack=prime-and-probe cache=sa";
  (* The cold flag never reaches the key. *)
  same "table attack=cache-collision" "table attack=cache-collision cold"

let test_key_distinctness () =
  (* Sweep the full matrix plus parameter variants; every (semantic)
     question must get its own key. *)
  let lines = ref [] in
  let add l = lines := l :: !lines in
  List.iter
    (fun spec ->
      let c = Spec.name spec in
      List.iter
        (fun attack ->
          let a = Attack_type.name attack in
          add (Printf.sprintf "pas cache=%s attack=%s" c a);
          add (Printf.sprintf "resilience cache=%s attack=%s" c a);
          add (Printf.sprintf "validate cache=%s attack=%s" c a);
          add (Printf.sprintf "validate cache=%s attack=%s seed=43" c a);
          add (Printf.sprintf "validate cache=%s attack=%s quick=0" c a))
        Attack_type.all;
      add (Printf.sprintf "prepas cache=%s" c);
      add (Printf.sprintf "prepas cache=%s k=8" c))
    Spec.all_paper;
  List.iter
    (fun a ->
      add (Printf.sprintf "table attack=%s" (Attack_type.name a));
      add (Printf.sprintf "table attack=%s lines=1024" (Attack_type.name a));
      add (Printf.sprintf "table attack=%s ways=4" (Attack_type.name a)))
    Attack_type.all;
  (* Policy / parameter overrides of one architecture. Every non-default
     registry policy must key apart ([policy=random] is the default and
     canonicalizes onto the bare matrix line above, so it is skipped). *)
  List.iter
    (fun p ->
      if p <> Policy.Random then
        add
          (Printf.sprintf "pas cache=sa attack=prime-and-probe policy=%s"
             (Policy.to_string p)))
    Policy.all;
  add "pas cache=sa attack=prime-and-probe ways=4";
  add "pas cache=sa attack=prime-and-probe lb=32";
  add "pas cache=noisy attack=prime-and-probe sigma=0.5";
  add "pas cache=newcache attack=prime-and-probe nbits=6";
  add "pas cache=sp attack=prime-and-probe partitions=4";
  add "pas cache=rf attack=prime-and-probe back=32";
  add "pas cache=re attack=prime-and-probe interval=20";
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun line ->
      let k = key_of_line line in
      (match Hashtbl.find_opt tbl k with
      | Some other ->
        Alcotest.failf "key collision: %S and %S -> %s" line other k
      | None -> ());
      Hashtbl.add tbl k line)
    !lines;
  Alcotest.(check int)
    "every question keyed" (List.length !lines) (Hashtbl.length tbl)

(* Key injectivity over the enlarged policy registry: any two distinct
   (architecture, policy, attack) questions — policy spelled explicitly,
   so the default never aliases — must map to distinct memo keys, and
   equal questions to equal keys. *)
let policied_specs =
  List.filter (fun s -> Spec.policy_of s <> None) Spec.all_paper

let test_key_policy_injective =
  let question =
    QCheck.(
      triple
        (int_bound (List.length policied_specs - 1))
        (int_bound (List.length Policy.all - 1))
        (int_bound (List.length Attack_type.all - 1)))
  in
  qtest ~count:400 "ckey injective over (arch, policy, attack)"
    (QCheck.pair question question)
    (fun (t1, t2) ->
      let line (ci, pi, ai) =
        Printf.sprintf "pas cache=%s policy=%s attack=%s"
          (Spec.name (List.nth policied_specs ci))
          (Policy.to_string (List.nth Policy.all pi))
          (Attack_type.name (List.nth Attack_type.all ai))
      in
      let k1 = key_of_line (line t1) and k2 = key_of_line (line t2) in
      if t1 = t2 then String.equal k1 k2 else not (String.equal k1 k2))

let test_policy_spellings () =
  (* Every registry spelling decodes on a policied architecture... *)
  List.iter
    (fun p ->
      let line =
        Printf.sprintf "pas cache=sa attack=prime-and-probe policy=%s"
          (Policy.to_string p)
      in
      match Protocol.decode_query line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "decode %S: %s" line e)
    Policy.all;
  (* ...and an unknown one is refused with the full menu spelled out. *)
  match
    Protocol.decode_query "pas cache=sa attack=prime-and-probe policy=clock"
  with
  | Ok _ -> Alcotest.fail "policy=clock decoded"
  | Error e ->
    let mentions needle =
      let nl = String.length needle and el = String.length e in
      let rec go i = i + nl <= el && (String.sub e i nl = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun p ->
        let s = Policy.to_string p in
        if not (mentions s) then
          Alcotest.failf "error %S does not list policy %s" e s)
      Policy.all

(* --- memo table --------------------------------------------------------- *)

let test_memo_table () =
  let m = Memo.create ~max_entries:3 () in
  Memo.add m "a" "1";
  Memo.add m "b" "2";
  Memo.add m "a" "1b";  (* overwrite in place, no new slot *)
  Alcotest.(check (option string)) "overwrite" (Some "1b") (Memo.find m "a");
  Alcotest.(check int) "size 2" 2 (Memo.size m);
  Memo.add m "c" "3";
  Memo.add m "d" "4";  (* evicts oldest ("a") *)
  Alcotest.(check int) "bounded" 3 (Memo.size m);
  Alcotest.(check (option string)) "oldest evicted" None (Memo.find m "a");
  Alcotest.(check (option string)) "newest present" (Some "4") (Memo.find m "d");
  (* A bound below one entry is refused, not rounded up to one. *)
  List.iter
    (fun max_entries ->
      match Memo.create ~max_entries () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "max_entries %d accepted" max_entries)
    [ 0; -1 ];
  let m = Memo.create ~max_entries:1 () in
  Memo.add m "a" "1";
  Memo.add m "b" "2";
  Alcotest.(check int) "one entry" 1 (Memo.size m);
  Alcotest.(check (option string)) "last kept" (Some "2") (Memo.find m "b")

(* --- router ----------------------------------------------------------- *)

(* The counters as a client reads them: a [stats] line routed like any
   other. *)
let stats_of_router r =
  match Router.route r "stats" with
  | Router.Now enc -> (
    match Protocol.decode_reply enc with
    | Ok (Stats_v kvs) -> kvs
    | _ -> Alcotest.failf "stats reply %S" enc)
  | _ -> Alcotest.fail "stats answers now"

let stat kvs name =
  match List.assoc_opt name kvs with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "missing stat %s" name

let test_router_closed_form () =
  let r = Router.create () in
  let line = "table attack=prime-and-probe" in
  let direct =
    List.map
      (fun row -> (Spec.name row.Pas_tables.spec, row.Pas_tables.pas))
      (Pas_tables.rows_for ~config:Config.standard Attack_type.Prime_and_probe
         ())
  in
  (match Router.route r line with
  | Router.Now enc -> (
    match Protocol.decode_reply enc with
    | Ok (Table_v rows) ->
      Alcotest.(check int) "nine rows" 9 (List.length rows);
      List.iter2
        (fun (a, p) (a', p') ->
          Alcotest.(check string) "arch" a' a;
          Alcotest.(check bool) (Printf.sprintf "pas %s bit-exact" a) true
            (float_eq p p'))
        rows direct
    | _ -> Alcotest.fail "expected table reply")
  | _ -> Alcotest.fail "closed form should answer now");
  let s = stats_of_router r in
  Alcotest.(check int) "one miss" 1 (stat s "misses");
  Alcotest.(check int) "one compute" 1 (stat s "closed");
  (* Second route: memo hit on the line as sent, no recompute. *)
  (match Router.route r line with
  | Router.Now _ -> ()
  | _ -> Alcotest.fail "hit should answer now");
  let s = stats_of_router r in
  Alcotest.(check int) "one hit" 1 (stat s "hits");
  Alcotest.(check int) "still one compute" 1 (stat s "closed");
  (* A differently-spelled equivalent canonicalizes to the same memo
     entry: hit, still no recompute. *)
  (match
     Router.route r
       "table ways=8 lb=64 lines=512 attack=prime-and-probe"
   with
  | Router.Now _ -> ()
  | _ -> Alcotest.fail "equivalent spelling should hit");
  let s = stats_of_router r in
  Alcotest.(check int) "two hits" 2 (stat s "hits");
  Alcotest.(check int) "compute count unchanged" 1 (stat s "closed");
  (* Cold bypasses the memo in both directions. *)
  (match Router.route r "table attack=prime-and-probe cold" with
  | Router.Now _ -> ()
  | _ -> Alcotest.fail "cold closed form answers now");
  let s = stats_of_router r in
  Alcotest.(check int) "cold recomputed" 2 (stat s "closed");
  Alcotest.(check int) "cold not a hit" 2 (stat s "hits");
  Alcotest.(check int) "memo size stable" 1 (stat (stats_of_router r) "memo_size")

let test_router_sim_memoization () =
  let r = Router.create () in
  let line = "validate cache=sa attack=flush-and-reload seed=5 quick=1" in
  let enc, key =
    match Router.route r line with
    | Router.Sim { key = Some key; run } -> (run (), key)
    | _ -> Alcotest.fail "validate misses to Sim"
  in
  (* The campaign is bit-identical to a direct serial Validation.cell
     under the same (seed, quick). *)
  let ctx = Cachesec_runtime.Run.make ~seed:5 ~quick:true () in
  let cell =
    Cachesec_experiments.Validation.cell ctx Spec.paper_sa
      Attack_type.Flush_and_reload
  in
  (match Protocol.decode_reply enc with
  | Ok (Validate_v v) ->
    Alcotest.(check bool) "pas bit-exact" true
      (float_eq v.pas cell.Cachesec_experiments.Validation.pas);
    Alcotest.(check bool) "separation bit-exact" true
      (float_eq v.separation cell.Cachesec_experiments.Validation.separation);
    Alcotest.(check bool) "recovered" cell.Cachesec_experiments.Validation.recovered
      v.recovered;
    Alcotest.(check bool) "agrees" cell.Cachesec_experiments.Validation.agrees
      v.agrees
  | _ -> Alcotest.fail "expected validate reply");
  Router.note_sim_done r ~key:(Some key) enc;
  (* Now memoized: the same question answers instantly. *)
  (match Router.route r line with
  | Router.Now enc' -> Alcotest.(check string) "memoized reply" enc enc'
  | _ -> Alcotest.fail "second route should hit");
  (* And so does an equivalent spelling. *)
  match Router.route r "validate cache=sa attack=flush-and-reload seed=5" with
  | Router.Now enc' -> Alcotest.(check string) "canonical hit" enc enc'
  | _ -> Alcotest.fail "equivalent spelling should hit"

(* [nbits] sets Newcache's logical cache to [lines lsl nbits] lines. A
   value for which that shift overflows names no cache the engine could
   simulate: the router must answer it with an error reply, never run or
   memoize a campaign for it. *)
let test_nbits_range () =
  let max = Newcache.max_extra_bits ~lines:512 in
  Alcotest.(check int) "bound for the standard 512 lines" 52 max;
  let validate n =
    Printf.sprintf "validate cache=newcache attack=cache-collision nbits=%d" n
  in
  List.iter
    (fun n ->
      match Protocol.decode_query (validate n) with
      | Ok (Validate { spec = Spec.Newcache { extra_bits }; _ }) ->
        Alcotest.(check int) "nbits carried" n extra_bits
      | _ -> Alcotest.failf "nbits=%d should decode" n)
    [ 0; 4; max ];
  let r = Router.create () in
  List.iter
    (fun n ->
      match Router.route r (validate n) with
      | Router.Now enc -> (
        match Protocol.decode_reply enc with
        | Ok (Error_ _) -> ()
        | _ -> Alcotest.failf "nbits=%d: expected an error reply" n)
      | _ -> Alcotest.failf "nbits=%d must not reach a simulation" n)
    [ -1; max + 1; 54; 62; 63; 64; 70 ];
  Alcotest.(check int) "nothing memoized" 0 (stat (stats_of_router r) "memo_size");
  (* The bound follows the geometry a pas query names. *)
  let pas ~lines n =
    Protocol.decode_query
      (Printf.sprintf "pas cache=newcache attack=prime-and-probe lines=%d nbits=%d"
         lines n)
  in
  Alcotest.(check bool) "1024 lines, nbits 51" true
    (Result.is_ok (pas ~lines:1024 51));
  Alcotest.(check bool) "1024 lines, nbits 52" true
    (Result.is_error (pas ~lines:1024 52))

(* A question the cache model refuses gets an error reply: never a
   computed answer, a memo entry or a campaign. *)
let test_out_of_range_overrides () =
  let r = Router.create () in
  List.iter
    (fun line ->
      match Router.route r line with
      | Router.Now enc when String.starts_with ~prefix:"error " enc -> ()
      | Router.Now enc -> Alcotest.failf "%S answered %S" line enc
      | Router.Sim _ -> Alcotest.failf "%S became a campaign" line
      | Router.Quit _ -> Alcotest.failf "%S quit" line)
    out_of_range;
  let s = stats_of_router r in
  Alcotest.(check int) "nothing computed" 0 (stat s "closed");
  Alcotest.(check int) "no memo miss" 0 (stat s "misses");
  Alcotest.(check int) "nothing memoized" 0 (stat (stats_of_router r) "memo_size")

(* Error replies quote query bytes, and a query is arbitrary bytes: every
   [error] reply the router gives must still be one line of UTF-8 text.
   Lines are random bytes, or a query prefix followed by random bytes. *)
let test_error_replies_printable =
  let prefixes =
    [ ""; "pas cache="; "pas cache=sa attack="; "prepas cache=rp k=";
      "validate cache=sa attack=flush-and-reload seed="; "table attack=" ]
  in
  let line =
    QCheck.Gen.(
      map2 ( ^ ) (oneofl prefixes)
        (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24)))
  in
  let r = Router.create () in
  qtest ~count:500 "error replies are printable"
    (QCheck.make ~print:String.escaped line)
    (fun line ->
      match Router.route r line with
      | Router.Now enc when String.starts_with ~prefix:"error" enc ->
        String.is_valid_utf_8 enc
        && not (String.exists (fun c -> c = '\000' || c = '\r' || c = '\n') enc)
      | _ -> true)

(* --- end-to-end (forked server) -------------------------------------- *)

(* Typed round trip: encode the batch, decode every reply. *)
let request c queries =
  List.map
    (fun line ->
      match Protocol.decode_reply line with
      | Ok r -> r
      | Error msg -> Alcotest.failf "undecodable reply %S: %s" line msg)
    (Client.round_trip_raw c (List.map Protocol.encode_query queries))

let request1 c q =
  match request c [ q ] with [ r ] -> r | _ -> Alcotest.fail "one reply"

let fork_server ?(workers = 0) ?(queue_bound = Server.default_queue_bound)
    ~socket () =
  if Sys.file_exists socket then Sys.remove socket;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      match
        Server.run { Server.socket; workers; queue_bound; max_memo = 1024 }
      with
      | Ok () -> 0
      | Error _ -> 1
      | exception _ -> 2
    in
    Unix._exit code
  | pid -> pid

let kill_server pid socket =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  try Sys.remove socket with Sys_error _ -> ()

let with_server ?workers ?queue_bound ~socket f =
  let pid = fork_server ?workers ?queue_bound ~socket () in
  Fun.protect
    ~finally:(fun () -> kill_server pid socket)
    (fun () ->
      let c = Client.connect_retry socket in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c pid))

let test_e2e_inline () =
  let socket = "test-serve-e2e.sock" in
  with_server ~socket (fun c pid ->
      (match request1 c Protocol.Ping with
      | Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "ping");
      (* Closed forms match direct computation bit-exactly. *)
      (match
         request1 c
           (Protocol.Pas
              { spec = Spec.paper_sa; config = Config.standard;
                attack = Attack_type.Prime_and_probe; cold = false })
       with
      | Protocol.Pas_v v ->
        Alcotest.(check bool) "pas matches direct" true
          (float_eq v
             (Attack_models.pas ~config:Config.standard
                Attack_type.Prime_and_probe Spec.paper_sa ()))
      | _ -> Alcotest.fail "pas reply");
      (match
         request1 c (Protocol.Prepas { spec = Spec.paper_rp; k = 32; cold = false })
       with
      | Protocol.Prepas_v v ->
        Alcotest.(check bool) "prepas matches direct" true
          (float_eq v (Prepas.for_spec Spec.paper_rp ~k:32))
      | _ -> Alcotest.fail "prepas reply");
      (* Sim-backed cell: bit-identical to a direct serial run. *)
      let seed = 11 in
      (match
         request1 c
           (Protocol.Validate
              { spec = Spec.paper_sa; attack = Attack_type.Flush_and_reload;
                seed; quick = true; cold = false })
       with
      | Protocol.Validate_v v ->
        let ctx = Cachesec_runtime.Run.make ~seed ~quick:true () in
        let cell =
          Cachesec_experiments.Validation.cell ctx Spec.paper_sa
            Attack_type.Flush_and_reload
        in
        Alcotest.(check bool) "validate pas bit-exact" true
          (float_eq v.pas cell.Cachesec_experiments.Validation.pas);
        Alcotest.(check bool) "validate separation bit-exact" true
          (float_eq v.separation
             cell.Cachesec_experiments.Validation.separation)
      | _ -> Alcotest.fail "validate reply");
      (* Pipelined frames answer in order. *)
      (match
         request c
           [ Protocol.Stats;
             Protocol.Prepas { spec = Spec.paper_rp; k = 32; cold = false };
             Protocol.Ping ]
       with
      | [ Protocol.Stats_v _; Protocol.Prepas_v _; Protocol.Ok_ ] -> ()
      | _ -> Alcotest.fail "batch order");
      (* While the server lives, preflight refuses the socket. *)
      (match Server.preflight ~socket with
      | Error msg ->
        Alcotest.(check bool) "already-listening error" true
          (String.length msg > 0)
      | Ok () -> Alcotest.fail "preflight should refuse a live socket");
      (* Clean shutdown: ok reply, child exit 0, socket file removed. *)
      (match request1 c Protocol.Shutdown with
      | Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "shutdown reply");
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "server exit code");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket))

let test_e2e_overloaded () =
  let socket = "test-serve-over.sock" in
  (* queue_bound = 0: every simulation is refused — closed forms still
     answer. *)
  with_server ~workers:1 ~queue_bound:0 ~socket
    (fun c _pid ->
      (match
         request c
           [ Protocol.Validate
               { spec = Spec.paper_sa; attack = Attack_type.Flush_and_reload;
                 seed = 3; quick = true; cold = false };
             Protocol.Prepas { spec = Spec.paper_sa; k = 8; cold = false } ]
       with
      | [ Protocol.Overloaded; Protocol.Prepas_v _ ] -> ()
      | _ -> Alcotest.fail "expected overloaded + prepas");
      match request1 c Protocol.Stats with
      | Protocol.Stats_v kvs ->
        Alcotest.(check int) "overloaded counted" 1 (stat kvs "overloaded")
      | _ -> Alcotest.fail "stats reply")

let test_e2e_dedup () =
  let socket = "test-serve-dedup.sock" in
  with_server ~workers:1 ~queue_bound:8 ~socket
    (fun c _pid ->
      let v seed : Protocol.query =
        Validate
          { spec = Spec.paper_sa; attack = Attack_type.Flush_and_reload; seed;
            quick = true; cold = false }
      in
      (* Two identical queries in one frame: the second joins the first
         campaign in flight; both waiters see the same reply. *)
      (match request c [ v 7; v 7 ] with
      | [ r1; r2 ] ->
        Alcotest.(check bool) "joined waiters share the result" true (r1 = r2)
      | _ -> Alcotest.fail "two replies");
      (match request1 c Protocol.Stats with
      | Protocol.Stats_v kvs ->
        Alcotest.(check int) "one campaign ran" 1 (stat kvs "sim_runs");
        Alcotest.(check int) "one dedup join" 1 (stat kvs "dedup_joins");
        Alcotest.(check int) "two misses" 2 (stat kvs "misses")
      | _ -> Alcotest.fail "stats reply");
      (* The memoized answer now serves a third asker instantly. *)
      match request c [ v 7; Protocol.Stats ] with
      | [ _; Protocol.Stats_v kvs ] ->
        Alcotest.(check int) "memo hit" 1 (stat kvs "hits");
        Alcotest.(check int) "still one campaign" 1 (stat kvs "sim_runs")
      | _ -> Alcotest.fail "third ask")

let test_e2e_cold_and_keyed () =
  (* A cold campaign and a keyed one for the same question, plus a
     duplicate of the keyed one, in one frame: the cold campaign runs on
     its own (never joined), the duplicate joins the keyed campaign,
     and only the keyed answer is memoized. *)
  let socket = "test-serve-cold.sock" in
  let keyed = "validate cache=sa attack=flush-and-reload seed=13 quick=1" in
  let lines = [ keyed ^ " cold"; keyed; keyed ] in
  let direct =
    List.map
      (fun line ->
        match Router.route (Router.create ()) line with
        | Router.Sim { run; _ } -> run ()
        | _ -> Alcotest.failf "%S should need a campaign" line)
      lines
  in
  with_server ~workers:1 ~queue_bound:8 ~socket (fun c _pid ->
      Alcotest.(check (list string)) "replies match the in-process router"
        direct (Client.round_trip_raw c lines);
      match request1 c Protocol.Stats with
      | Protocol.Stats_v kvs ->
        Alcotest.(check int) "two campaigns ran" 2 (stat kvs "sim_runs");
        Alcotest.(check int) "one dedup join" 1 (stat kvs "dedup_joins");
        Alcotest.(check int) "cold answer not memoized" 1
          (stat kvs "memo_size")
      | _ -> Alcotest.fail "stats reply")

let test_e2e_in_frame_stats () =
  (* On the default zero-worker server a campaign runs while its line is
     routed, so a [stats] later in the same frame counts it: the keyed
     and the cold campaign have both run, and only the keyed answer is
     memoized. *)
  let socket = "test-serve-inframe.sock" in
  let keyed = "validate cache=sa attack=flush-and-reload seed=17 quick=1" in
  with_server ~socket (fun c _pid ->
      match Client.round_trip_raw c [ keyed; keyed ^ " cold"; "stats" ] with
      | [ _; _; stats ] -> (
        match Protocol.decode_reply stats with
        | Ok (Protocol.Stats_v kvs) ->
          Alcotest.(check int) "both campaigns ran" 2 (stat kvs "sim_runs");
          Alcotest.(check int) "keyed answer memoized" 1 (stat kvs "memo_size")
        | _ -> Alcotest.failf "expected stats reply, got %S" stats)
      | _ -> Alcotest.fail "three replies")

let test_e2e_batch_cap () =
  (* A batch over max_batch_lines is a protocol error: the server
     answers (after every earlier pipelined frame, in order) with a
     single-line error frame and closes that connection — only that
     connection; the daemon survives. *)
  let socket = "test-serve-batchcap.sock" in
  with_server ~socket (fun c _pid ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Protocol.write_frame fd "ping";
          Protocol.write_frame fd
            (String.concat "\n"
               (List.init (Protocol.max_batch_lines + 1) (fun _ -> "ping")));
          (match Protocol.read_frame fd with
          | Some "ok" -> ()
          | _ -> Alcotest.fail "pipelined good frame should answer first");
          (match Protocol.read_frame fd with
          | Some payload -> (
            match Protocol.decode_reply payload with
            | Ok (Protocol.Error_ _) -> ()
            | _ -> Alcotest.failf "expected error reply, got %S" payload)
          | None -> Alcotest.fail "expected an error reply before close");
          (match Protocol.read_frame fd with
          | None -> ()
          | Some _ -> Alcotest.fail "connection should be closed"));
      (* The daemon is unharmed: the untouched connection still works. *)
      match request1 c Protocol.Ping with
      | Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "daemon should survive the oversized batch")

let test_e2e_oversized_frame () =
  (* A frame header declaring more than max_frame bytes breaks the
     stream. The frames that arrived before it in the same read are
     still answered, then one error frame, then EOF; the daemon
     survives. *)
  let socket = "test-serve-bigframe.sock" in
  with_server ~socket (fun c _pid ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let wire =
            Bytes.cat (Protocol.frame "ping") (Bytes.of_string "\xff\xff\xff\xff")
          in
          Alcotest.(check int) "one write" (Bytes.length wire)
            (Unix.write fd wire 0 (Bytes.length wire));
          (match Protocol.read_frame fd with
          | Some "ok" -> ()
          | _ -> Alcotest.fail "the ping before the bad header should answer first");
          (match Protocol.read_frame fd with
          | Some payload -> (
            match Protocol.decode_reply payload with
            | Ok (Protocol.Error_ _) -> ()
            | _ -> Alcotest.failf "expected error reply, got %S" payload)
          | None -> Alcotest.fail "expected an error reply before close");
          match Protocol.read_frame fd with
          | None -> ()
          | Some _ -> Alcotest.fail "connection should be closed");
      match request1 c Protocol.Ping with
      | Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "daemon should survive the oversized frame")

let test_e2e_large_batch () =
  (* A maximal legal batch of the heaviest closed form: the ~500 KB
     reply far exceeds the socket buffer, so this drives the buffered
     non-blocking write path (EAGAIN, partial writes, select on
     writability) end to end. *)
  let socket = "test-serve-bigbatch.sock" in
  with_server ~socket (fun c _pid ->
      let n = 2000 in
      let replies =
        Client.round_trip_raw c
          (List.init n (fun _ -> "table attack=prime-and-probe"))
      in
      Alcotest.(check int) "one reply per query" n (List.length replies);
      List.iter
        (fun r ->
          match Protocol.decode_reply r with
          | Ok (Protocol.Table_v rows) ->
            Alcotest.(check int) "nine rows" 9 (List.length rows)
          | _ -> Alcotest.failf "expected table reply, got %S" r)
        replies)

let test_preflight_stale () =
  (* A bound-then-abandoned socket file (a crash artifact): preflight
     refuses with a distinct message, and a server cannot start. *)
  let socket = "test-serve-stale.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;  (* no listen, no unlink: stale file left behind *)
  (match Server.preflight ~socket with
  | Error msg ->
    Alcotest.(check bool) "stale named" true
      (String.length msg > 0
      && String.lowercase_ascii msg |> fun m ->
         let contains sub =
           let n = String.length m and k = String.length sub in
           let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
           go 0
         in
         contains "stale")
  | Ok () -> Alcotest.fail "stale socket accepted");
  (match
     Server.run
       { Server.socket; workers = 0;
         queue_bound = Server.default_queue_bound; max_memo = 4 }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "server started over a stale socket");
  Sys.remove socket;
  (* A plain file that is not a socket at all. *)
  let socket = "test-serve-notsock" in
  let oc = open_out socket in
  output_string oc "not a socket";
  close_out oc;
  (match Server.preflight ~socket with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-socket path accepted");
  Sys.remove socket

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "query round trips" `Quick test_query_roundtrip;
          Alcotest.test_case "reply round trips" `Quick test_reply_roundtrip;
          test_query_roundtrip_generated;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "decoder corpus digest" `Quick test_decoder_corpus;
          Alcotest.test_case "pas ways mismatch refuses to encode" `Quick
            test_encode_ways_mismatch;
          Alcotest.test_case "incremental frames" `Quick test_frames_incremental;
          Alcotest.test_case "trickled frame is linear" `Quick
            test_frames_trickle;
        ] );
      ( "canonical keys",
        [
          Alcotest.test_case "equivalent spellings" `Quick test_key_equivalence;
          Alcotest.test_case "matrix distinctness" `Quick test_key_distinctness;
          test_key_policy_injective;
          Alcotest.test_case "policy spellings + error menu" `Quick
            test_policy_spellings;
        ] );
      ( "memo",
        [
          Alcotest.test_case "bounded table" `Quick test_memo_table;
        ] );
      ( "router",
        [
          Alcotest.test_case "closed form + memo" `Quick test_router_closed_form;
          Alcotest.test_case "sim memoization" `Quick test_router_sim_memoization;
          Alcotest.test_case "nbits range" `Quick test_nbits_range;
          Alcotest.test_case "out-of-range overrides" `Quick
            test_out_of_range_overrides;
          test_error_replies_printable;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "inline server" `Quick test_e2e_inline;
          Alcotest.test_case "oversized batch" `Quick test_e2e_batch_cap;
          Alcotest.test_case "oversized frame" `Quick test_e2e_oversized_frame;
          Alcotest.test_case "buffered large batch" `Quick test_e2e_large_batch;
          Alcotest.test_case "backpressure" `Quick test_e2e_overloaded;
          Alcotest.test_case "in-flight dedup" `Quick test_e2e_dedup;
          Alcotest.test_case "cold and keyed campaigns" `Quick
            test_e2e_cold_and_keyed;
          Alcotest.test_case "in-frame stats" `Quick test_e2e_in_frame_stats;
          Alcotest.test_case "stale socket preflight" `Quick test_preflight_stale;
        ] );
    ]
