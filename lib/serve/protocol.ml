open Cachesec_cache
open Cachesec_analysis

type query =
  | Ping
  | Stats
  | Shutdown
  | Pas of {
      spec : Spec.t;
      config : Config.t;
      attack : Attack_type.t;
      cold : bool;
    }
  | Prepas of { spec : Spec.t; k : int; cold : bool }
  | Resilience of { spec : Spec.t; attack : Attack_type.t; cold : bool }
  | Table of { attack : Attack_type.t; config : Config.t; cold : bool }
  | Validate of {
      spec : Spec.t;
      attack : Attack_type.t;
      seed : int;
      quick : bool;
      cold : bool;
    }

type reply =
  | Ok_
  | Overloaded
  | Error_ of string
  | Pas_v of float
  | Prepas_v of float
  | Resilience_v of { verdict : string; pas : float }
  | Table_v of (string * float) list
  | Validate_v of {
      pas : float;
      predicted_leak : bool;
      recovered : bool;
      separation : float;
      agrees : bool;
    }
  | Stats_v of (string * float) list

let cold = function
  | Ping | Stats | Shutdown -> false
  | Pas { cold; _ }
  | Prepas { cold; _ }
  | Resilience { cold; _ }
  | Table { cold; _ }
  | Validate { cold; _ } -> cold

(* --- query encoding --------------------------------------------------- *)

(* [%.17g] is the shortest fixed format that round-trips every double
   through [float_of_string]; canonicalization to a single bit pattern
   happens at parse time, so 1 / 1.0 / 1e0 all yield the same query
   value. *)
let fmt_float f = Printf.sprintf "%.17g" f

let spec_ways = function
  | Spec.Sa { ways; _ }
  | Spec.Sp { ways; _ }
  | Spec.Pl { ways; _ }
  | Spec.Nomo { ways; _ }
  | Spec.Rp { ways; _ }
  | Spec.Rf { ways; _ }
  | Spec.Re { ways; _ }
  | Spec.Noisy { ways; _ } -> Some ways
  | Spec.Newcache _ -> None

(* Every field of the spec is emitted explicitly (no reliance on
   defaults), so encode/decode round-trips by construction. *)
let spec_args spec =
  let pol p = Printf.sprintf "policy=%s" (Policy.to_string p) in
  let base = Printf.sprintf "cache=%s" (Spec.name spec) in
  match spec with
  | Spec.Sa { ways; policy }
  | Spec.Pl { ways; policy }
  | Spec.Rp { ways; policy } ->
    [ base; Printf.sprintf "ways=%d" ways; pol policy ]
  | Spec.Sp { ways; policy; partitions } ->
    [
      base;
      Printf.sprintf "ways=%d" ways;
      pol policy;
      Printf.sprintf "partitions=%d" partitions;
    ]
  | Spec.Nomo { ways; policy; reserved } ->
    [
      base;
      Printf.sprintf "ways=%d" ways;
      pol policy;
      Printf.sprintf "reserved=%d" reserved;
    ]
  | Spec.Newcache { extra_bits } -> [ base; Printf.sprintf "nbits=%d" extra_bits ]
  | Spec.Rf { ways; policy; back; fwd } ->
    [
      base;
      Printf.sprintf "ways=%d" ways;
      pol policy;
      Printf.sprintf "back=%d" back;
      Printf.sprintf "fwd=%d" fwd;
    ]
  | Spec.Re { ways; policy; interval } ->
    [
      base;
      Printf.sprintf "ways=%d" ways;
      pol policy;
      Printf.sprintf "interval=%d" interval;
    ]
  | Spec.Noisy { ways; policy; sigma } ->
    [
      base;
      Printf.sprintf "ways=%d" ways;
      pol policy;
      Printf.sprintf "sigma=%s" (fmt_float sigma);
    ]

let config_args (c : Config.t) =
  [ Printf.sprintf "lb=%d" c.Config.line_bytes;
    Printf.sprintf "lines=%d" c.Config.lines ]

let attack_arg a = Printf.sprintf "attack=%s" (Attack_type.name a)
let cold_arg cold = if cold then [ "cold" ] else []

let encode_query = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Pas { spec; config; attack; cold } ->
    (* The pas wire form carries one [ways=] (a spec field); the decoder
       mirrors it into the config (Newcache, which has none, gets the
       standard 8). A config whose way count disagrees with the spec
       therefore cannot round-trip — refuse loudly instead of silently
       sending a different question. *)
    let wire_ways = Option.value (spec_ways spec) ~default:8 in
    if config.Config.ways <> wire_ways then
      invalid_arg
        (Printf.sprintf
           "Protocol.encode_query: Pas config.ways (%d) disagrees with the \
            spec's ways (%d); the wire form cannot express the mismatch"
           config.Config.ways wire_ways);
    String.concat " "
      (("pas" :: spec_args spec) @ config_args config @ [ attack_arg attack ]
      @ cold_arg cold)
  | Prepas { spec; k; cold } ->
    String.concat " "
      (("prepas" :: spec_args spec)
      @ [ Printf.sprintf "k=%d" k ]
      @ cold_arg cold)
  | Resilience { spec; attack; cold } ->
    String.concat " "
      (("resilience" :: spec_args spec) @ [ attack_arg attack ] @ cold_arg cold)
  | Table { attack; config; cold } ->
    String.concat " "
      (("table" :: config_args config)
      @ [
          Printf.sprintf "ways=%d" config.Config.ways;
          attack_arg attack;
        ]
      @ cold_arg cold)
  | Validate { spec; attack; seed; quick; cold } ->
    String.concat " "
      (("validate" :: spec_args spec)
      @ [
          attack_arg attack;
          Printf.sprintf "seed=%d" seed;
          Printf.sprintf "quick=%d" (if quick then 1 else 0);
        ]
      @ cold_arg cold)

(* --- query decoding --------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let split_words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

(* key=value args plus bare flags; duplicate keys are an error (a
   silently-last-wins duplicate would canonicalize two different lines
   to the same query). *)
let parse_args words =
  let rec go acc flags = function
    | [] -> Ok (List.rev acc, List.rev flags)
    | w :: rest -> (
      match String.index_opt w '=' with
      | None -> go acc (w :: flags) rest
      | Some i ->
        let k = String.sub w 0 i in
        let v = String.sub w (i + 1) (String.length w - i - 1) in
        if List.mem_assoc k acc then
          Error (Printf.sprintf "duplicate argument %s" k)
        else go ((k, v) :: acc) flags rest)
  in
  go [] [] words

let int_arg args key ~default =
  match List.assoc_opt key args with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: not an integer: %s" key v))

let spec_keys =
  [
    "cache"; "policy"; "ways"; "sigma"; "nbits"; "partitions"; "reserved";
    "back"; "fwd"; "interval";
  ]

let config_keys = [ "lb"; "lines" ]

(* The paper spec by name, then field overrides. Overrides that don't
   apply to the named architecture are errors, not silent no-ops: a
   typo'd query must not canonicalize to (and be answered as) a
   different question. *)
let parse_spec args =
  let* base =
    match List.assoc_opt "cache" args with
    | None -> Error "missing cache=<name>"
    | Some n -> (
      match Spec.of_name n with
      | Some s -> Ok s
      | None ->
        Error
          (Printf.sprintf "unknown cache %s (expected one of: %s)" n
             (String.concat ", " (List.map Spec.name Spec.all_paper))))
  in
  let* spec =
    match List.assoc_opt "policy" args with
    | None -> Ok base
    | Some p -> (
      match Policy.of_string p with
      | Some policy -> (
        match base with
        | Spec.Newcache _ -> Error "newcache has no replacement policy"
        | _ -> Ok (Spec.with_policy base policy))
      | None ->
        Error
          (Printf.sprintf "unknown policy %s (expected one of: %s)" p
             Policy.names))
  in
  let* spec =
    match List.assoc_opt "ways" args with
    | None -> Ok spec
    | Some v -> (
      match int_of_string_opt v with
      | None -> Error (Printf.sprintf "ways: not an integer: %s" v)
      | Some w when w <= 0 -> Error "ways must be positive"
      | Some w -> (
        match spec with
        | Spec.Sa r -> Ok (Spec.Sa { r with ways = w })
        | Spec.Sp r -> Ok (Spec.Sp { r with ways = w })
        | Spec.Pl r -> Ok (Spec.Pl { r with ways = w })
        | Spec.Nomo r -> Ok (Spec.Nomo { r with ways = w })
        | Spec.Rp r -> Ok (Spec.Rp { r with ways = w })
        | Spec.Rf r -> Ok (Spec.Rf { r with ways = w })
        | Spec.Re r -> Ok (Spec.Re { r with ways = w })
        | Spec.Noisy r -> Ok (Spec.Noisy { r with ways = w })
        | Spec.Newcache _ -> Error "newcache has no ways"))
  in
  let int_override key apply spec =
    match List.assoc_opt key args with
    | None -> Ok spec
    | Some v -> (
      match int_of_string_opt v with
      | None -> Error (Printf.sprintf "%s: not an integer: %s" key v)
      | Some n -> apply spec n)
  in
  (* The logical cache, [lines lsl nbits] lines, must fit in an int for
     the geometry the query names (engines run on [Config.standard]); a
     non-positive [lines] is left to [parse_config] to reject. *)
  let* lines = int_arg args "lines" ~default:Config.standard.Config.lines in
  let* spec =
    int_override "nbits"
      (fun s n ->
        match s with
        | Spec.Newcache _ ->
          let max =
            if lines > 0 then Newcache.max_extra_bits ~lines else max_int
          in
          if n < 0 || n > max then
            Error (Printf.sprintf "nbits must be in 0..%d" max)
          else Ok (Spec.Newcache { extra_bits = n })
        | _ -> Error "nbits applies to newcache only")
      spec
  in
  let* spec =
    int_override "partitions"
      (fun s n ->
        match s with
        | Spec.Sp r -> Ok (Spec.Sp { r with partitions = n })
        | _ -> Error "partitions applies to sp only")
      spec
  in
  let* spec =
    int_override "reserved"
      (fun s n ->
        match s with
        | Spec.Nomo r -> Ok (Spec.Nomo { r with reserved = n })
        | _ -> Error "reserved applies to nomo only")
      spec
  in
  let* spec =
    int_override "back"
      (fun s n ->
        match s with
        | Spec.Rf r -> Ok (Spec.Rf { r with back = n })
        | _ -> Error "back applies to rf only")
      spec
  in
  let* spec =
    int_override "fwd"
      (fun s n ->
        match s with
        | Spec.Rf r -> Ok (Spec.Rf { r with fwd = n })
        | _ -> Error "fwd applies to rf only")
      spec
  in
  let* spec =
    int_override "interval"
      (fun s n ->
        match s with
        | Spec.Re r -> Ok (Spec.Re { r with interval = n })
        | _ -> Error "interval applies to re only")
      spec
  in
  match List.assoc_opt "sigma" args with
  | None -> Ok spec
  | Some v -> (
    match float_of_string_opt v with
    | None -> Error (Printf.sprintf "sigma: not a number: %s" v)
    | Some sigma -> (
      match spec with
      | Spec.Noisy r -> Ok (Spec.Noisy { r with sigma })
      | _ -> Error "sigma applies to noisy only"))

(* Geometry: the paper's Table 4 defaults, with the config's way count
   mirroring the spec's (Newcache, which has no ways, gets the standard
   8). [Config.v] validates pow2/divisibility — its message becomes the
   protocol error. *)
let parse_config args ~ways =
  let* lb = int_arg args "lb" ~default:64 in
  let* lines = int_arg args "lines" ~default:512 in
  match Config.v ~line_bytes:lb ~lines ~ways with
  | c -> Ok c
  | exception Invalid_argument m -> Error m

let parse_attack args =
  match List.assoc_opt "attack" args with
  | None -> Error "missing attack=<name>"
  | Some n -> (
    match Attack_type.of_name n with
    | Some a -> Ok a
    | None ->
      Error
        (Printf.sprintf "unknown attack %s (expected one of: %s)" n
           (String.concat ", " (List.map Attack_type.name Attack_type.all))))

let check_keys args ~allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) args with
  | Some (k, _) -> Error (Printf.sprintf "unknown argument %s" k)
  | None -> Ok ()

let check_flags flags =
  match List.filter (fun f -> f <> "cold") flags with
  | [] -> Ok (List.mem "cold" flags)
  | f :: _ -> Error (Printf.sprintf "unknown flag %s" f)

let decode_query line =
  match split_words line with
  | [] -> Error "empty query"
  | verb :: rest -> (
    let* args, flags = parse_args rest in
    let* cold = check_flags flags in
    let no_args name =
      if args <> [] || cold then
        Error (Printf.sprintf "%s takes no arguments" name)
      else Ok ()
    in
    match verb with
    | "ping" ->
      let* () = no_args "ping" in
      Ok Ping
    | "stats" ->
      let* () = no_args "stats" in
      Ok Stats
    | "shutdown" ->
      let* () = no_args "shutdown" in
      Ok Shutdown
    | "pas" ->
      let* () =
        check_keys args ~allowed:(("attack" :: spec_keys) @ config_keys)
      in
      let* spec = parse_spec args in
      let* config =
        parse_config args ~ways:(Option.value (spec_ways spec) ~default:8)
      in
      let* attack = parse_attack args in
      Ok (Pas { spec; config; attack; cold })
    | "prepas" ->
      let* () = check_keys args ~allowed:("k" :: spec_keys) in
      let* spec = parse_spec args in
      let* k = int_arg args "k" ~default:32 in
      if k < 0 then Error "k must be non-negative"
      else Ok (Prepas { spec; k; cold })
    | "resilience" ->
      let* () = check_keys args ~allowed:("attack" :: spec_keys) in
      let* spec = parse_spec args in
      let* attack = parse_attack args in
      Ok (Resilience { spec; attack; cold })
    | "table" ->
      let* () = check_keys args ~allowed:("attack" :: "ways" :: config_keys) in
      let* attack = parse_attack args in
      let* ways = int_arg args "ways" ~default:8 in
      let* config = parse_config args ~ways in
      Ok (Table { attack; config; cold })
    | "validate" ->
      let* () =
        check_keys args ~allowed:("attack" :: "seed" :: "quick" :: spec_keys)
      in
      let* spec = parse_spec args in
      let* attack = parse_attack args in
      let* seed = int_arg args "seed" ~default:42 in
      let* quick = int_arg args "quick" ~default:1 in
      Ok (Validate { spec; attack; seed; quick = quick <> 0; cold })
    | v -> Error (Printf.sprintf "unknown verb %s" v))

(* --- reply encoding --------------------------------------------------- *)

(* An error message may quote client bytes: every byte outside
   printable ASCII goes out as [\xNN], so the reply stays one line of
   UTF-8 text whatever the query held. *)
let printable s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' then Buffer.add_char b c
      else Printf.bprintf b "\\x%02x" (Char.code c))
    s;
  Buffer.contents b

let pairs kvs =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fmt_float v)) kvs)

let encode_reply = function
  | Ok_ -> "ok"
  | Overloaded -> "overloaded"
  | Error_ msg -> "error " ^ printable msg
  | Pas_v v -> Printf.sprintf "pas v=%s" (fmt_float v)
  | Prepas_v v -> Printf.sprintf "prepas v=%s" (fmt_float v)
  | Resilience_v { verdict; pas } ->
    Printf.sprintf "resilience verdict=%s pas=%s" verdict (fmt_float pas)
  | Table_v rows -> "table " ^ pairs rows
  | Validate_v { pas; predicted_leak; recovered; separation; agrees } ->
    Printf.sprintf
      "validate pas=%s predicted=%d recovered=%d separation=%s agrees=%d"
      (fmt_float pas)
      (if predicted_leak then 1 else 0)
      (if recovered then 1 else 0)
      (fmt_float separation)
      (if agrees then 1 else 0)
  | Stats_v kvs -> "stats " ^ pairs kvs

let parse_pairs words =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | w :: rest -> (
      match String.index_opt w '=' with
      | None -> Error (Printf.sprintf "malformed pair %s" w)
      | Some i -> (
        let k = String.sub w 0 i in
        let v = String.sub w (i + 1) (String.length w - i - 1) in
        match float_of_string_opt v with
        | Some f -> go ((k, f) :: acc) rest
        | None -> Error (Printf.sprintf "%s: not a number: %s" k v)))
  in
  go [] words

let float_pair args key =
  match List.assoc_opt key args with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s=" key)

let decode_reply line =
  match split_words line with
  | [] -> Error "empty reply"
  | [ "ok" ] -> Ok Ok_
  | [ "overloaded" ] -> Ok Overloaded
  | "error" :: _ ->
    (* Everything after the verb, verbatim (the message may contain
       spaces and '='). *)
    let msg =
      if String.length line > 6 then String.sub line 6 (String.length line - 6)
      else ""
    in
    Ok (Error_ msg)
  | "pas" :: rest ->
    let* kvs = parse_pairs rest in
    let* v = float_pair kvs "v" in
    Ok (Pas_v v)
  | "prepas" :: rest ->
    let* kvs = parse_pairs rest in
    let* v = float_pair kvs "v" in
    Ok (Prepas_v v)
  | "resilience" :: rest -> (
    match rest with
    | [ v; p ] when String.length v > 8 && String.sub v 0 8 = "verdict=" -> (
      let verdict = String.sub v 8 (String.length v - 8) in
      match String.index_opt p '=' with
      | Some i when String.sub p 0 i = "pas" -> (
        match
          float_of_string_opt (String.sub p (i + 1) (String.length p - i - 1))
        with
        | Some pas -> Ok (Resilience_v { verdict; pas })
        | None -> Error "resilience: bad pas value")
      | _ -> Error "resilience: missing pas=")
    | _ -> Error "resilience: expected verdict= pas=")
  | "table" :: rest ->
    let* rows = parse_pairs rest in
    Ok (Table_v rows)
  | "validate" :: rest ->
    let* kvs = parse_pairs rest in
    let* pas = float_pair kvs "pas" in
    let* predicted = float_pair kvs "predicted" in
    let* recovered = float_pair kvs "recovered" in
    let* separation = float_pair kvs "separation" in
    let* agrees = float_pair kvs "agrees" in
    Ok
      (Validate_v
         {
           pas;
           predicted_leak = predicted <> 0.;
           recovered = recovered <> 0.;
           separation;
           agrees = agrees <> 0.;
         })
  | "stats" :: rest ->
    let* kvs = parse_pairs rest in
    Ok (Stats_v kvs)
  | v :: _ -> Error (Printf.sprintf "unknown reply verb %s" v)

(* --- framing ---------------------------------------------------------- *)

let max_frame = 4 * 1024 * 1024

(* Reply lines are usually far bigger than their query lines (a ~27-byte
   [table] query yields a ~250-byte nine-row reply), so the request-side
   [max_frame] does not bound the response frame. Capping the number of
   query lines per request frame is what keeps well-formed batches'
   replies under [max_frame]; the server rejects bigger batches with a
   protocol error instead of assembling an unencodable reply. *)
let max_batch_lines = 4096

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.frame: payload exceeds max_frame";
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  b

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w = 0 then failwith "Protocol.write_frame: socket closed";
    off := !off + w
  done

let write_frame fd payload = write_all fd (frame payload)

let read_exactly fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r = Unix.read fd b !off (n - !off) in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then if !off = 0 then None else failwith "Protocol: truncated frame"
  else Some b

let be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let read_frame fd =
  match read_exactly fd 4 with
  | None -> None
  | Some hdr ->
    let len = be32 (Bytes.to_string hdr) 0 in
    if len > max_frame then failwith "Protocol: oversized frame";
    if len = 0 then Some ""
    else (
      match read_exactly fd len with
      | None -> failwith "Protocol: truncated frame"
      | Some b -> Some (Bytes.to_string b))

module Frames = struct
  type t = { mutable pending : string }

  let create () = { pending = "" }
  let pending_bytes t = String.length t.pending

  let feed t ~bytes ~len =
    t.pending <- t.pending ^ Bytes.sub_string bytes 0 len;
    let rec extract acc =
      let s = t.pending in
      let n = String.length s in
      if n < 4 then Ok (List.rev acc)
      else
        let flen = be32 s 0 in
        if flen > max_frame then Error "oversized frame"
        else if n < 4 + flen then Ok (List.rev acc)
        else begin
          let payload = String.sub s 4 flen in
          t.pending <- String.sub s (4 + flen) (n - 4 - flen);
          extract (payload :: acc)
        end
    in
    extract []
end
