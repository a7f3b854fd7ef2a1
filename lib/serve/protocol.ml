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

let ( let* ) r f = Result.bind r f

let int_value key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: not an integer: %s" key v)

(* One field of a spec, [key=value] on the wire: [show] is its value on
   the specs that have it ([get] is [None] on the others), [set] the
   spec with it set from a wire value, or the exact decode error. *)
type field = {
  key : string;
  show : Spec.t -> string option;
  set : Spec.t -> string -> (Spec.t, string) result;
}

(* [put] is called only on a spec whose [get] is [Some _]. *)
let field key ~parse ~show ~get ~put ~absent =
  {
    key;
    show = (fun s -> Option.map show (get s));
    set =
      (fun s v ->
        let* x = parse v in
        if Option.is_none (get s) then Error absent else Ok (put s x));
  }

let arch_int key ~arch ~get ~put =
  field key ~parse:(int_value key) ~show:string_of_int ~get ~put
    ~absent:(Printf.sprintf "%s applies to %s only" key arch)

(* Every spec field, in wire order: the encoder spells each one a spec
   has (no reliance on defaults, so encode/decode round-trips by
   construction), the decoder reads each one as an override. *)
let spec_fields =
  [
    field "ways"
      ~parse:(fun v ->
        let* w = int_value "ways" v in
        if w <= 0 then Error "ways must be positive" else Ok w)
      ~show:string_of_int ~get:spec_ways
      ~put:(fun s ways ->
        match s with
        | Spec.Sa r -> Spec.Sa { r with ways }
        | Spec.Sp r -> Spec.Sp { r with ways }
        | Spec.Pl r -> Spec.Pl { r with ways }
        | Spec.Nomo r -> Spec.Nomo { r with ways }
        | Spec.Rp r -> Spec.Rp { r with ways }
        | Spec.Rf r -> Spec.Rf { r with ways }
        | Spec.Re r -> Spec.Re { r with ways }
        | Spec.Noisy r -> Spec.Noisy { r with ways }
        | Spec.Newcache _ -> s)
      ~absent:"newcache has no ways";
    field "policy"
      ~parse:(fun p ->
        match Policy.of_string p with
        | Some policy -> Ok policy
        | None ->
          Error
            (Printf.sprintf "unknown policy %s (expected one of: %s)" p
               Policy.names))
      ~show:Policy.to_string ~get:Spec.policy_of ~put:Spec.with_policy
      ~absent:"newcache has no replacement policy";
    arch_int "nbits" ~arch:"newcache"
      ~get:(function
        | Spec.Newcache { extra_bits } -> Some extra_bits | _ -> None)
      ~put:(fun _ extra_bits -> Spec.Newcache { extra_bits });
    arch_int "partitions" ~arch:"sp"
      ~get:(function Spec.Sp { partitions; _ } -> Some partitions | _ -> None)
      ~put:(fun s partitions ->
        match s with Spec.Sp r -> Spec.Sp { r with partitions } | s -> s);
    arch_int "reserved" ~arch:"nomo"
      ~get:(function Spec.Nomo { reserved; _ } -> Some reserved | _ -> None)
      ~put:(fun s reserved ->
        match s with Spec.Nomo r -> Spec.Nomo { r with reserved } | s -> s);
    arch_int "back" ~arch:"rf"
      ~get:(function Spec.Rf { back; _ } -> Some back | _ -> None)
      ~put:(fun s back ->
        match s with Spec.Rf r -> Spec.Rf { r with back } | s -> s);
    arch_int "fwd" ~arch:"rf"
      ~get:(function Spec.Rf { fwd; _ } -> Some fwd | _ -> None)
      ~put:(fun s fwd ->
        match s with Spec.Rf r -> Spec.Rf { r with fwd } | s -> s);
    arch_int "interval" ~arch:"re"
      ~get:(function Spec.Re { interval; _ } -> Some interval | _ -> None)
      ~put:(fun s interval ->
        match s with Spec.Re r -> Spec.Re { r with interval } | s -> s);
    field "sigma"
      ~parse:(fun v ->
        match float_of_string_opt v with
        | Some sigma -> Ok sigma
        | None -> Error (Printf.sprintf "sigma: not a number: %s" v))
      ~show:fmt_float
      ~get:(function Spec.Noisy { sigma; _ } -> Some sigma | _ -> None)
      ~put:(fun s sigma ->
        match s with Spec.Noisy r -> Spec.Noisy { r with sigma } | s -> s)
      ~absent:"sigma applies to noisy only";
  ]

let spec_args spec =
  Printf.sprintf "cache=%s" (Spec.name spec)
  :: List.filter_map
       (fun f -> Option.map (Printf.sprintf "%s=%s" f.key) (f.show spec))
       spec_fields

let config_args (c : Config.t) =
  [ Printf.sprintf "lb=%d" c.Config.line_bytes;
    Printf.sprintf "lines=%d" c.Config.lines ]

let attack_arg a = Printf.sprintf "attack=%s" (Attack_type.name a)

(* The line without its [cold] flag: {!canonical}, and the body of
   {!encode_query}. *)
let question_line = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Pas { spec; config; attack; cold = _ } ->
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
      (("pas" :: spec_args spec) @ config_args config @ [ attack_arg attack ])
  | Prepas { spec; k; cold = _ } ->
    String.concat " " (("prepas" :: spec_args spec) @ [ Printf.sprintf "k=%d" k ])
  | Resilience { spec; attack; cold = _ } ->
    String.concat " " (("resilience" :: spec_args spec) @ [ attack_arg attack ])
  | Table { attack; config; cold = _ } ->
    String.concat " "
      (("table" :: config_args config)
      @ [
          Printf.sprintf "ways=%d" config.Config.ways;
          attack_arg attack;
        ])
  | Validate { spec; attack; seed; quick; cold = _ } ->
    String.concat " "
      (("validate" :: spec_args spec)
      @ [
          attack_arg attack;
          Printf.sprintf "seed=%d" seed;
          Printf.sprintf "quick=%d" (if quick then 1 else 0);
        ])

let encode_query q =
  let line = question_line q in
  if cold q then line ^ " cold" else line

let canonical = function
  | Ping | Stats | Shutdown -> None
  | q -> Some (question_line q)

(* --- query decoding --------------------------------------------------- *)

let split_words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

let split_pair w =
  match String.index_opt w '=' with
  | None -> None
  | Some i ->
    Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))

(* key=value args plus bare flags; duplicate keys are an error (a
   silently-last-wins duplicate would canonicalize two different lines
   to the same query). *)
let parse_args words =
  let rec go acc flags = function
    | [] -> Ok (List.rev acc, List.rev flags)
    | w :: rest -> (
      match split_pair w with
      | None -> go acc (w :: flags) rest
      | Some (k, v) ->
        if List.mem_assoc k acc then
          Error (Printf.sprintf "duplicate argument %s" k)
        else go ((k, v) :: acc) flags rest)
  in
  go [] [] words

let int_arg args key ~default =
  match List.assoc_opt key args with
  | None -> Ok default
  | Some v -> int_value key v

let spec_keys = "cache" :: List.map (fun f -> f.key) spec_fields

(* [policy] first, then the rest in wire order: a line with two faults
   reports the first of them in this order. *)
let decode_order =
  let policy, rest = List.partition (fun f -> f.key = "policy") spec_fields in
  policy @ rest

let config_keys = [ "lb"; "lines" ]

(* The ranges the engines' [create] accept, checked on the spec with
   every override applied, so the server never answers (or memoizes, or
   runs a campaign for) a question the model refuses. [lines] is the
   query's geometry; a non-positive one is left to [parse_config].
   Nomo's [reserved < ways] is checked only where a campaign builds the
   engine ([validate]): the closed forms refuse it for the attacks that
   read [reserved], and the PAS of the two that do not is answered. *)
let check_ranges spec ~lines =
  match spec with
  | _ when lines > 0 && lines mod Option.value (spec_ways spec) ~default:1 <> 0 ->
    Error (Printf.sprintf "ways must divide lines (%d)" lines)
  | Spec.Newcache { extra_bits } ->
    (* The logical cache, [lines lsl nbits] lines, must fit in an int. *)
    let max = if lines > 0 then Newcache.max_extra_bits ~lines else max_int in
    if extra_bits < 0 || extra_bits > max then
      Error (Printf.sprintf "nbits must be in 0..%d" max)
    else Ok spec
  | Spec.Sp { ways; partitions; _ } ->
    let sets = lines / ways in
    if partitions < 2 || (sets > 0 && sets mod partitions <> 0) then
      Error
        (Printf.sprintf
           "partitions must be >= 2 and divide the set count (%d)" sets)
    else Ok spec
  | Spec.Nomo { reserved; _ } when reserved < 0 -> Error "reserved must be >= 0"
  | Spec.Rf { back; fwd; _ } when back < 0 || fwd < 0 ->
    Error "back and fwd must be >= 0"
  | Spec.Re { interval; _ } when interval <= 0 -> Error "interval must be >= 1"
  | Spec.Noisy { sigma; _ } when not (Float.is_finite sigma && sigma >= 0.) ->
    Error "sigma must be finite and >= 0"
  | _ -> Ok spec

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
    List.fold_left
      (fun spec f ->
        let* spec = spec in
        match List.assoc_opt f.key args with
        | None -> Ok spec
        | Some v -> f.set spec v)
      (Ok base) decode_order
  in
  let* lines = int_arg args "lines" ~default:Config.standard.Config.lines in
  check_ranges spec ~lines

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
      let* () =
        match spec with
        | Spec.Nomo { ways; reserved; _ } when reserved >= ways ->
          Error (Printf.sprintf "reserved must be in 0..%d" (ways - 1))
        | _ -> Ok ()
      in
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
      match split_pair w with
      | None -> Error (Printf.sprintf "malformed pair %s" w)
      | Some (k, v) -> (
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
    match List.map split_pair rest with
    | [ Some ("verdict", verdict); p ] when verdict <> "" -> (
      match p with
      | Some ("pas", p) -> (
        match float_of_string_opt p with
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
  (* The piece being read: a frame's 4-byte length prefix, then its
     payload, each allocated once at its final size and filled in place,
     so every byte received is copied once however it is split. *)
  type t = {
    mutable piece : Bytes.t;
    mutable got : int;  (* bytes of [piece] filled *)
    mutable in_payload : bool;
  }

  let create () = { piece = Bytes.create 4; got = 0; in_payload = false }
  let pending_bytes t = if t.in_payload then 4 + t.got else t.got

  let feed t ~bytes ~len =
    let rec go off acc =
      if t.got = Bytes.length t.piece then
        if t.in_payload then begin
          let payload = Bytes.unsafe_to_string t.piece in
          t.piece <- Bytes.create 4;
          t.got <- 0;
          t.in_payload <- false;
          go off (payload :: acc)
        end
        else
          let flen = be32 (Bytes.unsafe_to_string t.piece) 0 in
          if flen > max_frame then
            ( List.rev acc,
              Some (Printf.sprintf "frame of %d bytes exceeds %d" flen max_frame) )
          else begin
            t.piece <- Bytes.create flen;
            t.got <- 0;
            t.in_payload <- true;
            go off acc
          end
      else if off = len then (List.rev acc, None)
      else
        let n = min (Bytes.length t.piece - t.got) (len - off) in
        Bytes.blit bytes off t.piece t.got n;
        t.got <- t.got + n;
        go (off + n) acc
    in
    go 0 []
end
