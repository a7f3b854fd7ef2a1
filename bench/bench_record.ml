type value = S of string | I of int | F of float
type row = (string * value) list

(* --- writing ---------------------------------------------------------- *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest of %.15g / %.17g that reads back to the same float, with a
   ".0" where %g printed an integer, so the value stays a float. *)
let float_to_string f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let value_to_string = function
  | S s -> quote s
  | I i -> string_of_int i
  | F f -> float_to_string f

let row_to_string row =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> quote k ^ ": " ^ value_to_string v) row)
  ^ "}"

let write ?(span_id = 0) ~schema ~path rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("{\n  \"schema\": " ^ quote schema ^ ",\n");
  if span_id <> 0 then
    Buffer.add_string buf (Printf.sprintf "  \"telemetry_span\": %d,\n" span_id);
  Buffer.add_string buf "  \"entries\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf ("    " ^ row_to_string r))
    rows;
  if rows <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf "  ]\n}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)

(* --- reading ---------------------------------------------------------- *)

(* [Some row] when the line is one flat object, [None] otherwise. *)
let row_of_line line =
  let line = String.trim line in
  let line =
    if String.ends_with ~suffix:"," line then
      String.sub line 0 (String.length line - 1)
    else line
  in
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise Exit in
  let skip_spaces () = while !pos < n && line.[!pos] = ' ' do incr pos done in
  let expect c =
    skip_spaces ();
    if peek () = c then incr pos else raise Exit
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char buf (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents buf
  in
  let value () =
    skip_spaces ();
    if peek () = '"' then S (string ())
    else begin
      let start = !pos in
      while !pos < n && not (String.contains ", }" line.[!pos]) do incr pos done;
      let tok = String.sub line start (!pos - start) in
      match (int_of_string_opt tok, float_of_string_opt tok) with
      | Some i, _ -> I i
      | None, Some f -> F f
      | None, None -> raise Exit
    end
  in
  let rec fields acc =
    let key = string () in
    expect ':';
    let acc = (key, value ()) :: acc in
    skip_spaces ();
    if peek () = ',' then begin
      incr pos;
      fields acc
    end
    else begin
      expect '}';
      List.rev acc
    end
  in
  try
    expect '{';
    let row = fields [] in
    if !pos = n then Some row else None
  with Exit -> None

let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> List.filter_map row_of_line (String.split_on_char '\n' text)

(* --- typed getters ---------------------------------------------------- *)

let str row key = match List.assoc key row with S s -> s | _ -> raise Not_found
let int row key = match List.assoc key row with I i -> i | _ -> raise Not_found

let float row key =
  match List.assoc key row with
  | F f -> f
  | I i -> float_of_int i
  | S _ -> raise Not_found

let default d get row key = if List.mem_assoc key row then get row key else d
let parse f row = try Some (f row) with Not_found -> None

(* --- gate lines ------------------------------------------------------- *)

let verdict ?(digits = 2) ~threshold x =
  if x >= threshold then Printf.sprintf ">= %.*fx PASS" digits threshold
  else Printf.sprintf "<  %.*fx FAIL" digits threshold
