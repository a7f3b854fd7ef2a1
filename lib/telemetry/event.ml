(* Telemetry events: the wire format shared by every sink.

   Times are seconds relative to the owning context's creation
   ([Telemetry.make]), so the JSON export is small, diffable and
   independent of the host's wall-clock epoch.

   The JSON line codec mirrors the bench files' discipline: one object
   per line with a fixed key order, so the file is parseable with
   [Scanf] alone and the library needs no JSON dependency. *)

type t =
  | Span_start of { id : int; parent : int; name : string; t_s : float }
  | Span_end of {
      id : int;
      parent : int;
      name : string;
      t_s : float;
      dur_s : float;
    }
  | Batch_start of {
      span : int;
      index : int;
      total : int;
      domain : int;
      t_s : float;
    }
  | Batch_end of {
      span : int;
      index : int;
      total : int;
      domain : int;
      t_s : float;
      dur_s : float;
    }
  | Domain_busy of { span : int; domain : int; busy_s : float; units : int }
  | Gauge of { span : int; name : string; value : float; t_s : float }
  | Counter_total of { name : string; value : int }

let to_json_line = function
  | Span_start { id; parent; name; t_s } ->
    Printf.sprintf
      "{\"ev\": \"span_start\", \"id\": %d, \"parent\": %d, \"name\": %S, \
       \"t\": %.6f}"
      id parent name t_s
  | Span_end { id; parent; name; t_s; dur_s } ->
    Printf.sprintf
      "{\"ev\": \"span_end\", \"id\": %d, \"parent\": %d, \"name\": %S, \
       \"t\": %.6f, \"dur\": %.6f}"
      id parent name t_s dur_s
  | Batch_start { span; index; total; domain; t_s } ->
    Printf.sprintf
      "{\"ev\": \"batch_start\", \"span\": %d, \"index\": %d, \"total\": %d, \
       \"domain\": %d, \"t\": %.6f}"
      span index total domain t_s
  | Batch_end { span; index; total; domain; t_s; dur_s } ->
    Printf.sprintf
      "{\"ev\": \"batch_end\", \"span\": %d, \"index\": %d, \"total\": %d, \
       \"domain\": %d, \"t\": %.6f, \"dur\": %.6f}"
      span index total domain t_s dur_s
  | Domain_busy { span; domain; busy_s; units } ->
    Printf.sprintf
      "{\"ev\": \"domain_busy\", \"span\": %d, \"domain\": %d, \"busy\": \
       %.6f, \"units\": %d}"
      span domain busy_s units
  | Gauge { span; name; value; t_s } ->
    Printf.sprintf
      "{\"ev\": \"gauge\", \"span\": %d, \"name\": %S, \"value\": %.6f, \
       \"t\": %.6f}"
      span name value t_s
  | Counter_total { name; value } ->
    Printf.sprintf "{\"ev\": \"counter\", \"name\": %S, \"value\": %d}" name
      value

(* Parse a line produced by [to_json_line]. Returns [None] on anything
   else (other JSON lines, structural braces), so a reader can fold it
   over a whole file. *)
let of_json_line line =
  let line = String.trim line in
  let line =
    if String.length line > 0 && line.[String.length line - 1] = ',' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  let tag =
    try Some (Scanf.sscanf line "{\"ev\": %S" (fun ev -> ev)) with
    | Scanf.Scan_failure _ | End_of_file | Failure _ -> None
  in
  let parse fmt k = try Some (Scanf.sscanf line fmt k) with _ -> None in
  match tag with
  | Some "span_start" ->
    parse "{\"ev\": %S, \"id\": %d, \"parent\": %d, \"name\": %S, \"t\": %f}"
      (fun _ id parent name t_s -> Span_start { id; parent; name; t_s })
  | Some "span_end" ->
    parse
      "{\"ev\": %S, \"id\": %d, \"parent\": %d, \"name\": %S, \"t\": %f, \
       \"dur\": %f}" (fun _ id parent name t_s dur_s ->
        Span_end { id; parent; name; t_s; dur_s })
  | Some "batch_start" ->
    parse
      "{\"ev\": %S, \"span\": %d, \"index\": %d, \"total\": %d, \"domain\": \
       %d, \"t\": %f}" (fun _ span index total domain t_s ->
        Batch_start { span; index; total; domain; t_s })
  | Some "batch_end" ->
    parse
      "{\"ev\": %S, \"span\": %d, \"index\": %d, \"total\": %d, \"domain\": \
       %d, \"t\": %f, \"dur\": %f}" (fun _ span index total domain t_s dur_s ->
        Batch_end { span; index; total; domain; t_s; dur_s })
  | Some "domain_busy" ->
    parse "{\"ev\": %S, \"span\": %d, \"domain\": %d, \"busy\": %f, \"units\": %d}"
      (fun _ span domain busy_s units ->
        Domain_busy { span; domain; busy_s; units })
  | Some "gauge" ->
    parse "{\"ev\": %S, \"span\": %d, \"name\": %S, \"value\": %f, \"t\": %f}"
      (fun _ span name value t_s -> Gauge { span; name; value; t_s })
  | Some "counter" ->
    parse "{\"ev\": %S, \"name\": %S, \"value\": %d}" (fun _ name value ->
        Counter_total { name; value })
  | Some _ | None -> None
