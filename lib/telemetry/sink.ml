(* Pluggable telemetry sinks.

   A sink is a plain record of functions. Sinks need not be
   thread-safe: the owning [Telemetry.t] serializes every [emit]/[close]
   behind its own mutex (events are emitted at batch boundaries only, so
   the lock is uncontended in practice). *)

type t = { emit : Event.t -> unit; close : unit -> unit }

let tee sinks =
  {
    emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }

let memory () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events); close = ignore },
    fun () -> List.rev !events )

(* --- human-readable progress sink ----------------------------------- *)

let progress ?(out = stderr) () =
  (* span id -> (name, depth); id 0 is the implicit root at depth -1. *)
  let spans = Hashtbl.create 32 in
  let depth_of id =
    match Hashtbl.find_opt spans id with Some (_, d) -> d | None -> -1
  in
  let name_of id =
    match Hashtbl.find_opt spans id with Some (n, _) -> n | None -> "?"
  in
  let indent d = String.make (2 * max 0 d) ' ' in
  let emit (e : Event.t) =
    match e with
    | Event.Span_start { id; parent; name; t_s = _ } ->
      let d = depth_of parent + 1 in
      Hashtbl.replace spans id (name, d);
      Printf.fprintf out "%s-> %s\n%!" (indent d) name
    | Event.Span_end { id; name; dur_s; _ } ->
      let d = depth_of id in
      Printf.fprintf out "%s<- %s  %.2fs\n%!" (indent d) name dur_s
    | Event.Batch_start _ -> ()
    | Event.Batch_end { span; index; total; domain; dur_s; _ } ->
      (* At most ~8 progress lines per span, plus the final one. *)
      let stride = max 1 (total / 8) in
      if (index + 1) mod stride = 0 || index + 1 = total then
        Printf.fprintf out "%s   [%s] %d/%d  (%.3fs on domain %d)\n%!"
          (indent (depth_of span))
          (name_of span) (index + 1) total dur_s domain
    | Event.Domain_busy { span; domain; busy_s; units } ->
      Printf.fprintf out "%s   [%s] domain %d: busy %.2fs over %d units\n%!"
        (indent (depth_of span))
        (name_of span) domain busy_s units
    | Event.Gauge { span; name; value; _ } ->
      Printf.fprintf out "%s   [%s] %s = %g\n%!"
        (indent (depth_of span))
        (name_of span) name value
    | Event.Counter_total { name; value } ->
      Printf.fprintf out "   counter %s = %d\n%!" name value
  in
  { emit; close = (fun () -> Printf.fprintf out "%!") }

(* --- machine-readable JSON sink (telemetry/v1) ----------------------- *)

let schema_version = "telemetry/v1"

let default_json_path ~run =
  Printf.sprintf "results/TELEMETRY_%s.json" run

let mkdir_p path =
  let rec build prefix = function
    | [] -> ()
    | seg :: rest ->
      let dir = if prefix = "" then seg else prefix ^ "/" ^ seg in
      if dir <> "" && dir <> "." then (
        try Unix.mkdir dir 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      build dir rest
  in
  match String.split_on_char '/' path with
  | [] | [ _ ] -> () (* bare filename: nothing to create *)
  | segs ->
    (* all but the last segment form the directory chain *)
    build "" (List.filteri (fun i _ -> i < List.length segs - 1) segs)

let json ?(run = "run") ~path () =
  let events = ref [] in
  let n = ref 0 in
  let emit e =
    events := e :: !events;
    incr n
  in
  let close () =
    mkdir_p path;
    let oc = open_out path in
    output_string oc "{\n";
    Printf.fprintf oc "  \"schema\": %S,\n" schema_version;
    Printf.fprintf oc "  \"run\": %S,\n" run;
    output_string oc "  \"events\": [\n";
    let total = !n in
    List.iteri
      (fun i e ->
        output_string oc "    ";
        output_string oc (Event.to_json_line e);
        if i < total - 1 then output_char oc ',';
        output_char oc '\n')
      (List.rev !events);
    output_string oc "  ]\n}\n";
    close_out oc
  in
  { emit; close }

(* Reads a file produced by the [json] sink: (schema, run, events).
   [None] when the file is absent or carries no schema line. *)
let read_json ~path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let schema = ref None in
    let run = ref "" in
    let events = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         (try
            Scanf.sscanf line "\"schema\": %S" (fun s -> schema := Some s)
          with _ -> ());
         (try Scanf.sscanf line "\"run\": %S" (fun r -> run := r)
          with _ -> ());
         match Event.of_json_line line with
         | Some e -> events := e :: !events
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    (match !schema with
    | None -> None
    | Some s -> Some (s, !run, List.rev !events))
