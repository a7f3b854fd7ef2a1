(* The host snapshot recorded with every result: numbers from different
   hosts, compilers or build profiles are not comparable. *)

type t = {
  nproc : int;
  ocaml : string;
  flambda : bool;
  profile : string;
  commit : string;
  loadavg : string;
}

(* The checkout the benchmark runs in may not be a git repository. *)
let commit () =
  let first path =
    match Measure.read_lines path with l :: _ -> Some (String.trim l) | [] -> None
  in
  match first ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    match Scanf.sscanf head "ref: %s" Fun.id with
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> head
    | ref_ -> (
      match first (".git/" ^ ref_) with
      | Some h -> h
      | None ->
        List.fold_left
          (fun acc l ->
            match String.split_on_char ' ' l with
            | [ h; r ] when r = ref_ -> h
            | _ -> acc)
          "unknown"
          (Measure.read_lines ".git/packed-refs")))

let snapshot () =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    flambda = Build_info.flambda;
    profile = Build_info.profile;
    commit = commit ();
    loadavg =
      (match Measure.read_lines "/proc/loadavg" with
      | l :: _ -> (
        match String.split_on_char ' ' l with
        | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
        | _ -> l)
      | [] -> "unknown");
  }

let to_json h =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %S, \"flambda\": %b, \"profile\": %S, \
     \"commit\": %S, \"loadavg\": %S}"
    h.nproc h.ocaml h.flambda h.profile h.commit h.loadavg
