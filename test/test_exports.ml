(* Every export has a caller. Each [val] of an interface under lib/,
   nested module signatures included, must be used outside its own
   module somewhere in lib/, bin/, bench/, benchmark/ or examples/
   (tests do not count), or be listed in exports.allow with the reason
   it stays. The test fails on any difference between the two lists, so
   a new callerless export, and an entry whose name gained a caller or
   went, are both named here.

   The match is by resolved path, not by word: the scan reads the typed
   trees that [dune build @check] writes, the .cmti of each lib/
   interface for the exports and every .cmt for the callers. A call is
   a value identifier the compiler resolved to the export, with module
   aliases followed, so a same-named word elsewhere is not one.

   Under [dune runtest] the typed trees sit next to this directory;
   [dune exec test/test_exports.exe] from the repository root reads them
   from _build/default, so build [@check] first. *)

let root, allow_file =
  if Sys.file_exists "exports.allow" then ("..", "exports.allow")
  else ("_build/default", "test/exports.allow")

(* The allowlist only shrinks: lower this with it, never raise it. *)
let allowlist_entries = 81

(* Where callers are looked for, besides lib/ itself. *)
let caller_dirs = [ "bin"; "bench"; "benchmark"; "examples" ]

let rec files suffix dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files suffix path
         else if Filename.check_suffix name suffix then [ path ]
         else [])

let typed_trees suffix dir =
  List.map Cmt_format.read_cmt (files suffix (Filename.concat root dir))

(* A wrapped library's unit [Lib__M] as [Some (Lib, M)]. *)
let split_unit name =
  let rec go i =
    if i + 1 >= String.length name then None
    else if name.[i] = '_' && name.[i + 1] = '_' then
      Some (String.sub name 0 i, String.sub name (i + 2) (String.length name - i - 2))
    else go (i + 1)
  in
  go 0

(* The exports of one lib/ interface, as [M.name] or [M.Sub.name]. *)
let exports (cmt : Cmt_format.cmt_infos) =
  let rec items prefix (s : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value v -> [ prefix ^ "." ^ v.val_name.txt ]
        | Tsig_module
            { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
          ->
          items (prefix ^ "." ^ m) s
        | _ -> [])
      s.sig_items
  in
  match (cmt.cmt_annots, split_unit cmt.cmt_modname) with
  | Interface s, Some (_, m) -> items m s
  | _ -> []

(* Adds to [used] every value path of an implementation that names a lib/
   export, spelled as [exports] spells it. A wrapped library [Lib] spells
   its module [M] as [Lib.M], [Lib__.M] or [Lib__M]; a module alias
   ([module C = Lib.Client]) is replaced by the path it names. *)
let add_uses used libs (cmt : Cmt_format.cmt_infos) =
  let wrappers = libs @ List.map (fun l -> l ^ "__") libs in
  let aliases = Hashtbl.create 16 in
  let rec parts = function
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some p -> parts p
      | None -> [ Ident.name id ])
    | Path.Pdot (p, s) -> parts p @ [ s ]
    | _ -> []
  in
  let export = function
    | w :: m :: rest when List.mem w wrappers -> Some (m :: rest)
    | u :: rest -> (
      match split_unit u with
      | Some (l, m) when List.mem l libs -> Some (m :: rest)
      | _ -> None)
    | [] -> None
  in
  let open Tast_iterator in
  let module_binding it (mb : Typedtree.module_binding) =
    (match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) -> Hashtbl.replace aliases (Ident.unique_name id) p
    | _ -> ());
    default_iterator.module_binding it mb
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter (fun n -> Hashtbl.replace used (String.concat "." n) ()) (export (parts p))
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with module_binding; expr } in
  match cmt.cmt_annots with Implementation s -> it.structure it s | _ -> ()

(* [M.name] of every export of lib/ that nothing outside its own module
   calls. Inside its own module an export is a local name, never [M.name],
   so every use [add_uses] records comes from outside. *)
let callerless () =
  let interfaces = typed_trees ".cmti" "lib" in
  let libs =
    List.sort_uniq compare
      (List.filter_map
         (fun (c : Cmt_format.cmt_infos) -> Option.map fst (split_unit c.cmt_modname))
         interfaces)
  in
  let used = Hashtbl.create 4096 in
  List.iter
    (fun dir -> List.iter (add_uses used libs) (typed_trees ".cmt" dir))
    ("lib" :: caller_dirs);
  List.concat_map exports interfaces
  |> List.filter (fun n -> not (Hashtbl.mem used n))
  |> List.sort_uniq compare

(* [(Module.name, reason)] per non-comment line of the allowlist. *)
let allowlist () =
  In_channel.with_open_bin allow_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i ->
             Some
               ( String.sub line 0 i,
                 String.trim (String.sub line i (String.length line - i)) )
           | None -> Some (line, ""))

let test_every_export_has_a_caller () =
  let allowed = allowlist () in
  let names = List.sort_uniq compare (List.map fst allowed) in
  let found = callerless () in
  let missing = List.filter (fun n -> not (List.mem n names)) found in
  let stale = List.filter (fun n -> not (List.mem n found)) names in
  let no_reason =
    List.filter_map (fun (n, r) -> if r = "" then Some n else None) allowed
  in
  Alcotest.(check (list string))
    "callerless exports not in exports.allow (delete, un-export, or list \
     with a reason)"
    [] missing;
  Alcotest.(check (list string))
    "exports.allow entries that now have a caller or are gone (remove them)"
    [] stale;
  Alcotest.(check (list string)) "exports.allow entries without a reason" []
    no_reason;
  Alcotest.(check int) "one line per entry" (List.length names)
    (List.length allowed);
  Alcotest.(check int) "allowlist size" allowlist_entries (List.length allowed)

let () =
  Alcotest.run "exports"
    [
      ( "exports",
        [
          Alcotest.test_case "every export has a caller" `Quick
            test_every_export_has_a_caller;
        ] );
    ]
