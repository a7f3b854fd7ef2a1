(* Every export has a caller. Each [val] of an interface under lib/ must
   be used outside its own module somewhere in lib/, bin/, bench/,
   benchmark/ or examples/ (tests do not count), or be listed in
   exports.allow with the reason it stays. The test fails on any
   difference between the two lists, so a new callerless export, and an
   entry whose name gained a caller or went, are both named here.

   The match is by word, with comments and string literals removed: a
   name that another module happens to use for something else counts as
   called. The scan finds dead exports; it does not prove one live.

   Under [dune runtest] the sources are copied next to this directory;
   [dune exec test/test_exports.exe] from the repository root scans the
   checkout itself. *)

let root =
  if Sys.file_exists "exports.allow" then Filename.parent_dir_name
  else Filename.current_dir_name

let allow_file =
  Filename.concat root (Filename.concat "test" "exports.allow")

(* The allowlist only shrinks: lower this with it, never raise it. *)
let allowlist_entries = 71

(* Where callers are looked for, besides lib/ itself. *)
let caller_dirs = [ "bin"; "bench"; "benchmark"; "examples" ]

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory path then sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

(* The text with comments (nested, strings inside them skipped) and
   string and character literals blanked. *)
let code s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i j = Bytes.fill b i (min j n - i) ' ' in
  (* Index just past the string literal opening at [i]. *)
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let rec comment_end depth i =
    if i >= n then n
    else if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then
      comment_end (depth + 1) (i + 2)
    else if s.[i] = '*' && i + 1 < n && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if s.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' ->
        let j = comment_end 1 (i + 2) in
        blank i j;
        go j
      | '"' ->
        let j = string_end (i + 1) in
        blank i j;
        go j
      | '\'' when i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' ->
        blank i (i + 3);
        go (i + 3)
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
        let j =
          match String.index_from_opt s (i + 3) '\'' with
          | Some k -> k + 1
          | None -> n
        in
        blank i j;
        go j
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string b

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The words of the text, in order. *)
let words s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident s.[i] then begin
      let j = ref i in
      while !j < n && is_ident s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* The [val]s an interface declares (nested signatures included). *)
let rec vals = function
  | "val" :: name :: rest when Char.lowercase_ascii name.[0] = name.[0] ->
    name :: vals rest
  | _ :: rest -> vals rest
  | [] -> []

(* [Module.name] of every export of lib/ that no file outside its own
   module mentions. A module is its .ml and .mli. *)
let callerless () =
  let scan d =
    List.map
      (fun f -> (f, words (code (read f))))
      (sources (Filename.concat root d))
  in
  let lib = scan "lib" in
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (f, words) ->
      let m = Filename.remove_extension f in
      List.iter
        (fun w ->
          if not (List.mem m (Hashtbl.find_all users w)) then
            Hashtbl.add users w m)
        words)
    (lib @ List.concat_map scan caller_dirs);
  List.concat_map
    (fun (f, words) ->
      if not (Filename.check_suffix f ".mli") then []
      else
        let m = Filename.remove_extension f in
        List.filter_map
          (fun name ->
            if List.exists (fun u -> u <> m) (Hashtbl.find_all users name) then
              None
            else
              Some
                (String.capitalize_ascii (Filename.basename m) ^ "." ^ name))
          (vals words))
    lib
  |> List.sort_uniq compare

(* [(Module.name, reason)] per non-comment line of the allowlist. *)
let allowlist () =
  read allow_file |> String.split_on_char '\n'
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
