open Cachesec_cache
open Cachesec_crypto

type t = { base_line : int; cfg : Config.t; epl : int; epl_shift : int; lpt : int }
(* [epl] (entries per line), its log2 [epl_shift] and [lpt] (lines per
   table) are precomputed at [create] so the per-lookup hot path
   [line_of_packed] is shifts, masks and one multiply on immediates. *)

let create ?(base_line = 0) cfg =
  if base_line < 0 then invalid_arg "Aes_layout.create: negative base line";
  if cfg.Config.line_bytes > Ttables.table_bytes then
    invalid_arg "Aes_layout.create: line larger than a table";
  if cfg.Config.line_bytes < Ttables.entry_bytes then
    invalid_arg "Aes_layout.create: line narrower than a table entry";
  (* Both are powers of two ([Config.v]; 4-byte entries), so [epl] is. *)
  let epl = cfg.Config.line_bytes / Ttables.entry_bytes in
  let rec log2 k = if 1 lsl k = epl then k else log2 (k + 1) in
  {
    base_line;
    cfg;
    epl;
    epl_shift = log2 0;
    lpt = Ttables.table_bytes / cfg.Config.line_bytes;
  }

let base_line t = t.base_line
let config t = t.cfg
let entries_per_line t = t.epl
let lines_per_table t = t.lpt

let line_count t = Ttables.table_count * t.lpt

let line_of_packed t a =
  (* Unchecked by design: [a] comes from [Aes.encrypt_traced_into],
     whose packed accesses are well-formed by construction. *)
  t.base_line + ((a lsr 8) * t.lpt) + ((a land 0xff) lsr t.epl_shift)

let line_of_entry t ~table ~index =
  if table < 0 || table >= Ttables.table_count then
    invalid_arg "Aes_layout.line_of_entry: bad table";
  if index < 0 || index >= Ttables.entries_per_table then
    invalid_arg "Aes_layout.line_of_entry: bad index";
  t.base_line + (table * lines_per_table t) + (index / entries_per_line t)

let line_of_access t (a : Aes.access) = line_of_entry t ~table:a.table ~index:a.index

let table_lines t ~table =
  List.init (lines_per_table t) (fun i ->
      t.base_line + (table * lines_per_table t) + i)

let all_lines t =
  List.concat_map
    (fun table -> table_lines t ~table)
    (List.init Ttables.table_count Fun.id)

let line_ranges t =
  let n = Ttables.table_count * lines_per_table t in
  [ (t.base_line, t.base_line + n - 1) ]

let set_of_entry t ~table ~index =
  Address.set_index t.cfg (line_of_entry t ~table ~index)

let entry_line_of_index t index = index / entries_per_line t
