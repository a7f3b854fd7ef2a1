open Cachesec_analysis
open Cachesec_report

let multi_line_report ?(lines = 4) () =
  let rows =
    List.map
      (fun (arch, single, multi) ->
        [ arch; Table.fmt_prob single; Table.fmt_prob multi ])
      (Multi.advantage_table ~lines ())
  in
  Printf.sprintf
    "Multi-line refinement (paper's Table 6 note): Type 1 PAS when the\n\
     attack needs %d distinct victim lines evicted. Deterministic caches\n\
     are unchanged; randomization compounds.\n" lines
  ^ Table.render
      ~headers:[ "Cache"; "1 line"; Printf.sprintf "%d lines" lines ]
      ~rows ()
