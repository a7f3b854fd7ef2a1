(* Tests for the reporting layer: tables, plots, CSV. *)

open Cachesec_report

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Table ------------------------------------------------------------- *)

let test_table_render () =
  let s =
    Table.render ~headers:[ "name"; "value" ]
      ~rows:[ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
      ()
  in
  Alcotest.(check bool) "has header" true (contains s "name");
  Alcotest.(check bool) "has cells" true (contains s "alpha" && contains s "22");
  (* Every rendered line has equal width. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_padding () =
  let s =
    Table.render ~headers:[ "a"; "b"; "c" ] ~rows:[ [ "only-one" ] ] ()
  in
  Alcotest.(check bool) "short row padded" true (contains s "only-one")

let test_table_row_too_long () =
  Alcotest.check_raises "long row"
    (Invalid_argument "Table.render: row longer than header") (fun () ->
      ignore (Table.render ~headers:[ "a" ] ~rows:[ [ "x"; "y" ] ] ()))

let test_table_aligns_mismatch () =
  Alcotest.check_raises "aligns mismatch"
    (Invalid_argument "Table.render: aligns length mismatch") (fun () ->
      ignore (Table.render ~aligns:[ Table.Left ] ~headers:[ "a"; "b" ] ~rows:[] ()))

let test_fmt_prob () =
  Alcotest.(check string) "zero" "0" (Table.fmt_prob 0.);
  Alcotest.(check string) "one" "1.0" (Table.fmt_prob 1.);
  Alcotest.(check string) "eighth" "0.125" (Table.fmt_prob 0.125);
  Alcotest.(check string) "paper sci" "1.95e-3" (Table.fmt_prob 1.953125e-3);
  Alcotest.(check string) "tiny" "3.81e-6" (Table.fmt_prob 3.8147e-6);
  Alcotest.(check string) "re style" "0.9998" (Table.fmt_prob 0.99980468)

(* --- Plot --------------------------------------------------------------- *)

let test_plot_render () =
  let s =
    Plot.render ~x_label:"x" ~y_label:"y"
      [
        { Plot.name = "first"; points = [ (0., 0.); (1., 1.); (2., 4.) ] };
        { Plot.name = "second"; points = [ (0., 4.); (2., 0.) ] };
      ]
  in
  Alcotest.(check bool) "first glyph" true (contains s "*");
  Alcotest.(check bool) "second glyph" true (contains s "o");
  Alcotest.(check bool) "legend" true (contains s "first" && contains s "second");
  Alcotest.(check bool) "labels" true (contains s "x" && contains s "y")

let test_plot_empty () =
  Alcotest.(check string) "no data" "(no data to plot)\n" (Plot.render [])

let test_plot_constant_series () =
  (* A constant series must not divide by zero. *)
  let s = Plot.render [ { Plot.name = "flat"; points = [ (0., 1.); (5., 1.) ] } ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_plot_bars () =
  let s = Plot.render_bars [ ("aa", 2.); ("b", 4.) ] in
  Alcotest.(check bool) "scaled" true (contains s "####");
  Alcotest.(check string) "empty" "(no data)\n" (Plot.render_bars [])

(* --- Csv ----------------------------------------------------------------- *)

(* What [Csv.write] puts in a file. *)
let csv_document ~header ~rows =
  let path = Filename.temp_file "cachesec_test" ".csv" in
  Csv.write ~path ~header ~rows;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_field "a\nb");
  Alcotest.(check string) "line" "a,\"b,c\",d\n"
    (csv_document ~header:[ "a"; "b,c"; "d" ] ~rows:[])

let test_csv_to_string () =
  let s = csv_document ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n3,4\n" s

let test_csv_write_and_read () =
  let path = Filename.temp_file "cachesec_test" ".csv" in
  Csv.write ~path ~header:[ "a" ] ~rows:[ [ "hello" ] ];
  let ic = open_in path in
  let l1 = input_line ic and l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "a" l1;
  Alcotest.(check string) "row" "hello" l2

let test_csv_creates_directories () =
  let dir = Filename.temp_file "cachesec_dir" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "nested") "f.csv" in
  Csv.write ~path ~header:[ "a" ] ~rows:[];
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Sys.remove path

let prop_escape_never_breaks_commas =
  qtest "escaped fields contain balanced quotes"
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      let e = Csv.escape_field s in
      let quotes = String.fold_left (fun a c -> if c = '"' then a + 1 else a) 0 e in
      quotes mod 2 = 0)

(* --- Svg ------------------------------------------------------------------ *)

let test_svg_chart () =
  let doc =
    Svg.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
      [
        { Plot.name = "a"; points = [ (0., 0.); (1., 1.) ] };
        { Plot.name = "b"; points = [ (0., 1.); (1., 0.) ] };
      ]
  in
  Alcotest.(check bool) "svg root" true (contains doc "<svg");
  Alcotest.(check bool) "two polylines" true
    (let rec count i acc =
       if i + 9 > String.length doc then acc
       else if String.sub doc i 9 = "<polyline" then count (i + 9) (acc + 1)
       else count (i + 1) acc
     in
     count 0 0 = 2);
  Alcotest.(check bool) "legend" true (contains doc ">a</text>");
  Alcotest.(check bool) "escaped label ok" true
    (contains (Svg.line_chart [ { Plot.name = "a<b"; points = [ (0., 0.) ] } ])
       "a&lt;b")

let test_svg_empty () =
  Alcotest.(check bool) "placeholder" true
    (contains (Svg.line_chart []) "no data")

let test_svg_write () =
  let path = Filename.temp_file "cachesec_svg" ".svg" in
  Svg.write ~path (Svg.line_chart [ { Plot.name = "a"; points = [ (0., 1.) ] } ]);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "written" true (contains first "<svg")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "padding" `Quick test_table_padding;
          Alcotest.test_case "row too long" `Quick test_table_row_too_long;
          Alcotest.test_case "aligns mismatch" `Quick test_table_aligns_mismatch;
          Alcotest.test_case "fmt_prob" `Quick test_fmt_prob;
        ] );
      ( "plot",
        [
          Alcotest.test_case "render" `Quick test_plot_render;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "constant series" `Quick test_plot_constant_series;
          Alcotest.test_case "bars" `Quick test_plot_bars;
        ] );
      ( "svg",
        [
          Alcotest.test_case "chart" `Quick test_svg_chart;
          Alcotest.test_case "empty" `Quick test_svg_empty;
          Alcotest.test_case "write" `Quick test_svg_write;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
          Alcotest.test_case "write & read" `Quick test_csv_write_and_read;
          Alcotest.test_case "creates directories" `Quick test_csv_creates_directories;
          prop_escape_never_breaks_commas;
        ] );
    ]
