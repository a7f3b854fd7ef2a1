(* The pas-tool binary's argument handling, run as a child process.

   Count flags (trials, samples, ...) share one positive-integer
   converter: a zero, negative or non-numeric count is a usage error
   (Cmdliner's exit 124) whose message names the flag, rather than an
   uncaught exception from inside the campaign (exit 125). *)

(* The binary is built next to this test's directory (dune deps). *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pas_tool.exe")

(* Run [pas-tool args], returning its exit code and combined output. *)
let run args =
  let out = Filename.temp_file "pas_tool" ".out" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:out)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let usage_error args flag () =
  let code, text = run args in
  Alcotest.(check int) (String.concat " " args ^ ": exit code") 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "message names %s: %s" flag text)
    true
    (contains ~sub:(Printf.sprintf "option '%s'" flag) text
    && contains ~sub:"is not a positive integer" text)

let test_positive_count_runs () =
  let code, text =
    run [ "simulate"; "-c"; "sa"; "-a"; "flush-and-reload"; "--trials=300" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) ("reports the attack: " ^ text) true
    (contains ~sub:"flush-and-reload vs SA Cache" text)

let () =
  let case name args flag =
    Alcotest.test_case name `Quick (usage_error args flag)
  in
  Alcotest.run "cli"
    [
      ( "count flags",
        [
          case "simulate --trials=0"
            [ "simulate"; "-c"; "sa"; "-a"; "flush-and-reload"; "--trials=0" ]
            "--trials";
          case "simulate --trials=-5"
            [ "simulate"; "-c"; "sa"; "-a"; "flush-and-reload"; "--trials=-5" ]
            "--trials";
          case "fullkey --trials=0" [ "fullkey"; "-c"; "sa"; "--trials=0" ]
            "--trials";
          case "lastround --trials=0" [ "lastround"; "-c"; "sa"; "--trials=0" ]
            "--trials";
          case "metrics --trials=x" [ "metrics"; "--trials=x" ] "--trials";
          case "prepas --samples=0"
            [ "prepas"; "-c"; "sa"; "--monte-carlo"; "--samples=0" ]
            "--samples";
          case "serve --max-memo 0" [ "serve"; "--max-memo"; "0" ] "--max-memo";
          case "serve --max-memo=-1" [ "serve"; "--max-memo=-1" ] "--max-memo";
          Alcotest.test_case "a positive count runs" `Quick
            test_positive_count_runs;
        ] );
    ]
