open Cachesec_runtime

type outcome = {
  rows : Bench_record.row list;
  table : string;
  gates : string;
}

type t = {
  name : string;
  title : string;
  results : string;
  baseline : string;
  schema : string;
  run : Run.ctx -> outcome;
}

let suite name ~title ~schema run =
  let baseline = Printf.sprintf "bench/BENCH_%s.baseline.json" name in
  {
    name;
    title;
    results = Printf.sprintf "results/BENCH_%s.json" name;
    baseline;
    schema;
    run = run ~baseline;
  }

let all =
  [
    suite "cache" ~schema:Throughput.schema
      ~title:"Simulator throughput (accesses/sec per architecture x policy)"
      (fun ~baseline ctx ->
        let entries = Throughput.bench ctx in
        {
          rows = List.map Throughput.to_row entries;
          table = Throughput.render ~baseline entries;
          gates = Throughput.gate ~seed:"bench/BENCH_cache.seed.json" entries;
        });
    (* Trials/sec through each attack's run_span on the batched replay
       path, gated against the pre-batching harness's v1 numbers. *)
    suite "attacks" ~schema:Throughput.Attacks.schema
      ~title:"Attack throughput (trials/sec per attack class x arch x path)"
      (fun ~baseline ctx ->
        let entries = Throughput.Attacks.bench ctx in
        {
          rows = List.map Throughput.Attacks.to_row entries;
          table = Throughput.Attacks.render ~baseline entries;
          gates =
            Throughput.Attacks.gate ~seed:"bench/BENCH_attacks.seed.json"
              entries;
        });
    (* Sequential vs pipelined campaigns, then fixed-count vs
       run-to-confidence matrix: both row kinds share one file. *)
    suite "e2e" ~schema:Throughput.E2e.schema
      ~title:
        "End-to-end throughput (sequential vs pipelined campaigns; \
         fixed-count vs run-to-confidence matrix)"
      (fun ~baseline ctx ->
        let e2e = Throughput.E2e.bench ctx in
        let adaptive = Throughput.Adaptive.bench ctx in
        {
          rows =
            List.map Throughput.E2e.to_row e2e
            @ List.map Throughput.Adaptive.to_row adaptive;
          table =
            Throughput.E2e.render ~baseline e2e
            ^ Throughput.Adaptive.render ~baseline adaptive;
          gates = Throughput.E2e.gate e2e ^ Throughput.Adaptive.gate adaptive;
        });
    (* A re-executed zero-worker server driven over its real socket. *)
    suite "serve" ~schema:Serve_bench.schema
      ~title:"PAS query server throughput (memo-hit / cold / sim mixes)"
      (fun ~baseline ctx ->
        let entries = Serve_bench.bench ctx in
        {
          rows = List.map Serve_bench.to_row entries;
          table = Serve_bench.render ~baseline entries;
          gates = Serve_bench.gate entries;
        });
  ]
