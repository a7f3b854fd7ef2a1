open Cachesec_stats
open Cachesec_cache
open Cachesec_report

let workloads =
  [
    ("loop 256", Workload.Loop { start = 0; length = 256 });
    ("loop 768", Workload.Loop { start = 0; length = 768 });
    ("stride 64x48", Workload.Strided { start = 0; stride = 64; count = 48 });
    ("zipf 2048", Workload.Zipf { base = 0; range = 2048; exponent = 1.0 });
    ("uniform 1024", Workload.Uniform { base = 0; range = 1024 });
  ]

let scenario =
  (* The whole workload is victim data so SP homes it in the victim
     partition (pid 0 gets half the cache - the paper's capacity cost). *)
  { Factory.victim_pid = 0; victim_lines = [ (0, Cachesec_attacks.Attacker.default_base - 1) ] }

let measure ?(seed = 31) ?(accesses = 60000) spec pattern =
  let rng = Rng.create ~seed in
  let engine = Factory.build spec scenario ~rng:(Rng.split rng) in
  Workload.hit_rate engine ~pid:0 pattern ~rng:(Rng.split rng) ~accesses

let measure_engine ?(seed = 31) ?(accesses = 60000) engine pattern =
  let rng = Rng.create ~seed in
  Workload.hit_rate engine ~pid:0 pattern ~rng:(Rng.split rng) ~accesses

let model_table ?(seed = 73) ?(accesses = 120000) () =
  let open Cachesec_analysis in
  let n = 2048 and cache_lines = 512 in
  let rows =
    List.map
      (fun exponent ->
        let pop = Perf_model.zipf_popularity ~n ~exponent in
        let model_lru = Perf_model.lru_hit_rate ~popularity:pop ~cache_lines in
        let model_rand =
          Perf_model.random_hit_rate ~popularity:pop ~cache_lines
        in
        let simulate policy =
          let rng = Rng.create ~seed in
          let sa =
            Sa.create ~config:Config.fully_associative ~policy
              ~rng:(Rng.split rng) ()
          in
          Workload.hit_rate (Sa.engine sa) ~pid:0
            (Workload.Zipf { base = 0; range = n; exponent })
            ~rng:(Rng.split rng) ~accesses
        in
        [
          Printf.sprintf "%.2g" exponent;
          Printf.sprintf "%.3f" model_lru;
          Printf.sprintf "%.3f" (simulate Policy.Lru);
          Printf.sprintf "%.3f" model_rand;
          Printf.sprintf "%.3f" (simulate Policy.Random);
        ])
      [ 0.6; 0.8; 1.0; 1.2 ]
  in
  "IRM hit-rate models vs the simulator (fully associative, 512 lines,\n\
   Zipf over 2048 lines): Che's approximation for LRU, Fagin-King for\n\
   random replacement.\n"
  ^ Table.render
      ~headers:
        [ "zipf exp"; "LRU model"; "LRU sim"; "random model"; "random sim" ]
      ~rows ()

let hit_rate_table ?(seed = 31) ?(accesses = 60000) () =
  let headers = "Cache" :: List.map fst workloads in
  let row_for name cell =
    name :: List.map (fun (_, w) -> Printf.sprintf "%.3f" (cell w)) workloads
  in
  let rows =
    List.map
      (fun spec ->
        row_for (Spec.display_name spec) (fun w -> measure ~seed ~accesses spec w))
      Spec.all_paper
    @ [
        (let rng = Rng.create ~seed in
         let skewed = Skewed.engine (Skewed.create ~rng:(Rng.split rng) ()) in
         row_for "Skewed (ext.)" (fun w -> measure_engine ~seed ~accesses skewed w));
      ]
  in
  "Victim hit rate per architecture and workload (higher = better; the\n\
   security/performance trade-off the paper describes qualitatively):\n"
  ^ Table.render ~headers ~rows ()
  ^ "Notes: SP pays the halved-capacity cost on every workload; RF's random\n\
     fill wrecks skewed-popularity reuse (zipf) though it accidentally\n\
     defeats cyclic thrashing on the over-capacity loop; RE's direct map\n\
     dies on strided conflicts; Newcache and the skewed extension behave\n\
     like a fully-associative cache.\n"
