open Cachesec_stats
open Cachesec_telemetry

type ctx = {
  seed : int;
  jobs : int option;
  telemetry : Telemetry.t;
  parent : Telemetry.span;
  quick : bool;
}

let default =
  {
    seed = 42;
    jobs = None;
    telemetry = Telemetry.null;
    parent = Telemetry.null_span;
    quick = false;
  }

let make ?jobs ?(telemetry = Telemetry.null) ?(quick = false) ~seed () =
  { seed; jobs; telemetry; parent = Telemetry.null_span; quick }

let with_seed seed ctx = { ctx with seed }
let with_jobs jobs ctx = { ctx with jobs = Some jobs }
let with_parent parent ctx = { ctx with parent }
let quick ctx = { ctx with quick = true }

(* Batch 0 reuses the experiment's root seed verbatim, so a run that
   fits in a single batch is bit-identical to the legacy monolithic
   serial loop (and to every result recorded before the trial-runtime
   refactor). Later batches draw well-separated seeds from the pure
   hash. This is the single point of seed derivation for the whole
   experiments layer. *)
let batch_seed ctx i = if i = 0 then ctx.seed else Rng.derive_seed ctx.seed i

(* --- shared CLI wiring ------------------------------------------------ *)

let of_cmdline ?(default_seed = 42) ?(run = "run") () =
  let open Cmdliner in
  let seed =
    Arg.(
      value & opt int default_seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trial counts.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Shard Monte-Carlo trials over $(docv) domains (0 = one per \
             core). Results are independent of $(docv).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Stream human-readable telemetry (spans, batch progress, \
             per-domain utilisation) to stderr.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write machine-readable telemetry (schema telemetry/v1) to \
             $(docv) at exit.")
  in
  let build seed quick_flag jobs progress metrics =
    let sinks =
      (if progress then [ Sink.progress () ] else [])
      @
      match metrics with
      | Some path -> [ Sink.json ~run ~path () ]
      | None -> []
    in
    let telemetry =
      match sinks with
      | [] -> Telemetry.null
      | [ s ] -> Telemetry.make ~sink:s ()
      | ss -> Telemetry.make ~sink:(Sink.tee ss) ()
    in
    (* The JSON sink only materialises its file at close; closing from
       [at_exit] covers every exit path of the CLI, and [close] is
       idempotent if the command also closes explicitly. *)
    if not (Telemetry.is_null telemetry) then
      at_exit (fun () -> Telemetry.close telemetry);
    {
      seed;
      jobs = Some jobs;
      telemetry;
      parent = Telemetry.null_span;
      quick = quick_flag;
    }
  in
  Term.(const build $ seed $ quick $ jobs $ progress $ metrics)
