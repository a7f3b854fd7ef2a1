type scenario = { victim_pid : int; victim_lines : (int * int) list }

let default_scenario = { victim_pid = 0; victim_lines = [] }

let with_ways (cfg : Config.t) ways =
  Config.v ~line_bytes:cfg.line_bytes ~lines:cfg.lines ~ways

let build ?(config = Config.standard) spec scenario ~rng =
  match spec with
  | Spec.Sa { ways; policy } ->
    Sa.engine (Sa.create ~config:(with_ways config ways) ~policy ~rng ())
  | Spec.Sp { ways; policy; partitions } ->
    Sp.engine
      (Sp.create_two_domain ~config:(with_ways config ways) ~policy ~partitions
         ~victim_pid:scenario.victim_pid ~victim_lines:scenario.victim_lines ~rng
         ())
  | Spec.Pl { ways; policy } ->
    Pl.engine (Pl.create ~config:(with_ways config ways) ~policy ~rng ())
  | Spec.Nomo { ways; policy; reserved } ->
    Nomo.engine
      (Nomo.create ~config:(with_ways config ways) ~policy ~reserved
         ~protected_pids:[ scenario.victim_pid ] ~rng ())
  | Spec.Newcache { extra_bits } ->
    let config = with_ways config config.Config.lines in
    Newcache.engine (Newcache.create ~config ~extra_bits ~rng ())
  | Spec.Rp { ways; policy } ->
    Rp.engine (Rp.create ~config:(with_ways config ways) ~policy ~rng ())
  | Spec.Rf { ways; policy; back; fwd } ->
    Rf.engine
      (Rf.create ~config:(with_ways config ways) ~policy
         ~windows:[ (scenario.victim_pid, (back, fwd)) ] ~rng ())
  | Spec.Re { ways; policy; interval } ->
    Re.engine (Re.create ~config:(with_ways config ways) ~policy ~interval ~rng ())
  | Spec.Noisy { ways; policy; sigma } ->
    Noisy.engine
      (Noisy.create ~config:(with_ways config ways) ~policy ~sigma ~rng ())

let sampler spec scenario ~rng =
  let engine = ref None in
  fun () ->
    let rng = Cachesec_stats.Rng.split rng in
    match !engine with
    | Some e ->
      e.Engine.reset ~rng;
      e
    | None ->
      let e = build spec scenario ~rng in
      engine := Some e;
      e
