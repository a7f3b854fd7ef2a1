(** Last-level-cache flush-and-reload demo (the cross-core setting of
    Yarom & Falkner 2014 / Liu et al. 2015 that the paper's introduction
    cites): attacker and victim run on different cores with private L1s
    and only share the L2. The attacker classifies his reload latency
    three ways (L1 hit 0 / L2 hit 0.4 / memory 1.0) and treats an L2 hit
    as evidence the victim touched the shared line.

    A conventional SA L2 leaks exactly as in the single-level model; a
    Newcache L2 (per-context tags) does not, even though both victims
    enjoy private L1s. *)

val report : Cachesec_runtime.Run.ctx -> string
(** SA vs Newcache as the shared level, both run with [ctx.seed]. *)
