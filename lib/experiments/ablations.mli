(** Ablation sweeps over the design parameters DESIGN.md calls out:
    the RF window, the RE eviction interval, the noisy cache's sigma and
    Nomo's reservation. Each sweep reports the analytical PIFG prediction
    next to a simulated attack outcome.

    Every sweep fans its trials out over the Domain-parallel trial
    runtime and is wrapped in a telemetry span [ablation:<sweep>]; the
    rendered tables are independent of [ctx.jobs]. *)

open Cachesec_runtime

val render : Run.ctx -> string
(** All five sweeps, each under its historical seed (11..15) in place
    of [ctx.seed]; [ctx] still supplies scale, jobs and telemetry:
    cache-collision against the RF window (p0 = 1/(Wa+Wb+1)) and the RE
    interval (p4 = 1 - 1/(N T)); evict-and-time against the noise sigma
    (p5 = Phi(1/(2 sigma))), Nomo's reserved ways, and LRU vs random vs
    FIFO replacement. *)
