(** Software mitigations (the paper's Section 1.1 discussion of [34],
    [16], [12]): prefetching the security-critical data at the start of
    each operation, optionally pinned (PL's prefetch-and-lock).

    The experiment shows what the paper argues: prefetching defeats the
    reuse-based attacks at operation granularity (Type 3, and Type 4 as
    observed per operation) but not the eviction-based ones — the
    attacker simply evicts {e after} the prefetch — while
    prefetch-and-lock (PL / Catalyst-style pinning) also stops Types 1
    and 2 at the price of pinned capacity. *)

type outcome = { label : string; recovered : bool }

val report : Cachesec_runtime.Run.ctx -> string
(** Six cells on the conventional SA cache (collision, flush-reload and
    evict-and-time, each without/with victim prefetching) plus the
    locked-PL evict-and-time row, each cell seeded with [ctx.seed]. *)
