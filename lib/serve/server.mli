(** The PAS query server: a single-domain [Unix.select] event loop over
    a Unix-domain socket, answering {!Protocol} frames.

    Closed-form queries are answered on the loop by the {!Router} (memo
    hit: microseconds; miss: the [lib/analysis] closed forms).
    Simulation-backed queries are admitted to the process-global
    {!Cachesec_runtime.Pool} through the bounded [Pool.try_submit] gate
    — a full queue yields an [overloaded] reply instead of unbounded
    buffering. With zero workers the pool runs an admitted campaign on
    the loop before the next query line is read. Every admitted
    campaign, keyed or [cold], enters one in-flight list that a single
    completion sweep polls. Identical keyed campaigns are deduplicated:
    the second asker joins the running entry instead of starting its
    own, and every joined waiter observes the same result (or the same
    error). A cold campaign is never joined and never memoized.

    Response ordering is FIFO per connection: a response frame is
    written only when every earlier frame on that connection has been
    fully answered, so clients can pipeline frames and match replies
    positionally.

    All sockets are non-blocking: replies are buffered per connection
    and drained as [select] reports writability, so one peer that
    pipelines requests but stops reading can never stall the event
    loop (or the other connections) — it is closed once its unread
    backlog passes a few maximal frames. Individual misbehaving
    connections are always closed alone, never the daemon: a batch
    over [Protocol.max_batch_lines] gets a single-line error frame and
    a close, a reply that cannot be framed (over [Protocol.max_frame])
    closes just that connection, and connections beyond the
    [select]/FD_SETSIZE budget (~960) are refused with immediate EOF.

    Shutdown: a [shutdown] query (or SIGINT/SIGTERM) drains in-flight
    campaigns, flushes every completed batch, closes connections,
    removes the socket file and quiesces the pool, so a clean exit
    leaves no socket litter and no live domains. *)

type config = {
  socket : string;  (** Unix-domain socket path (OS limit ~107 bytes) *)
  workers : int;
      (** pool workers running campaigns; [0] runs each campaign on the
          loop, so queries behind it wait (single-client and test use) *)
  queue_bound : int;
      (** campaigns that may wait for a worker before new admissions
          are refused with [overloaded]; [0] refuses every simulation *)
  max_memo : int;  (** answer-cache entry bound *)
}

val default_queue_bound : int
(** 64. *)

val preflight : socket:string -> (unit, string) result
(** Refuse to start over an existing socket path: if a server is
    already listening, or the file is a stale socket left by a crash
    (connect refused), or the path is not a socket at all, return a
    clear error naming the situation. [Ok] when the path is free. *)

val run :
  ?telemetry:Cachesec_telemetry.Telemetry.t -> config -> (unit, string) result
(** Bind, listen and serve until [shutdown]/SIGINT/SIGTERM. Returns
    after cleanup. [Error] covers preflight failures and bind/listen
    errors; protocol errors on individual connections only close that
    connection. *)
