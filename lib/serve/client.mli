(** Blocking client for the PAS query server.

    One {!t} is one connection; queries are batched into frames (one
    query line per reply line, positionally matched — the server
    guarantees per-connection FIFO ordering, so pipelining frames is
    safe). All calls are synchronous; raise [Unix.Unix_error] on
    transport failure and [Failure] on protocol violations (truncated
    frame, reply/query count mismatch). *)

type t

val connect : string -> t
(** Connect to a server socket path. *)

val connect_retry : ?attempts:int -> ?delay_s:float -> string -> t
(** {!connect}, retrying while the socket is missing or refusing —
    for tests and benches that race a just-forked server. Default 100
    attempts, 50 ms apart. *)

val close : t -> unit

val with_connection : string -> (t -> 'a) -> 'a
(** Connect, run, always close. *)

val round_trip_raw : t -> string list -> string list
(** Send raw query lines as one frame; return the reply lines.
    Raises [Failure] if the server closes without replying or replies
    with a different line count. *)
