(** Wire protocol of the PAS query server.

    Dependency-free and deliberately boring: a stream of
    length-prefixed frames over a Unix-domain socket, each frame
    carrying a batch of newline-separated text lines. A request frame
    holds one query per line; the matching response frame holds exactly
    one reply per query, in query order. Frames on one connection are
    answered in arrival order (the server never reorders responses), so
    a client may pipeline frames and match responses positionally.

    {2 Frame layout}

    {v
    +----------------+---------------------------+
    | length: 4 bytes| payload: <length> bytes   |
    | big-endian     | UTF-8 text, one query or  |
    | payload length | reply per '\n'-joined line|
    +----------------+---------------------------+
    v}

    Payloads are capped at {!max_frame} bytes; oversized frames are a
    protocol error and the server closes the connection.

    {2 Query lines}

    [<verb> key=value ... [cold]] — e.g.
    [pas cache=sa attack=prime-and-probe],
    [prepas cache=rp k=32 policy=lru],
    [table attack=cache-collision],
    [validate cache=sa attack=flush-and-reload seed=42 quick=1],
    [ping], [stats], [shutdown].

    The [cold] flag bypasses the memo (no read, no write) and, for
    simulation-backed queries, in-flight deduplication — it exists so
    benchmarks can measure the recompute path repeatably.

    Cache arguments accept the paper architectures by name plus
    overrides: [policy=lru|random|fifo|mru|lfu|mfu|plru]
    ({!Cachesec_cache.Policy.names}), [ways=N], [sigma=F] (noisy),
    [nbits=N] (newcache), [partitions=N] (sp), [reserved=N] (nomo),
    [back=N]/[fwd=N] (rf), [interval=N] (re), and geometry
    [lines=N]/[lb=N]. Defaults are the paper's Table 4 values; parsing
    expands every default, so equivalent spellings of the same
    question canonicalize to the same {!query} value, and
    {!canonical} spells that value as the one line the server's memo
    is keyed by. Overrides outside the range the cache model accepts
    are decode errors, so an error is the only answer to a question
    the model refuses. *)

open Cachesec_cache
open Cachesec_analysis

type query =
  | Ping
  | Stats
  | Shutdown  (** graceful: drain in-flight work, reply, then exit *)
  | Pas of {
      spec : Spec.t;
      config : Config.t;
      attack : Attack_type.t;
      cold : bool;
    }
  | Prepas of { spec : Spec.t; k : int; cold : bool }
  | Resilience of { spec : Spec.t; attack : Attack_type.t; cold : bool }
  | Table of { attack : Attack_type.t; config : Config.t; cold : bool }
      (** all nine architectures' PAS under one attack
          ({!Cachesec_analysis.Pas_tables.rows_for}) — the heaviest
          closed form served *)
  | Validate of {
      spec : Spec.t;
      attack : Attack_type.t;
      seed : int;
      quick : bool;
      cold : bool;
    }  (** simulation-backed: one validation-matrix cell *)

type reply =
  | Ok_
  | Overloaded
      (** backpressure: the simulation admission queue is full; retry
          later. Never sent for closed-form queries. *)
  | Error_ of string
  | Pas_v of float
  | Prepas_v of float
  | Resilience_v of { verdict : string; pas : float }
  | Table_v of (string * float) list  (** (arch name, PAS) per row *)
  | Validate_v of {
      pas : float;
      predicted_leak : bool;
      recovered : bool;
      separation : float;
      agrees : bool;
    }
  | Stats_v of (string * float) list

val cold : query -> bool
(** The [cold] flag ([false] for ping/stats/shutdown). *)

val encode_query : query -> string
val decode_query : string -> (query, string) result
(** One line, no newline. [decode_query (encode_query q) = Ok q]:
    the encoder spells every field, the decoder expands every default.
    [encode_query] raises [Invalid_argument] on a [Pas] whose
    [config.ways] disagrees with the spec's way count (standard 8 for
    [Newcache]): the wire form carries a single [ways=] argument, so
    such a value cannot round-trip and must not be sent silently as a
    different question. [decode_query] refuses an override the cache
    model refuses: [ways] not dividing the query's [lines] (512 unless
    given), [partitions] below 2 or not dividing the set count,
    a negative [reserved], a negative [back]/[fwd], a
    non-positive [interval], a negative or non-finite [sigma], an
    [nbits] whose logical cache overflows; and, for [validate], whose
    campaign builds the engine, a Nomo [reserved] not below [ways]. *)

val canonical : query -> string option
(** The question a query asks, as one string: {!encode_query}'s line
    without [cold] ([None] for ping, stats and shutdown) — the memo
    key. By the round trip above, queries that differ in a field other
    than [cold] get different strings; equal ones get the same string
    ([sigma] [-0] and [0] are spelled apart, as distinct doubles). *)

val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result
(** One line, no newline. Floats survive the round trip bit-exactly
    ([%.17g]). An [Error_] message is sent with every byte outside
    printable ASCII written as [\xNN], so an error that quotes the
    client's bytes is still one line of UTF-8 text. *)

(** {2 Framing} *)

val max_frame : int
(** 4 MiB payload cap. *)

val max_batch_lines : int
(** 4096 — the most query lines a request frame may carry. Reply lines
    are usually far bigger than their query lines, so the request-side
    {!max_frame} alone does not bound the response frame; this cap is
    what keeps well-formed batches' replies encodable. The server
    answers an oversized batch with a single-line [error] frame and
    closes the connection. *)

val frame : string -> bytes
(** Length prefix + payload, ready to write. Raises [Invalid_argument]
    beyond {!max_frame}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking write of {!frame}, looping over partial writes. *)

val read_frame : Unix.file_descr -> string option
(** Blocking read of one whole frame; [None] on clean EOF. Raises
    [Failure] on a truncated or oversized frame. *)

(** Incremental frame extraction for the server's select loop: feed
    whatever bytes arrived, get back every frame completed so far. *)
module Frames : sig
  type t

  val create : unit -> t

  val feed : t -> bytes:Bytes.t -> len:int -> (string list, string) result
  (** Append [len] bytes and extract complete frame payloads, in order.
      Each byte is copied once, so the cost is linear in the bytes
      received however the reads split them. [Error] on an oversized
      frame declaration (the connection is beyond recovery — close
      it). *)

  val pending_bytes : t -> int
  (** Buffered bytes not yet forming a complete frame. *)
end
