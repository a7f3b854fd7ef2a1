open Cachesec_runtime
open Cachesec_telemetry

type config = {
  socket : string;
  workers : int;
  queue_bound : int;
  max_memo : int;
}

let default_queue_bound = 64

(* --- connection / batch bookkeeping ----------------------------------- *)

type conn = {
  fd : Unix.file_descr;  (* non-blocking *)
  frames : Protocol.Frames.t;
  pending : batch Queue.t;  (* request frames, oldest first (FIFO) *)
  out : Bytes.t Queue.t;  (* encoded reply frames not yet fully written *)
  mutable out_off : int;  (* bytes of [Queue.peek out] already written *)
  mutable out_bytes : int;  (* total unwritten bytes across [out] *)
  mutable closing : bool;  (* protocol error: stop reading, close when
                              every pending batch has been written out *)
  mutable closed : bool;
}

(* One request frame: a slot per query line. A batch flushes when every
   slot is filled AND it is the oldest unflushed batch on its
   connection — that invariant is what gives clients positional
   response matching. *)
and batch = {
  conn : conn;
  slots : string option array;
  mutable left : int;
}

let deliver b i enc =
  if b.slots.(i) = None then begin
    b.slots.(i) <- Some enc;
    b.left <- b.left - 1
  end

let close_conn c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* A peer that stops reading while pipelining can make us buffer its
   replies without limit; past this backlog it is declared stalled and
   its connection closed. Generous: several maximal reply frames. *)
let max_out_backlog = 4 * Protocol.max_frame

(* Queue an encoded reply frame for (non-blocking) writing. A reply
   payload over [Protocol.max_frame] cannot be framed at all
   ([Protocol.frame] raises [Invalid_argument]); that kills only this
   connection, never the daemon — the request-side frame cap does not
   bound the reply side, so this is reachable by a hostile batch even
   with [max_batch_lines] enforced. *)
let enqueue_frame c payload =
  if not c.closed then begin
    match Protocol.frame payload with
    | b ->
      Queue.push b c.out;
      c.out_bytes <- c.out_bytes + Bytes.length b;
      if c.out_bytes > max_out_backlog then close_conn c
    | exception Invalid_argument _ -> close_conn c
  end

(* Drain as much of the out-queue as the socket accepts right now.
   Write errors (peer gone) close the connection; in-flight campaigns
   it was waiting on keep running — their results still feed the memo
   and any deduplicated co-waiters. *)
let write_out c =
  if not c.closed then begin
    let blocked = ref false in
    while (not !blocked) && (not c.closed) && not (Queue.is_empty c.out) do
      let b = Queue.peek c.out in
      let len = Bytes.length b - c.out_off in
      match Unix.write c.fd b c.out_off len with
      | 0 -> close_conn c
      | w ->
        c.out_bytes <- c.out_bytes - w;
        if w = len then begin
          ignore (Queue.pop c.out);
          c.out_off <- 0
        end
        else begin
          c.out_off <- c.out_off + w;
          blocked := true
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        blocked := true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn c
    done;
    if
      c.closing && (not c.closed)
      && Queue.is_empty c.out
      && Queue.is_empty c.pending
    then close_conn c
  end

(* Move every complete batch at the head of the connection's queue into
   its out-queue (preserving FIFO reply order), then write
   opportunistically. *)
let flush_conn c =
  let rec go () =
    match Queue.peek_opt c.pending with
    | Some b when b.left = 0 ->
      ignore (Queue.pop c.pending);
      if not c.closed then
        enqueue_frame c
          (String.concat "\n"
             (Array.to_list
                (Array.map (fun s -> Option.value s ~default:"") b.slots)));
      go ()
    | _ -> ()
  in
  go ();
  write_out c

(* --- preflight -------------------------------------------------------- *)

let preflight ~socket =
  if not (Sys.file_exists socket) then Ok ()
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () ->
          Error
            (Printf.sprintf
               "%s: a PAS query server is already listening on this socket"
               socket)
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          Error
            (Printf.sprintf
               "%s: stale socket file (no server is listening behind it — \
                probably left by a crash); remove it and retry"
               socket)
        | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
          (* Removed between the existence check and the connect. *)
          Ok ()
        | exception Unix.Unix_error _ ->
          Error
            (Printf.sprintf
               "%s: path exists and is not a connectable socket; refusing \
                to overwrite it"
               socket))
  end

(* --- the event loop --------------------------------------------------- *)

(* One campaign in flight: the starter and every dedup joiner wait on
   [fut]. Only a keyed entry can be joined; a cold one ([key = None])
   is tracked for completion alone. *)
type inflight = {
  key : string option;
  fut : string Pool.future;
  mutable waiters : (batch * int) list;  (* newest first *)
}

type state = {
  router : Router.t;
  workers : int;
  queue_bound : int;
  listener : Unix.file_descr;
  mutable conns : conn list;
  mutable inflight : inflight list;
  mutable draining : bool;  (* shutdown requested: no new input *)
}

(* Completion check of one campaign, without blocking. A completed
   campaign's result is delivered to every waiter (the starter and all
   dedup joiners — one list, one result) and memoized via the router
   when keyed; a raised campaign delivers the same error to every
   waiter and is never memoized. True once the entry can be retired. *)
let settle st e =
  let finish enc = List.iter (fun (b, i) -> deliver b i enc) e.waiters in
  match Pool.poll e.fut with
  | None -> false
  | Some enc ->
    Router.note_sim_done st.router ~key:e.key enc;
    finish enc;
    true
  | exception ex ->
    Router.note_sim_error st.router;
    finish (Protocol.encode_reply (Protocol.Error_ (Printexc.to_string ex)));
    true

let handle_line st b i line =
  match Router.route st.router line with
  | Router.Now enc -> deliver b i enc
  | Router.Quit enc ->
    st.draining <- true;
    deliver b i enc
  | Router.Sim { key; run } -> (
    match
      List.find_opt (fun e -> Option.is_some key && e.key = key) st.inflight
    with
    | Some e ->
      e.waiters <- (b, i) :: e.waiters;
      Router.note_dedup_join st.router
    | None -> (
      match Pool.try_submit ~max_pending:st.queue_bound run with
      | None ->
        Router.note_overloaded st.router;
        deliver b i (Protocol.encode_reply Protocol.Overloaded)
      | Some fut ->
        (* At [workers = 0] the campaign ran inside [try_submit]: retire
           it now, so a later line of this frame ([stats], a repeat)
           sees it counted and memoized. A pooled campaign stays in
           flight until the sweep after the frame, even if a worker has
           already finished it, so a duplicate later in the frame joins
           it whatever the timing. *)
        let e = { key; fut; waiters = [ (b, i) ] } in
        if not (st.workers = 0 && settle st e) then
          st.inflight <- e :: st.inflight))

(* A protocol error dooms the connection: answer it with a single-line
   error frame, queued as a pre-completed one-slot batch so it still
   goes out after every earlier pipelined batch, and close once
   everything pending has been written. *)
let refuse c reason =
  if not (c.closing || c.closed) then begin
    let b = { conn = c; slots = Array.make 1 None; left = 1 } in
    Queue.push b c.pending;
    deliver b 0 (Protocol.encode_reply (Protocol.Error_ reason));
    c.closing <- true
  end

(* One read may carry several frames; nothing after the frame that
   doomed a connection is processed. *)
let handle_frame st c payload =
  if c.closing || c.closed then ()
  else begin
    let lines = String.split_on_char '\n' payload in
    let n = List.length lines in
    if n > Protocol.max_batch_lines then
      (* An unbounded batch could assemble a reply frame no client
         could even receive. *)
      refuse c
        (Printf.sprintf "batch of %d queries exceeds %d lines per frame" n
           Protocol.max_batch_lines)
    else begin
      let b = { conn = c; slots = Array.make n None; left = n } in
      Queue.push b c.pending;
      List.iteri (fun i line -> handle_line st b i line) lines
    end
  end

(* Completion sweep over every campaign in flight. *)
let poll_inflight st =
  st.inflight <- List.filter (fun e -> not (settle st e)) st.inflight

let read_buf = Bytes.create 65536

let read_conn st c =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> close_conn c
  | exception
      Unix.Unix_error
        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn c
  | len ->
    (* An oversized frame declaration ends the stream: the frames
       completed before it are answered, then the refusal. *)
    let payloads, broken = Protocol.Frames.feed c.frames ~bytes:read_buf ~len in
    List.iter (handle_frame st c) payloads;
    Option.iter (refuse c) broken

(* [Unix.select] breaks past FD_SETSIZE (1024 on Linux): a descriptor
   numbered >= 1024 fails with EINVAL/EBADF and would kill the event
   loop. Cap accepted connections with a margin for the listener,
   stdio, and whatever else the process holds open; extras are
   accepted and immediately closed (the client sees a clean EOF and
   can retry). *)
let max_conns = 960

let serve_loop st ~stop =
  let rec loop () =
    st.conns <- List.filter (fun c -> not c.closed) st.conns;
    List.iter flush_conn st.conns;
    if !stop then ()
    else if
      st.draining && List.is_empty st.inflight
      && List.for_all
           (fun c ->
             c.closed || (Queue.is_empty c.pending && Queue.is_empty c.out))
           st.conns
    then ()
    else begin
      (* While campaigns are in flight we tick fast to poll their
         futures; otherwise we sit in select until traffic arrives. *)
      let timeout = if List.is_empty st.inflight then 0.5 else 0.02 in
      let read_fds =
        if st.draining then []
        else
          st.listener
          :: List.filter_map
               (fun c ->
                 if c.closed || c.closing then None else Some c.fd)
               st.conns
      in
      let write_fds =
        List.filter_map
          (fun c ->
            if (not c.closed) && c.out_bytes > 0 then Some c.fd else None)
          st.conns
      in
      (match Unix.select read_fds write_fds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready_r, ready_w, _ ->
        if List.mem st.listener ready_r then begin
          match Unix.accept st.listener with
          | fd, _ ->
            if List.length st.conns >= max_conns then
              (try Unix.close fd with Unix.Unix_error _ -> ())
            else begin
              Unix.set_nonblock fd;
              st.conns <-
                {
                  fd;
                  frames = Protocol.Frames.create ();
                  pending = Queue.create ();
                  out = Queue.create ();
                  out_off = 0;
                  out_bytes = 0;
                  closing = false;
                  closed = false;
                }
                :: st.conns
            end
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun c ->
            if (not c.closed) && List.mem c.fd ready_w then write_out c)
          st.conns;
        List.iter
          (fun c ->
            if (not c.closed) && (not c.closing) && List.mem c.fd ready_r
            then read_conn st c)
          st.conns);
      poll_inflight st;
      loop ()
    end
  in
  loop ()

let run ?(telemetry = Telemetry.null) cfg =
  match preflight ~socket:cfg.socket with
  | Error _ as e -> e
  | Ok () -> (
    if cfg.workers > 0 then Pool.ensure ~workers:cfg.workers;
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Non-blocking: a peer that resets between select and accept must
       not block the loop (accepted fds get set_nonblock individually —
       they do not inherit the listener's flag on all platforms). *)
    Unix.set_nonblock listener;
    match
      Unix.bind listener (Unix.ADDR_UNIX cfg.socket);
      Unix.listen listener 64
    with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "%s: cannot bind/listen: %s" cfg.socket
           (Unix.error_message err))
    | () ->
      let st =
        {
          router = Router.create ~telemetry ~max_memo:cfg.max_memo ();
          workers = cfg.workers;
          queue_bound = cfg.queue_bound;
          listener;
          conns = [];
          inflight = [];
          draining = false;
        }
      in
      let stop = ref false in
      let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
      let old_term =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
      in
      (* A peer that disconnects mid-write must not kill the daemon. *)
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () ->
          List.iter close_conn st.conns;
          (try Unix.close st.listener with Unix.Unix_error _ -> ());
          (try Sys.remove cfg.socket with Sys_error _ -> ());
          (* Leave the process genuinely single-domain: parked workers
             would tax any later serial measurement, and tests fork. *)
          Pool.quiesce ();
          Sys.set_signal Sys.sigint old_int;
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigpipe old_pipe)
        (fun () ->
          serve_loop st ~stop;
          Ok ()))
