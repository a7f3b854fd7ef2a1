(* The pas-tool query daemon as a child process. Every daemon started
   here is registered until it has been reaped, so that any exit path of
   the benchmark — normal return, exception, SIGINT/SIGTERM — kills it
   and removes its socket. *)

module Client = Cachesec_serve.Client

type t = { pid : int; socket : string; mutable live : bool }

let live : t list ref = ref []

(* The daemon is the real pas-tool binary, built next to this
   executable (run.sh and the self-test's dune deps both build it). *)
let exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pas_tool.exe")

let forget d =
  d.live <- false;
  live := List.filter (fun x -> x != d) !live

(* Kill (if still running), wait, and remove the socket. *)
let reap d =
  if d.live then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    forget d
  end;
  try Sys.remove d.socket with Sys_error _ -> ()

let kill_all () = List.iter reap !live

let () =
  at_exit kill_all;
  let on_signal code =
    Sys.Signal_handle
      (fun _ ->
        kill_all ();
        exit code)
  in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  (* A daemon that dies mid-run must surface as an exception on write,
     not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Relative to the working directory: the checkout path may be longer
   than a Unix socket path may be (~107 bytes). *)
let socket_dir = "results"
let counter = ref 0

(* One query, one reply line. *)
let ask d line =
  Client.with_connection d.socket (fun c -> List.hd (Client.round_trip_raw c [ line ]))

(* A bare socket, for the closed loop: it keeps a frame in flight on
   each connection, which [Client.round_trip_raw] (send, then wait)
   cannot. *)
let connect_fd d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* [Client.connect] every 50 us until the daemon accepts — fine enough
   not to round the set-up time — giving up if it exits or takes longer
   than 30 s. *)
let connect_retry d =
  let deadline = Measure.now () +. 30. in
  let rec go () =
    match Client.connect d.socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        forget d;
        failwith "pas-tool serve exited before accepting connections");
      if Measure.now () > deadline then
        failwith "pas-tool serve did not accept connections in time";
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

(* Start [pas-tool serve --jobs 2] and return it with its set-up time:
   from the spawn until the first [ping] is answered. [metrics] turns
   on the daemon's own telemetry, written to that path at exit. *)
let start ?metrics () =
  Measure.mkdir_p socket_dir;
  incr counter;
  let socket =
    Printf.sprintf "%s/bench-%d-%d.sock" socket_dir (Unix.getpid ()) !counter
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let exe = exe () in
  let args =
    [ exe; "serve"; "--jobs"; "2"; "--socket"; socket ]
    @ match metrics with Some p -> [ "--metrics"; p ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Measure.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process exe (Array.of_list args) devnull devnull
          Unix.stderr)
  in
  let d = { pid; socket; live = true } in
  live := d :: !live;
  match
    let c = connect_retry d in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.round_trip_raw c [ "ping" ])
  with
  | [ "ok" ] -> (d, Measure.now () -. t0)
  | reply ->
    reap d;
    failwith ("unexpected ping reply: " ^ String.concat "\n" reply)
  | exception e ->
    reap d;
    raise e

(* Graceful stop: [shutdown] makes the daemon drain, remove its socket
   and exit 0. Anything else is a failure; the daemon is killed then. *)
let stop d =
  if d.live then begin
    let status =
      match ask d "shutdown" with
      | "ok" ->
        let _, st = Unix.waitpid [] d.pid in
        forget d;
        Some st
      | _ | (exception _) -> None
    in
    reap d;
    if status <> Some (Unix.WEXITED 0) then
      failwith "pas-tool serve did not shut down cleanly"
  end
