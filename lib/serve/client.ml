type t = { fd : Unix.file_descr; mutable open_ : bool }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; open_ = true }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect_retry ?(attempts = 100) ?(delay_s = 0.05) socket =
  let rec go n =
    match connect socket with
    | c -> c
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 1 ->
      Unix.sleepf delay_s;
      go (n - 1)
  in
  go attempts

let close c =
  if c.open_ then begin
    c.open_ <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let with_connection socket f =
  let c = connect socket in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

let round_trip_raw c lines =
  if lines = [] then []
  else begin
    Protocol.write_frame c.fd (String.concat "\n" lines);
    match Protocol.read_frame c.fd with
    | None -> failwith "Client: server closed the connection before replying"
    | Some payload ->
      let replies = String.split_on_char '\n' payload in
      if List.length replies <> List.length lines then
        failwith
          (Printf.sprintf "Client: sent %d queries, got %d replies"
             (List.length lines) (List.length replies));
      replies
  end
