type t = {
  table : (string, string) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  max_entries : int;
}

let create ?(max_entries = 65536) () =
  if max_entries < 1 then invalid_arg "Memo.create: max_entries must be >= 1";
  { table = Hashtbl.create 256; order = Queue.create (); max_entries }

let find t k = Hashtbl.find_opt t.table k

let add t k v =
  if Hashtbl.mem t.table k then Hashtbl.replace t.table k v
  else begin
    if Hashtbl.length t.table >= t.max_entries then begin
      (* Evict the oldest insertion. Overwrites don't touch [order], so
         a queue head may already be gone from the table; skip those. *)
      let rec evict () =
        match Queue.take_opt t.order with
        | None -> ()
        | Some old ->
          if Hashtbl.mem t.table old then Hashtbl.remove t.table old
          else evict ()
      in
      evict ()
    end;
    Hashtbl.add t.table k v;
    Queue.push k t.order
  end

let size t = Hashtbl.length t.table
