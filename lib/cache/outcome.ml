type event = Hit | Miss

type t = {
  event : event;
  cached : bool;
  fetched : int option;
  evicted : (int * int) option;
  also_evicted : (int * int) option;
}

let hit =
  { event = Hit; cached = true; fetched = None; evicted = None; also_evicted = None }

let miss_uncached =
  {
    event = Miss;
    cached = false;
    fetched = None;
    evicted = None;
    also_evicted = None;
  }

let fill ~fetched ~evicted =
  { event = Miss; cached = true; fetched = Some fetched; evicted; also_evicted = None }

let event_to_string = function Hit -> "hit" | Miss -> "miss"

(* Matches, not [=]: polymorphic equality is a [caml_equal] call even on
   constant constructors without flambda, and these two run once per
   probed access in the attack loops. *)
let is_hit t = match t.event with Hit -> true | Miss -> false
let is_miss t = match t.event with Miss -> true | Hit -> false

let evictions t =
  match (t.evicted, t.also_evicted) with
  | None, None -> []
  | Some e, None -> [ e ]
  | None, Some e -> [ e ]
  | Some e1, Some e2 -> [ e1; e2 ]

let pp ppf t =
  Format.fprintf ppf "%s%s%s" (event_to_string t.event)
    (match t.fetched with
    | Some l when not t.cached -> Printf.sprintf " (filled line %d instead)" l
    | Some _ -> ""
    | None -> if t.cached then "" else " (uncached)")
    (match evictions t with
    | [] -> ""
    | ev ->
      " evicted "
      ^ String.concat ","
          (List.map (fun (pid, l) -> Printf.sprintf "%d:%d" pid l) ev))
