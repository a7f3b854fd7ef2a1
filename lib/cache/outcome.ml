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

(* Matches, not [=]: polymorphic equality is a [caml_equal] call even on
   constant constructors without flambda, and these two run once per
   probed access in the attack loops. *)
let is_hit t = match t.event with Hit -> true | Miss -> false
let is_miss t = match t.event with Miss -> true | Hit -> false
