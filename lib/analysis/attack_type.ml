type t = Evict_and_time | Prime_and_probe | Cache_collision | Flush_and_reload

let all = [ Evict_and_time; Prime_and_probe; Cache_collision; Flush_and_reload ]

let type_number = function
  | Evict_and_time -> 1
  | Prime_and_probe -> 2
  | Cache_collision -> 3
  | Flush_and_reload -> 4

let name = function
  | Evict_and_time -> "evict-and-time"
  | Prime_and_probe -> "prime-and-probe"
  | Cache_collision -> "cache-collision"
  | Flush_and_reload -> "flush-and-reload"

let of_name s = List.find_opt (fun t -> name t = s) all
let short t = Printf.sprintf "Type %d" (type_number t)

let is_miss_based = function
  | Evict_and_time | Prime_and_probe -> true
  | Cache_collision | Flush_and_reload -> false
