type role = Victim_origin | Attacker_origin | Observation | Internal
type t = { id : int; label : string; role : role }

let v ~id ~label ~role = { id; label; role }
