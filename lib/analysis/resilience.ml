open Cachesec_cache

type verdict = High | Low

let default_threshold = 0.01

let is_noise_based = function Spec.Noisy _ -> true | _ -> false

let classify ?(threshold = default_threshold) spec attack =
  let pas = Attack_models.pas attack spec () in
  if pas <= threshold && not (is_noise_based spec) then High else Low

let table7 ?threshold () =
  List.map
    (fun spec ->
      ( Spec.display_name spec,
        Array.of_list
          (List.map (fun attack -> classify ?threshold spec attack) Attack_type.all)
      ))
    Spec.all_paper

let paper_table7 =
  [
    ("SA Cache", [| Low; Low; Low; Low |]);
    ("SP Cache", [| High; High; Low; Low |]);
    ("PL Cache", [| High; High; Low; Low |]);
    ("Nomo Cache", [| Low; High; Low; Low |]);
    ("Newcache", [| High; High; Low; High |]);
    ("RP Cache", [| High; High; Low; High |]);
    ("RF Cache", [| Low; High; High; High |]);
    ("RE Cache", [| Low; Low; Low; Low |]);
    ("Noisy Cache", [| Low; Low; Low; Low |]);
  ]

type combined = { pas : float; prepas_at : int -> float; verdict : verdict }

let combined ?threshold spec attack =
  {
    pas = Attack_models.pas attack spec ();
    prepas_at = (fun k -> Prepas.for_spec spec ~k);
    verdict = classify ?threshold spec attack;
  }

let verdict_to_string = function High -> "high" | Low -> "low"
let verdict_mark = function High -> "Y" | Low -> "X"

(* --- Policy resilience: policy x attack x architecture ---------------- *)

type policy_cell = {
  policy : Policy.t;
  attack : Attack_type.t;
  pas : float;
  limit : float;
  effective : float;
  bits : float;
  verdict : verdict;
}

let log2 x = log x /. log 2.

(* Miss-based attacks (Types 1 and 2) only observe anything after the
   attacker has cleaned the victim's lines out of the target set; if
   the replacement policy makes cleaning impossible even for an
   unbounded attacker (the k -> infinity pre-PAS limit is 0), the
   attack never starts regardless of its per-access PAS. Reuse-based
   attacks (Types 3 and 4) never evict, so the limit does not gate
   them. The PIFG edge probabilities themselves are policy-agnostic,
   so within one (architecture, attack) column the policy axis acts
   entirely through this gate. *)
let policy_cell ?threshold ?(config = Config.standard) spec policy attack =
  let spec = Spec.with_policy spec policy in
  let pas = Attack_models.pas ~config attack spec () in
  let limit =
    if Attack_type.is_miss_based attack then Prepas.cleaning_limit spec else 1.
  in
  let effective = pas *. limit in
  (* Absorbed information of the erasure channel the attack induces:
     with probability [effective] one observation resolves the victim's
     symbol — a cache set for miss-based attacks, a memory line for
     reuse-based ones — and otherwise nothing. *)
  let symbols =
    if Attack_type.is_miss_based attack then Config.sets config
    else config.Config.lines
  in
  let bits = effective *. log2 (float_of_int symbols) in
  let verdict =
    let threshold = Option.value threshold ~default:default_threshold in
    if effective <= threshold && not (is_noise_based spec) then High else Low
  in
  { policy; attack; pas; limit; effective; bits; verdict }

(* Newcache's SecRAND replacement is part of the design, so the policy
   axis does not apply to it. *)
let policy_specs =
  List.filter (fun spec -> Spec.policy_of spec <> None) Spec.all_paper

let policy_matrix ?threshold ?config ?(specs = policy_specs)
    ?(policies = Policy.all) () =
  List.map
    (fun spec ->
      ( spec,
        List.map
          (fun policy ->
            ( policy,
              List.map
                (fun attack -> policy_cell ?threshold ?config spec policy attack)
                Attack_type.all ))
          policies ))
    specs
