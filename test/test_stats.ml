(* Unit and property tests for the numerics substrate. *)

open Cachesec_stats

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_split_independent () =
  let root = Rng.create ~seed:3 in
  let a = Rng.split root in
  let b = Rng.split root in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_copy_freezes () =
  let a = Rng.create ~seed:4 in
  let b = Rng.copy a in
  Alcotest.(check int) "copy replays" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_pick () =
  let r = Rng.create ~seed:6 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

let test_rng_gaussian_zero_sigma () =
  let r = Rng.create ~seed:8 in
  check_float "mu exactly" 3.25 (Rng.gaussian r ~mu:3.25 ~sigma:0.)

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:9 in
  let s = Summary.create () in
  for _ = 1 to 20000 do
    Summary.add s (Rng.gaussian r ~mu:2. ~sigma:0.5)
  done;
  check_close 0.02 "mean" 2. (Summary.mean s);
  check_close 0.02 "std" 0.5 (Summary.std s)

let test_rng_bool_fair () =
  let r = Rng.create ~seed:10 in
  let heads = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bool r then incr heads
  done;
  Alcotest.(check bool) "roughly fair" true (!heads > 4700 && !heads < 5300)

let prop_permutation =
  qtest "permutation is a bijection" QCheck.(int_range 1 200) (fun n ->
      let r = Rng.create ~seed:n in
      let p = Rng.permutation r n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all Fun.id seen)

let prop_shuffle_multiset =
  qtest "shuffle preserves elements" QCheck.(list int) (fun l ->
      let r = Rng.create ~seed:(List.length l) in
      let a = Array.of_list l in
      let p = Rng.permutation r (Array.length a) in
      let shuffled = Array.map (fun i -> a.(i)) p in
      List.sort compare (Array.to_list shuffled) = List.sort compare l)

(* --- Rng.derive_seed: the scheduler's determinism contract ----------- *)

(* The stream of seed [derive_seed (seed t) i]. *)
let derive t i = Rng.create ~seed:(Rng.derive_seed (Rng.seed t) i)

let test_rng_derive_deterministic () =
  (* Equal (seed, i) pairs give equal derived streams, across copy and
     across independently created parents. *)
  let a = Rng.create ~seed:21 in
  let b = Rng.create ~seed:21 in
  let c = Rng.copy a in
  let da = derive a 5 and db = derive b 5 and dc = derive c 5 in
  for _ = 1 to 50 do
    let x = Rng.int da 1000000 in
    Alcotest.(check int) "fresh parent" x (Rng.int db 1000000);
    Alcotest.(check int) "copied parent" x (Rng.int dc 1000000)
  done

let test_rng_derive_pure () =
  (* derive never advances the parent: the parent's stream after a
     derive is the stream it would have produced anyway. *)
  let a = Rng.create ~seed:22 in
  let witness = Rng.copy a in
  ignore (derive a 3);
  ignore (derive a 4);
  for _ = 1 to 20 do
    Alcotest.(check int) "parent unperturbed" (Rng.int witness 1000000)
      (Rng.int a 1000000)
  done;
  Alcotest.(check int) "seed preserved" 22 (Rng.seed a)

let test_rng_derive_seed_disperses () =
  (* Nearby (base, i) pairs must land on distinct, well-separated
     seeds: a 32x32 grid of neighbours has no collisions. *)
  let module IS = Set.Make (Int) in
  let seeds = ref IS.empty in
  for base = 0 to 31 do
    for i = 0 to 31 do
      seeds := IS.add (Rng.derive_seed base i) !seeds
    done
  done;
  Alcotest.(check int) "1024 distinct seeds" 1024 (IS.cardinal !seeds)

let prop_derive_sibling_correlation =
  (* Sibling streams (same base, adjacent indices) must look pairwise
     independent: the Pearson correlation of 2000 uniform draws stays
     within Monte-Carlo noise. *)
  qtest ~count:40 "sibling streams uncorrelated"
    QCheck.(pair small_nat small_nat)
    (fun (base, i) ->
      let a = Rng.create ~seed:(Rng.derive_seed base i) in
      let b = Rng.create ~seed:(Rng.derive_seed base (i + 1)) in
      let n = 2000 in
      let sx = ref 0. and sy = ref 0. in
      let sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
      for _ = 1 to n do
        let x = Rng.float a 1. and y = Rng.float b 1. in
        sx := !sx +. x;
        sy := !sy +. y;
        sxx := !sxx +. (x *. x);
        syy := !syy +. (y *. y);
        sxy := !sxy +. (x *. y)
      done;
      let nf = float_of_int n in
      let mx = !sx /. nf and my = !sy /. nf in
      let cov = (!sxy /. nf) -. (mx *. my) in
      let vx = (!sxx /. nf) -. (mx *. mx) in
      let vy = (!syy /. nf) -. (my *. my) in
      Float.abs (cov /. sqrt (vx *. vy)) < 0.1)

let prop_derive_child_vs_parent =
  (* A derived child must not replay its parent's stream. *)
  qtest ~count:50 "child differs from parent" QCheck.small_nat (fun base ->
      let parent = Rng.create ~seed:base in
      let child = derive parent 0 in
      let xs = List.init 20 (fun _ -> Rng.int parent 1000000) in
      let ys = List.init 20 (fun _ -> Rng.int child 1000000) in
      xs <> ys)

(* --- Special --------------------------------------------------------- *)

let test_erf_known () =
  check_float "erf 0" 0. (Special.erf 0.);
  check_close 2e-7 "erf 1" 0.8427007929 (Special.erf 1.);
  check_close 2e-7 "erf 2" 0.9953222650 (Special.erf 2.);
  check_close 1e-6 "erf inf" 1. (Special.erf 10.)

let prop_erf_odd =
  qtest "erf is odd" QCheck.(float_bound_inclusive 5.) (fun x ->
      Float.abs (Special.erf (-.x) +. Special.erf x) < 1e-12)

let test_erfc_complement () =
  check_float "erfc 0" 1. (Special.erfc 0.);
  check_close 1e-9 "complement" (1. -. Special.erf 0.7) (Special.erfc 0.7)

let test_normal_cdf () =
  check_close 1e-7 "at mu" 0.5 (Special.normal_cdf 0.);
  check_close 1e-4 "one sigma" 0.8413 (Special.normal_cdf 1.);
  check_close 1e-4 "shifted" 0.8413 (Special.normal_cdf ~mu:5. ~sigma:2. 7.);
  Alcotest.check_raises "bad sigma"
    (Invalid_argument "Special.normal_cdf: sigma must be positive") (fun () ->
      ignore (Special.normal_cdf ~sigma:0. 1.))

let prop_cdf_monotone =
  qtest "cdf monotone"
    QCheck.(pair (float_bound_inclusive 4.) (float_bound_inclusive 4.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Special.normal_cdf lo <= Special.normal_cdf hi +. 1e-12)

let test_normal_pdf_integral () =
  (* Trapezoid over [-6, 6] should be ~1. *)
  let n = 2000 in
  let h = 12. /. float_of_int n in
  let acc = ref 0. in
  for i = 0 to n do
    let x = -6. +. (float_of_int i *. h) in
    let w = if i = 0 || i = n then 0.5 else 1. in
    acc := !acc +. (w *. Special.normal_pdf x)
  done;
  check_close 1e-6 "integral" 1. (!acc *. h)

let test_log_factorial () =
  check_float "0!" 0. (Special.log_factorial 0);
  check_float "1!" 0. (Special.log_factorial 1);
  check_close 1e-9 "5!" (log 120.) (Special.log_factorial 5);
  check_close 1e-6 "20!" (log 2.43290200817664e18) (Special.log_factorial 20);
  (* Continuity across the cached/Stirling boundary. *)
  let a = Special.log_factorial 4096 and b = Special.log_factorial 4097 in
  check_close 1e-6 "boundary step" (log 4097.) (b -. a);
  Alcotest.check_raises "negative"
    (Invalid_argument "Special.log_factorial: negative argument") (fun () ->
      ignore (Special.log_factorial (-1)))

let test_binomial () =
  check_close 1e-9 "C(8,3)" 56. (Special.binomial 8 3);
  check_float "C(5,-1)" 0. (Special.binomial 5 (-1));
  check_float "C(5,6)" 0. (Special.binomial 5 6);
  check_close 1e4 "C(60,30)" 1.18264581564861e17 (Special.binomial 60 30)

let prop_binomial_symmetry =
  qtest "C(n,k) = C(n,n-k)"
    QCheck.(pair (int_range 0 300) (int_range 0 300))
    (fun (n, k) ->
      let k = if n = 0 then 0 else k mod (n + 1) in
      Float.abs (Special.log_binomial n k -. Special.log_binomial n (n - k))
      < 1e-9)

let prop_pascal =
  qtest "Pascal identity"
    QCheck.(pair (int_range 1 60) (int_range 0 60))
    (fun (n, k) ->
      let k = k mod n in
      let lhs = Special.binomial n k in
      let rhs = Special.binomial (n - 1) k +. Special.binomial (n - 1) (k - 1) in
      Float.abs (lhs -. rhs) /. Float.max 1. lhs < 1e-9)

let prop_log1mexp =
  qtest "log1mexp identity"
    QCheck.(float_range (-30.) (-0.001))
    (fun x ->
      let direct = log (1. -. exp x) in
      Float.abs (Special.log1mexp x -. direct) < 1e-7)

(* --- Summary --------------------------------------------------------- *)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check int) "count" 0 (Summary.count s)

let test_summary_known () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Summary.mean s);
  check_close 1e-9 "variance" (32. /. 7.) (Summary.variance s);
  check_float "min" 2. (Summary.min s);
  check_float "max" 9. (Summary.max s);
  check_float "total" 40. (Summary.total s);
  Alcotest.(check int) "count" 8 (Summary.count s)

let prop_summary_merge =
  qtest "merge equals concatenation"
    QCheck.(
      pair (list (float_bound_inclusive 100.)) (list (float_bound_inclusive 100.)))
    (fun (xs, ys) ->
      let m = Summary.of_array (Array.of_list xs) in
      Summary.merge_into m (Summary.of_array (Array.of_list ys));
      let all = Summary.of_array (Array.of_list (xs @ ys)) in
      Summary.count m = Summary.count all
      && (Summary.count m = 0
         || Float.abs (Summary.mean m -. Summary.mean all) < 1e-6)
      && (Summary.count m < 2
         || Float.abs (Summary.variance m -. Summary.variance all) < 1e-6))

let prop_summary_partition_merge =
  (* Merging an ARBITRARY partition (any number of chunks, any sizes,
     empty chunks included) in order equals one pass over the whole
     stream — the exact shape of the trial runtime's batch-order fold,
     where adaptive rounds merge a growing prefix of shard summaries. *)
  qtest "merge of arbitrary partition = single pass"
    QCheck.(list (list (float_bound_inclusive 100.)))
    (fun chunks ->
      let merged = Summary.create () in
      List.iter
        (fun c -> Summary.merge_into merged (Summary.of_array (Array.of_list c)))
        chunks;
      let whole = Summary.of_array (Array.of_list (List.concat chunks)) in
      Summary.count merged = Summary.count whole
      && (Summary.count merged = 0
         || Float.abs (Summary.mean merged -. Summary.mean whole) < 1e-6)
      && (Summary.count merged < 2
         || Float.abs (Summary.variance merged -. Summary.variance whole)
            < 1e-6)
      && (Summary.count merged = 0
         || Summary.min merged = Summary.min whole
            && Summary.max merged = Summary.max whole))

(* --- Histogram ------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add_many h [| 0.5; 1.5; 1.6; 9.99; -1.; 10.; 100. |];
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  let c = Histogram.counts h in
  Alcotest.(check int) "bin0" 1 c.(0);
  Alcotest.(check int) "bin1" 2 c.(1);
  Alcotest.(check int) "bin9" 1 c.(9);
  Alcotest.(check (option int)) "mode" (Some 1) (Histogram.mode h);
  check_float "center" 0.5 (Histogram.bin_center h 0)

let test_histogram_density () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Histogram.add_many h [| 0.1; 0.3; 0.6; 0.9 |];
  let d = Histogram.density h in
  let integral = Array.fold_left ( +. ) 0. d *. 0.25 in
  check_close 1e-9 "integrates to 1" 1. integral

let test_histogram_invalid () =
  Alcotest.check_raises "hi <= lo"
    (Invalid_argument "Histogram.create: hi must exceed lo") (fun () ->
      ignore (Histogram.create ~lo:1. ~hi:1. ~bins:3));
  Alcotest.check_raises "bins"
    (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Histogram.create ~lo:0. ~hi:1. ~bins:0))

let prop_histogram_conservation =
  qtest "every sample lands somewhere"
    QCheck.(list (float_bound_inclusive 20.))
    (fun xs ->
      let h = Histogram.create ~lo:2. ~hi:12. ~bins:7 in
      List.iter (Histogram.add h) xs;
      let in_range = Array.fold_left ( + ) 0 (Histogram.counts h) in
      in_range + Histogram.underflow h + Histogram.overflow h = List.length xs)

(* --- Coupon ---------------------------------------------------------- *)

let test_coupon_edge_cases () =
  check_float "k < w" 0. (Coupon.prob_all_covered ~bins:8 ~trials:7);
  check_float "one bin" 1. (Coupon.prob_all_covered ~bins:1 ~trials:1);
  check_float "zero trials" 0. (Coupon.prob_all_covered ~bins:2 ~trials:0);
  (* w=2, k=2: P = 2/4 = 0.5 *)
  check_close 1e-9 "2 bins 2 trials" 0.5
    (Coupon.prob_all_covered ~bins:2 ~trials:2);
  (* w=2, k=3: 1 - 2*(1/2)^3 = 0.75 *)
  check_close 1e-9 "2 bins 3 trials" 0.75
    (Coupon.prob_all_covered ~bins:2 ~trials:3)

let test_coupon_monte_carlo () =
  let rng = Rng.create ~seed:17 in
  let exact = Coupon.prob_all_covered ~bins:8 ~trials:20 in
  let approx = Coupon.monte_carlo rng ~bins:8 ~trials:20 ~samples:20000 in
  check_close 0.02 "MC matches closed form" exact approx

let test_coupon_monte_carlo_band () =
  (* Tolerance-band agreement across the cleaning-game's operating
     range: an MC estimate of a Bernoulli(p) mean over n samples has
     standard error sqrt(p(1-p)/n), so 4 sigma plus a small absolute
     floor gives a band the fixed-seed estimate must land in at every
     (bins, trials) point. *)
  let samples = 20000 in
  List.iter
    (fun (bins, trials) ->
      let exact = Coupon.prob_all_covered ~bins ~trials in
      let rng = Rng.create ~seed:(1009 + (bins * 131) + trials) in
      let approx = Coupon.monte_carlo rng ~bins ~trials ~samples in
      let se = sqrt (exact *. (1. -. exact) /. float_of_int samples) in
      check_close
        ((4. *. se) +. 1e-3)
        (Printf.sprintf "bins=%d trials=%d" bins trials)
        exact approx)
    [ (2, 2); (4, 8); (8, 16); (8, 24); (12, 40); (16, 64) ]

let prop_coupon_monotone =
  qtest "monotone in trials"
    QCheck.(pair (int_range 1 16) (int_range 0 100))
    (fun (bins, trials) ->
      Coupon.prob_all_covered ~bins ~trials
      <= Coupon.prob_all_covered ~bins ~trials:(trials + 1) +. 1e-12)

let test_coupon_cell_hit () =
  check_close 1e-9 "cell hit"
    (1. -. ((7. /. 8.) ** 10.))
    (Coupon.prob_cell_hit ~bins:8 ~trials:10)

let test_coupon_expected () =
  let harmonic8 =
    List.fold_left (fun acc i -> acc +. (1. /. float_of_int i)) 0.
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  check_close 1e-9 "harmonic" (8. *. harmonic8) (Coupon.expected_trials ~bins:8)

(* --- Correlation ----------------------------------------------------- *)

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect" 1. (Correlation.pearson xs [| 2.; 4.; 6.; 8. |]);
  check_float "anti" (-1.) (Correlation.pearson xs [| 8.; 6.; 4.; 2. |]);
  Alcotest.(check bool) "constant nan" true
    (Float.is_nan (Correlation.pearson xs [| 5.; 5.; 5.; 5. |]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Correlation.pearson: length mismatch") (fun () ->
      ignore (Correlation.pearson xs [| 1. |]))

let test_ranks () =
  let r = Correlation.ranks [| 10.; 30.; 20.; 30. |] in
  Alcotest.(check (array (Alcotest.float 1e-9)))
    "ties averaged" [| 1.; 3.5; 2.; 3.5 |] r

let prop_spearman_monotone =
  qtest "spearman invariant under monotone map"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 3 30) (float_bound_inclusive 100.))
    (fun xs ->
      let xs = Array.of_list xs in
      let ys = Array.map (fun x -> (2. *. x *. x *. x) +. 1.) xs in
      let s1 = Correlation.spearman xs xs in
      let s2 = Correlation.spearman xs ys in
      (Float.is_nan s1 && Float.is_nan s2) || Float.abs (s1 -. s2) < 1e-9)

(* --- Mutual information ---------------------------------------------- *)

let test_mi_independent () =
  let j = Mutual_information.create ~x_card:2 ~y_card:2 in
  for _ = 1 to 100 do
    Mutual_information.observe j ~x:0 ~y:0;
    Mutual_information.observe j ~x:0 ~y:1;
    Mutual_information.observe j ~x:1 ~y:0;
    Mutual_information.observe j ~x:1 ~y:1
  done;
  check_close 1e-9 "independent" 0. (Mutual_information.mi j)

let test_mi_dependent () =
  let j = Mutual_information.create ~x_card:2 ~y_card:2 in
  for _ = 1 to 100 do
    Mutual_information.observe j ~x:0 ~y:0;
    Mutual_information.observe j ~x:1 ~y:1
  done;
  check_close 1e-9 "fully dependent" 1. (Mutual_information.mi j);
  check_close 1e-9 "normalized" 1. (Mutual_information.normalized_mi j)

let test_mi_validation () =
  let j = Mutual_information.create ~x_card:2 ~y_card:2 in
  Alcotest.check_raises "range"
    (Invalid_argument "Mutual_information.observe: outcome out of range")
    (fun () -> Mutual_information.observe j ~x:2 ~y:0)

let test_mi_of_samples () =
  let j =
    Mutual_information.of_samples ~x_card:3 ~y_card:3 [| (0, 1); (2, 2) |]
  in
  Alcotest.(check int) "count" 2 (Mutual_information.count j)

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy freezes" `Quick test_rng_copy_freezes;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "gaussian sigma 0" `Quick test_rng_gaussian_zero_sigma;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "bool fair" `Quick test_rng_bool_fair;
          prop_permutation;
          prop_shuffle_multiset;
          Alcotest.test_case "derive deterministic" `Quick
            test_rng_derive_deterministic;
          Alcotest.test_case "derive pure" `Quick test_rng_derive_pure;
          Alcotest.test_case "derive_seed disperses" `Quick
            test_rng_derive_seed_disperses;
          prop_derive_sibling_correlation;
          prop_derive_child_vs_parent;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf known" `Quick test_erf_known;
          prop_erf_odd;
          Alcotest.test_case "erfc complement" `Quick test_erfc_complement;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
          prop_cdf_monotone;
          Alcotest.test_case "pdf integral" `Quick test_normal_pdf_integral;
          Alcotest.test_case "log factorial" `Quick test_log_factorial;
          Alcotest.test_case "binomial" `Quick test_binomial;
          prop_binomial_symmetry;
          prop_pascal;
          prop_log1mexp;
        ] );
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "known values" `Quick test_summary_known;
          prop_summary_merge;
          prop_summary_partition_merge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "density" `Quick test_histogram_density;
          Alcotest.test_case "invalid" `Quick test_histogram_invalid;
          prop_histogram_conservation;
        ] );
      ( "coupon",
        [
          Alcotest.test_case "edge cases" `Quick test_coupon_edge_cases;
          Alcotest.test_case "monte carlo" `Quick test_coupon_monte_carlo;
          Alcotest.test_case "monte carlo band" `Quick
            test_coupon_monte_carlo_band;
          prop_coupon_monotone;
          Alcotest.test_case "cell hit" `Quick test_coupon_cell_hit;
          Alcotest.test_case "expected trials" `Quick test_coupon_expected;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "pearson" `Quick test_pearson;
          Alcotest.test_case "ranks" `Quick test_ranks;
          prop_spearman_monotone;
        ] );
      ( "mutual information",
        [
          Alcotest.test_case "independent" `Quick test_mi_independent;
          Alcotest.test_case "dependent" `Quick test_mi_dependent;
          Alcotest.test_case "validation" `Quick test_mi_validation;
          Alcotest.test_case "of samples" `Quick test_mi_of_samples;
        ] );
    ]
