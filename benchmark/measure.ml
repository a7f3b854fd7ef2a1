(* Clock, percentiles and /proc readers shared by the workloads. *)

let now = Cachesec_telemetry.Clock.now_s

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. The rank is
   computed as [ceil (p * n / 100)] in that order so that whole ranks
   stay exact in floating point (99 * 100 / 100 = 99, not 99.000001). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  sorted.(max 1 (min n rank) - 1)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted xs) 50.

(* Mean cost in seconds of one call of [f i], i = 0 .. n-1, as the median
   over [reps] timed repetitions after one untimed warm-up repetition. *)
let per_call ?(reps = 5) ~n f =
  let once () =
    let t0 = now () in
    for i = 0 to n - 1 do
      f i
    done;
    (now () -. t0) /. float_of_int n
  in
  ignore (once ());
  median (Array.init reps (fun _ -> once ()))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let proc pid file =
  Printf.sprintf "/proc/%s/%s"
    (match pid with None -> "self" | Some p -> string_of_int p)
    file

(* A memory field of /proc/<pid>/status (default: this process) in MiB:
   "VmRSS" resident now, "VmHWM" the peak. *)
let status_mb ?pid field =
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "%s@: %d kB" (fun k kb -> (k, kb)) with
      | k, kb when k = field -> float_of_int kb /. 1024.
      | _ | (exception (Scanf.Scan_failure _ | End_of_file | Failure _)) -> acc)
    0.
    (read_lines (proc pid "status"))

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks on Linux). The command
   name in field 2 may contain spaces, so fields are counted after its
   closing parenthesis. *)
let cpu_s pid =
  match read_lines (proc (Some pid) "stat") with
  | l :: _ -> (
    match String.rindex_opt l ')' with
    | None -> 0.
    | Some i ->
      let fields =
        String.split_on_char ' '
          (String.sub l (i + 2) (String.length l - i - 2))
      in
      (match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> float_of_string (u ^ ".") +. float_of_string (s ^ ".")
      | _ -> 0.)
      /. 100.)
  | [] -> 0.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
