(* Output digests recorded at calibration for seed 1 (used while
   developing) and seed 2 (held out). A run on either seed must
   reproduce its digest; other seeds are checked by the workloads' own
   oracles. Re-record only for a change that is meant to alter results. *)

let digests =
  [
    ("matrix-full", 1, "17fd4ab8d159880fc39ad4407cb4552f");
    ("matrix-full", 2, "451654b67025c3fd3f298755404833e4");
    ("matrix-adaptive", 1, "76b36f9fcec248388428c9e439783d4f");
    ("matrix-adaptive", 2, "33be9bdc573bec4ee1db1dc1d929c40d");
    ("engine-sweep", 1, "a9efc80baec3b087c4b3ed8a72b142a3");
    ("engine-sweep", 2, "5a8e1328e9fc0c003e35db82aea3453a");
    ("serve-explore", 1, "10ef6299dd939e147ddd4db22de69c5c");
    ("serve-explore", 2, "e2ede1753a86ec530c287139b6950acd");
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if w = workload && s = seed then Some d else None)
    digests
