type t = { line_bytes : int; lines : int; ways : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let v ~line_bytes ~lines ~ways =
  if not (is_pow2 line_bytes) then
    invalid_arg "Config.v: line_bytes must be a positive power of two";
  if not (is_pow2 lines) then
    invalid_arg "Config.v: lines must be a positive power of two";
  if ways <= 0 then invalid_arg "Config.v: ways must be positive";
  if lines mod ways <> 0 then invalid_arg "Config.v: ways must divide lines";
  { line_bytes; lines; ways }

let standard = v ~line_bytes:64 ~lines:512 ~ways:8
let direct_mapped = v ~line_bytes:64 ~lines:512 ~ways:1
let fully_associative = v ~line_bytes:64 ~lines:512 ~ways:512
let sets t = t.lines / t.ways
