(** The AES S-box and its inverse, generated from first principles
    (multiplicative inverse in GF(2^8) followed by the affine transform). *)

val forward : int array
(** [forward.(x)] for byte [x]; length 256. *)

val sub : int -> int
(** [sub x = forward.(x land 0xff)]. *)

val inv_sub : int -> int
