(** Canonical, injective keys for memoization.

    The PAS query server memoizes closed-form and simulation-backed
    answers keyed on the query's semantic content — the effective
    [Spec.t], [Config.t], attack type, noise and seed after every
    default has been expanded. Two differently-constructed but
    equivalent values must produce the same key, and two distinct
    values must never collide; this module provides the encoding
    discipline that makes the second half provable rather than hoped
    for.

    Every atom is self-delimiting (a type character, a payload whose
    representation cannot contain the terminator, and a terminator —
    or an explicit length prefix), and composite nodes are
    length-prefixed tags over the concatenation of their children. A
    concatenation of self-delimiting encodings has exactly one parse,
    so [to_string] is injective on the combinator algebra: equal
    strings imply the same constructor tree with the same atoms.
    Collision-freedom over the actual query space is additionally
    pinned by tests sweeping the full architecture x attack matrix
    (see [test_serve.ml]). *)

type t

val int : int -> t
val bool : bool -> t

val float : float -> t
(** Encoded in hexadecimal notation ([%h]): exact for every finite
    float, so [0.1 +. 0.2] and [0.3] correctly get different keys.
    All NaNs encode alike. *)

val string : string -> t
(** Length-prefixed: the payload may contain any byte, including the
    separators used by the other encoders. *)

val list : t list -> t

val tag : string -> t list -> t
(** [tag name children]: a named composite node — use one distinct tag
    per variant constructor. The name is length-prefixed, so tags that
    are prefixes of one another ("sa" / "sas") cannot collide. *)

val to_string : t -> string
(** The canonical encoding. Injective: [to_string a = to_string b]
    iff [a] and [b] are the same tree. *)

val equal : t -> t -> bool
val compare : t -> t -> int
