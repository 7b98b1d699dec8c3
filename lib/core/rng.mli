(** Deterministic pseudo-random number generation.

    All stochastic parts of the toolkit (workload generators, stimulus
    streams, randomized search) draw from an explicit generator state so that
    every experiment is reproducible from a seed.  The implementation is
    SplitMix64, which is fast, has a 64-bit state, and supports cheap
    splitting into independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    parent's subsequent output.  Used to hand sub-streams to subsystems
    without coupling their consumption order. *)

val stream : t -> int -> t
(** [stream t k] derives the [k]-th of a family of independent generators
    {e without} advancing [t]: equal [(t, k)] always give the same stream,
    and distinct [k] give independent streams.  This is the sharding
    primitive for block-wise work — each simulation word block or batch
    job draws from its own stream, so results do not depend on the order
    the blocks run in or on the domain that runs them.  Raises
    [Invalid_argument] if [k < 0]. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val word_bits : int
(** Number of independent Boolean lanes packed into one [int] word by
    {!bernoulli_word} — 63, the full width of a native OCaml int. *)

val bernoulli_word : t -> float -> int
(** [bernoulli_word t p] draws {!word_bits} independent Bernoulli([p])
    samples at once, one per bit (bit [l] is lane [l]).  Exact to double
    precision in [p], and for most [p] it costs only a handful of raw
    64-bit draws for all 63 lanes (one draw when [p = 0.5]).  The number of
    draws consumed is data-dependent; use {!stream}/{!split} when
    surrounding code needs a consumption-independent state. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array.
    Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed sample (Box–Muller). *)
