(** Cache of proved equivalences shared across batch jobs.

    Jobs in a mixed workload keep meeting the same circuit: a verify job
    re-proves a pair an earlier job already settled, and a tournament on
    a repeated circuit proves the same candidates again.  This store
    remembers which pairs of networks were proved equivalent, keyed by
    the ordered pair of {!Network.structural_hash}es, so a repeated proof
    is a table lookup.

    Keys are pure 63-bit content hashes; entries store no witness of the
    original networks, so two distinct networks colliding on the hash
    would alias.  [Network.structural_hash]'s collision tests back the
    usual content-addressed-store bet that 2^63 makes this negligible.

    All entry points are domain-safe: lookups and insertions take one
    mutex, but {e proofs run outside the lock}, so concurrent misses on
    different pairs never serialize (two domains missing on the same pair
    at once both prove it — both counted as misses).

    Only [Equivalent] is cached, so a hit answers exactly what a cold
    proof would. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) bounds the entry count; overflowing inserts
    evict least-recently-used entries down to 7/8 of capacity. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently resident *)
}

val stats : t -> stats

val check : t -> Network.t -> Network.t -> Cec.outcome
(** [Cec.check a b], keyed by the ordered hash pair.  Only [Equivalent]
    is cached: a counterexample is recomputed on every call, so the
    vector returned is always [Cec.check]'s own, whichever prover
    ({!check_with}) saw the pair first. *)

val check_with :
  t -> Network.t -> Network.t -> (unit -> Cec.outcome) -> Cec.outcome
(** Like {!check} (same key, [Equivalent] only), but a miss runs the
    supplied prover instead of a fresh [Cec.check] — how {!Tournament}
    shares one incremental {!Cec.session} across candidates while still
    hitting the cache when a batch repeats a circuit.  The prover must
    decide the same question as [Cec.check a b]; a refuted pair returns
    the prover's own counterexample, and a prover that raises leaves
    nothing cached. *)
