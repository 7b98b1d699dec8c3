(** Content-addressed artifact cache shared across batch jobs.

    Jobs in a mixed workload keep meeting the same circuit: an estimate
    job builds the BDDs of a network an earlier job already estimated, a
    verify job re-proves a pair the previous batch already settled.  This
    store caches four derived artifacts — BDD cone results (exact
    per-output signal probabilities), proved CEC equivalences,
    measured-activity annotations and datapath activity costs — keyed by
    {!Network.structural_hash} or [Dfg.structural_hash] (plus a
    fingerprint: input probabilities, operand pair, trace content, cost
    model).

    Keys are pure 63-bit content hashes; entries store no witness of the
    original network, so two distinct networks colliding on the hash
    would alias.  [Network.structural_hash]'s collision tests back the
    usual content-addressed-store bet that 2^63 makes this negligible.

    All entry points are domain-safe: lookups and insertions take one
    mutex, but {e computation happens outside the lock}, so concurrent
    misses on different keys never serialize (two domains missing on the
    same key at once duplicate the work — both counted as misses — and
    the insert is last-writer-wins, which is sound because every cached
    computation is deterministic).  Cached values are immutable and safe
    to share across domains.

    A cache {e hit} returns the stored artifact, which is bit-identical
    to what a cold recompute would produce (deterministic constructors);
    the test suite checks this for every artifact kind. *)

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

(** {1 Cached artifacts} *)

val cone_probabilities :
  t -> Network.t -> input_probs:float array -> (string * float) array
(** Exact per-output signal probabilities from one build of the global
    BDDs ([Network.global_bdds] + [Bdd.probabilities]), in output
    declaration order; the same floats as a per-output
    [Network.output_bdd] + [Bdd.probability].  The key fingerprints [input_probs], so the same
    network under different input statistics occupies distinct entries.
    Each miss builds a private manager — nothing BDD-managed is shared
    across domains. *)

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
    the prover's own counterexample. *)

val dfg_activity :
  t -> Dfg.t -> fingerprint:int -> (unit -> float) -> float
(** Cached switching-activity cost of a word-level datapath, keyed by
    [Dfg.structural_hash] plus a caller-supplied fingerprint (the trace
    content and cost-model tag — see [Cost.fingerprint] in [lib/rewrite]).
    A miss runs the supplied estimator outside the lock, following the
    {!check_with} pattern: the cost computation itself lives above this
    library (it elaborates the DFG to gates), so the cache stores only
    the resulting scalar.  The estimator must be deterministic for the
    key. *)

val activity : t -> Network.t -> trace:Stimulus.t -> Annotation.t
(** Measured-activity annotation ({!Annotation.measure}), keyed by
    [Network.structural_hash] plus {!Annotation.trace_fingerprint} — the
    same network under a different trace occupies a distinct entry.
    Annotations are immutable snapshots, so a hit shares the stored value
    directly; [Annotation.switched_capacitance] of a hit is bit-identical
    to a cold measurement ([Tournament.measured_score] relies on this to
    make memoized and fresh scores interchangeable). *)
