(** Signal-probability estimation on Boolean networks.

    The probability that a node evaluates to 1 drives every power cost
    function in the toolkit: switching activity under the zero-delay model is
    [2 p (1-p)] per cycle when successive input vectors are independent.

    Two estimators are provided, matching the survey's framing:
    - {!exact}: global BDDs over the primary inputs, or exhaustive
      word-parallel counting when every input is 1/2 and the BDDs grow
      large; exact for spatially independent inputs.
    - {!approximate}: forward propagation assuming node fanins are
      independent — fast, but inaccurate under reconvergent fanout. *)

type t = (Network.id, float) Hashtbl.t
(** Probability of 1, per node. *)

val check_probs : Network.t -> float array -> unit
(** Raises [Invalid_argument] unless the array has one probability per
    primary input, each within [0,1] — the check every estimator here
    makes on its [input_probs]. *)

val exact : Network.t -> input_probs:float array -> t
(** Exact signal probabilities.  [input_probs.(i)] is the probability that
    primary input [i] is 1.  Raises [Invalid_argument] on arity mismatch or
    probabilities outside [0,1].

    There are two ways to compute them, and the caller sees no difference:
    - Global BDDs ({!Network.global_bdds}), weighed by one shared-memo
      sweep ({!Bdd.probabilities}).  Always used when some input is not
      1/2 or there are more than 40 inputs.
    - Counting: simulate all [2^n] input vectors with {!Bitsim}, 63 to a
      word in its exhaustive layout, and divide each node's count of ones
      by [2^n].
    With every input at 1/2, each step of the BDD sweep, [p hi + (1-p) lo]
    and [1 - p], works on numbers k/2^n, which binary64 holds exactly for
    n <= 52.  So each BDD float is (vectors setting the node) / 2^n
    exactly, which is what counting computes: the two give the same
    floats bit for bit.

    Budget: with every input at 1/2 (and n <= 40) the BDDs are built under
    a node budget, the count's cost ([Network.node_count] x ceil(2^n/63)
    word evaluations) divided by 64.  Once the manager passes it, the
    build stops and the net is counted.  So nets with small BDDs stay on
    BDDs, and nets whose BDDs blow up (multipliers) are counted at a
    bounded extra cost.

    Either way the table has one entry per node and is filled in one fixed
    order, so folds over it (float sums such as
    {!Activity.switched_capacitance}) do not depend on the way. *)

val approximate : Network.t -> input_probs:float array -> t
(** Independence-propagation estimate: each node's probability is computed
    from its local function assuming its fanins are independent. *)

val simulated :
  ?packed:bool -> Network.t -> rng:Lowpower.Rng.t -> input_probs:float array
  -> vectors:int -> t
(** Monte-Carlo estimate from random functional simulation — the reference
    that exact estimation must agree with (used in tests).

    By default ([packed] true) the network is compiled to the
    word-parallel engine ([Bitsim]): input planes are drawn 63 vectors at
    a time ([Rng.bernoulli_word], one independent [Rng.stream] per word
    block) and one-counts come from SWAR popcounts, one block after
    another on the calling domain.  [~packed:false] runs the scalar
    reference the tests compare against: one [Compiled.eval_into] per
    vector.  The two paths draw different (equally valid) random planes,
    so their estimates agree statistically, not bit-for-bit; on a {e fixed}
    injected stream use {!empirical}, where packed and scalar counts are
    exactly equal.  Raises [Invalid_argument] if [vectors <= 0]. *)

val empirical : ?packed:bool -> Network.t -> Stimulus.t -> t
(** Per-node one-fraction over a given vector stream (the injected-plane
    form of {!simulated}; complements [Stimulus.empirical_probs], which
    covers inputs only).  [packed] defaults like {!simulated}; both paths
    return exactly equal counts.  Raises [Invalid_argument] on an empty
    stream or arity mismatch. *)

val uniform_inputs : Network.t -> float array
(** All-0.5 input probability vector of the right arity. *)
