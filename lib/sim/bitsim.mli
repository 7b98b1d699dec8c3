(** Word-parallel bit-plane simulation of a compiled network.

    Every Monte-Carlo estimate in the toolkit reduces to "evaluate the same
    combinational network under many input vectors and count ones or
    toggles".  This engine packs {!vectors_per_word} (= 63, a native OCaml
    int) vectors into each machine word: a value plane holds one word per
    node, node functions are specialized once into closures over
    [land]/[lor]/[lxor]/[lnot], and counting is SWAR popcounts instead of
    per-vector boolean loops — the same word-parallel trick as the packed
    cube engine, applied to simulation.

    Lane convention: bit [l] of every word is vector (lane) [l], for
    [l < vectors_per_word].  Callers evaluating fewer than 63 vectors mask
    counts with {!lane_mask}; lanes above the mask hold garbage and are
    harmless.

    Exhaustive layout: to enumerate all [2^n] vectors of an [n]-input
    network, block [b] (one word per input) carries vectors [63b] to
    [63b + 62], lane [l] being vector [63b + l] and input [k] its bit [k].
    {!exhaustive_word} builds those input words; the last block's lanes
    past [2^n - 1] carry vectors beyond the range, whose low [n] bits
    repeat real vectors.

    A [t] is immutable after {!of_compiled} and safe to share across
    OCaml 5 domains — [eval_into] writes only the caller-owned plane, so
    one engine can serve several domains, each with its own plane. *)

type t

val vectors_per_word : int
(** 63 — the full width of a native int. *)

val of_compiled : Compiled.t -> t
(** Specialize every node function of the snapshot into word closures.
    Reuses the {!Compiled.t} indexing (compact indices, topo order,
    outputs); compile once per network, like [Compiled.of_network]. *)

val of_network : Network.t -> t
(** [of_compiled (Compiled.of_network net)]. *)

val compiled : t -> Compiled.t
(** The underlying snapshot (for indices, outputs, caps, ids). *)

val size : t -> int
val num_inputs : t -> int

val eval_into : t -> int array -> int array -> unit
(** [eval_into b in_words plane] evaluates 63 vectors at once: [in_words]
    holds one word per primary input (input [k]'s lanes), [plane] is a
    caller-owned value plane of length [size b] indexed by compact index.
    Allocation-free.  Raises [Invalid_argument] on length mismatch. *)

val eval : t -> int array -> int array
(** {!eval_into} into a fresh plane. *)

val count_transitions : t -> Stimulus.t -> int array
(** Per-node settled (zero-delay) transition counts over a vector stream,
    indexed by compact index: the stream is packed 63 cycles per word with
    a one-lane overlap between blocks, each block is evaluated once, and
    adjacent-lane XORs are popcounted.  Counts are exactly those of
    [Event_sim.run_compiled c Zero_delay stream] (initialization from the
    first vector is uncharged; primary-input toggles are counted).  Raises
    [Invalid_argument] on an empty stream or arity mismatch. *)

val compile_word : int array -> Expr.t -> int array -> int
(** [compile_word fanin_idx f] specializes a local function into the word
    closure {!of_compiled} builds internally: variable [v] of [f] reads
    plane index [fanin_idx.(v)], and one call evaluates all 63 lanes with
    one boolean word op per connective.  Exposed for engines that maintain
    their own value planes over a mutating network ({!Actsim}), so the
    lane semantics stay defined in exactly one place. *)

val popcount : int -> int
(** Number of set bits among all 63 bits of a native int (SWAR, no
    branches); [popcount (-1) = 63]. *)

val lane_mask : int -> int
(** [lane_mask n] has lanes [0..n-1] set ([n >= 63] gives all lanes) —
    the mask for counting a final partial word. *)

val exhaustive_word : int -> int -> int
(** [exhaustive_word k b] is input [k]'s word in block [b] of the
    exhaustive layout: lane [l] holds bit [k] of vector [63b + l].  For
    [k >= 6] that bit changes at most once in a block, so the word is one
    lane range, built in O(1); for [k < 6] it is built lane by lane.
    Requires [0 <= k < 61] and [0 <= 63b + 62 < 2^61]. *)
