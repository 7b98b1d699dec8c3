(** The arch → logic bridge: lower a word-level {!Dfg.t} to a gate-level
    {!Network.t} built from the standard primitives — ripple-carry
    add/sub, pure-wiring shifts, a width-truncated array multiplier —
    with constant folding and structural gate sharing, so every rewrite
    candidate can be activity-costed ([Bitsim]) and proven ([Sat.Cec])
    at gate level.

    Naming contract: bit [k] of input word [nm] is the network input
    ["nm.k"] (words in sorted name order), and bit [k] of output word
    [nm] is the network output ["nm.k"].  Commutative operands are
    elaborated in a canonical order (constants pick the multiplier rows,
    otherwise {!Dfg.node_hash} decides), so DFGs equal modulo
    commutation produce identical netlists — the property that keeps the
    {!Dfg.structural_hash}-keyed activity cache sound.  Likewise a
    rewrite candidate elaborates to its parent's gates wherever the
    rewrite left the graph alone, so [Cec.session_check] against the
    parent's elaboration merges those cones structurally and only the
    rewritten logic reaches the solver. *)

val to_network : ?inputs:string list -> Dfg.t -> Network.t
(** Elaborate the output cones (dead DFG nodes produce no gates).
    [inputs] forces the elaborated input-word set — it must cover the
    graph's own inputs (Invalid_argument otherwise) and exists so two
    candidates that differ in dead inputs still elaborate over identical
    input positions, as [Cec] requires. *)

val input_vector : Network.t -> (string * int) list -> bool array
(** Encode a word environment as the elaborated network's input plane
    (by input position, parsing the ["nm.k"] names).  Raises
    [Invalid_argument] on a missing word. *)

val output_words : width:int -> (string * bool) list -> (string * int) list
(** Decode [Network.eval_outputs] bits back to words, in first-seen
    output order. *)

val eval : Network.t -> width:int -> (string * int) list -> (string * int) list
(** [output_words ~width (eval_outputs net (input_vector net env))] —
    the word-level view the bit-exactness tests compare against
    [Dfg.eval]. *)
