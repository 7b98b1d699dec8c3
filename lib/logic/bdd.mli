(** Reduced Ordered Binary Decision Diagrams with complement edges.

    The exact machinery behind several surveyed techniques: exact signal
    probability for power estimation (§III.A.1, §IV.A), observability
    don't-care computation (§III.A.1), universal quantification for
    precomputation logic (§III.C.4, [30]), and symbolic equivalence checks
    used as test oracles throughout.

    Functions are hash-consed edges into a manager-owned node store, so
    structural equality of functions is integer equality ([equal] is
    O(1)), and [not_] is O(1) (it flips the edge's complement bit — no
    negated subgraph is ever built).  All binary operations route through
    one memoized [ite] kernel; the unique and computed tables are packed
    int arrays that do not allocate on lookup.

    Variable order defaults to the natural integer order; it can be fixed
    up front with {!set_order} on a pristine manager, or improved later
    with sifting via {!reorder}.  The slower, simpler engine this one
    replaced survives as {!Bdd_reference} for differential testing. *)

type man
(** A BDD manager: node store, unique table, computed cache, and the
    variable order. *)

type t
(** A BDD (an edge into a manager's node store), valid within the manager
    that created it until a {!release} frees its node.  Every operation
    that reads a [t] raises [Invalid_argument] on a released one. *)

val manager : ?order:int array -> unit -> man
(** Fresh manager.  [order] fixes the initial variable order as for
    {!set_order}. *)

val clear_caches : man -> unit
(** Drop the computed cache (the unique table is kept).  Useful between
    unrelated workloads to avoid stale-entry evictions. *)

val node_count : man -> int
(** Number of live unique nodes currently in the manager's unique table
    (the terminal is not counted). *)

val peak_node_count : man -> int
(** High-water mark of {!node_count} over the manager's lifetime
    (reordering can shrink the live count below a previous peak). *)

type stats = {
  live_nodes : int;
  peak_nodes : int;
  cache_hits : int;
  cache_misses : int;
  unique_slots : int;
  cache_slots : int;
}

val stats : man -> stats
(** Table occupancy and computed-cache hit/miss counters. *)

(** {1 Reclaiming nodes}

    The node store has no garbage collector.  A caller that builds
    scratch BDDs over long-lived ones (a don't-care pass builds each
    node's flipped fanout over the network's global BDDs)
    reclaims them as a stack: {!mark} the store, build, use the results,
    {!release} to the mark. *)

type mark
(** A position in a manager's node store. *)

val mark : man -> mark
(** The current top of the store. *)

val release : man -> mark -> unit
(** [release m mk] frees every node built since [mk] was taken: the store
    is truncated back to the mark, the freed nodes leave the unique table
    (in time proportional to their number, with no rehash) and the
    computed table is cleared.  BDDs built before the mark keep
    their nodes, functions and probabilities, and {!node_count} returns to
    its value at the mark.  A [t] that refers to a freed node is invalid:
    using it raises [Invalid_argument], also after new nodes refill its
    slot.  Releasing to the same mark again is allowed.  Raises
    [Invalid_argument] if [mk] belongs to another manager, was taken
    before a {!reorder}, or lies above the store (an earlier release went
    below it). *)

(** {1 Variable order} *)

val set_order : man -> int array -> unit
(** [set_order m order] places variable [order.(l)] at level [l] (level 0
    is the root).  [order] must be a permutation of [0..n-1].  Only legal
    on a pristine manager (no nodes built yet); raises [Invalid_argument]
    otherwise.  Variables beyond [n] introduced later are appended below
    the existing levels in index order. *)

val order : man -> int array
(** Current order: the variable at each level, root first. *)

val num_vars : man -> int
(** Number of variables known to the manager. *)

val reorder : man -> t list -> t list
(** [reorder m roots] runs Rudell sifting over the functions reachable
    from [roots] and rebuilds the manager under the best order found,
    returning the roots re-expressed in the new order (same functions,
    possibly different node counts).  The combined node count of the
    returned roots never exceeds that of [roots]; if sifting cannot
    improve it, the store and order are left untouched.  Any other [t]
    values from this manager are invalidated (and caught when used if
    the store was rebuilt), and {!release} rejects every earlier
    {!mark}. *)

(** {1 Construction} *)

val tru : man -> t
val fls : man -> t
val var : man -> int -> t
val nvar : man -> int -> t
(** Complemented variable. *)

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val xnor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
val and_list : man -> t list -> t
val or_list : man -> t list -> t

val of_expr : man -> Expr.t -> t
(** Build from a structural expression; [Expr.Var i] maps to BDD variable
    [i]. *)

(** {1 Inspection} *)

val equal : t -> t -> bool
val is_true : t -> bool
val is_false : t -> bool
val is_const : t -> bool

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val support : t -> int list
(** Sorted variable support. *)

val size : t -> int
(** Number of distinct internal nodes reachable from this root
    (complement-edge sharing means a function and its negation have equal
    size). *)

val any_sat : t -> (int * bool) list option
(** A satisfying partial assignment (variables on some root-to-[1] path), or
    [None] for the zero function. *)

(** {1 Transformation} *)

val restrict : man -> t -> int -> bool -> t
(** Cofactor with respect to one variable. *)

val compose : man -> t -> int -> t -> t
(** [compose m f v g] substitutes function [g] for variable [v] in [f]. *)

val exists : man -> int list -> t -> t
(** Existential quantification over a variable set. *)

val forall : man -> int list -> t -> t
(** Universal quantification — the operator used by precomputation
    subcircuit selection [30]. *)

val boolean_difference : man -> t -> int -> t
(** [df/dx = f|x=1 XOR f|x=0]; the sensitivity function behind Najm-style
    transition-density propagation. *)

(** {1 Probability} *)

val probability : man -> (int -> float) -> t -> float
(** [probability m p f] is the probability that [f] evaluates to 1 when each
    variable [i] is independently 1 with probability [p i].  Exact, linear in
    the BDD size (one weighted traversal). *)

val probabilities : man -> (int -> float) -> t list -> float list
(** [probabilities m p fs] is [List.map (probability m p) fs], with the
    same floats, computed in one sweep whose memo is shared by every root:
    a node reached from several roots is weighted once.  The memo is an
    array over the slots of [m]'s store as it stands (live nodes only,
    after a {!release}), so use this when the roots cover much of the
    manager (every node of a network's global BDDs, say), and
    {!probability} for a single root in a large manager, where a walk of
    just the reachable nodes is cheaper.  Raises [Invalid_argument] if a
    root belongs to another manager or was released. *)

(** {1 Enumeration} *)

val fold_paths :
  man -> t -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Fold over all root-to-[1] paths; each path is the list of (variable,
    polarity) decisions along it, i.e. a cube of the function's cover.
    Path variables follow the manager's level order. *)

val to_expr : man -> t -> Expr.t
(** Multiplexer-tree expression equivalent to the function (one [ite] per
    node; exact, not minimized). *)
