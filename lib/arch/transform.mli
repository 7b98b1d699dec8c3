(** Behavioral transformations for power (§IV.B; [7], [10]).

    The two implemented here target the schedule-length reduction that
    enables voltage scaling, and the operation-count reduction that lowers
    switched capacitance directly:

    - {e tree-height reduction}: a chain [((a+b)+c)+d] of depth 3 becomes a
      balanced tree of depth 2 — same work, fewer control steps;
    - {e strength reduction}: multiplication by a power-of-two constant
      becomes a shift, replacing a high-capacitance multiplier activation
      with a trivial shifter one. *)

val tree_height_reduce : Dfg.t -> Dfg.t
(** Rebalance maximal chains of same-operator associative operations
    (Add and Mul) whose intermediate results have no other consumers.
    The result computes the same outputs (verified by {!equivalent}). *)

val strength_reduce : Dfg.t -> Dfg.t
(** Replace [Mul (x, Const 2^k)] (either operand order) with
    [Shift_left k x]. *)

val equivalent :
  ?samples:int -> Dfg.t -> Dfg.t -> rng:Lowpower.Rng.t -> bool
(** Random-input equivalence check over the union of both graphs' named
    inputs (transforms may drop inputs that no output depends on; a
    transform that wrongly drops a {e used} input is caught because the
    surviving graph's outputs still vary with it).  [samples] defaults
    to 64 and is caller-configurable — the rewrite search threads its
    [--samples] knob through here; [0] checks nothing and a negative
    count raises [Invalid_argument]. *)

val critical_steps : Dfg.t -> ?mul_steps:int -> unit -> int
(** ASAP makespan under {!Schedule.uniform_delays} — the quantity
    transformations try to shrink. *)
