(** Conflict-driven clause-learning SAT solver.

    The decision procedure behind miter-based equivalence checking
    ({!Cec}) and the [~verify] safety net on the synthesis passes.  Where
    the BDD engine represents a function canonically (and blows up on
    multiplier- and comparator-shaped functions), the solver answers one
    existence question per query and scales with the proof, not with the
    function — the standard division of labor in combinational
    verification flows.

    The implementation follows the MiniSat recipe on the repo's flat-array
    idiom (see {!Compiled}/{!Event_heap}): clauses live end-to-end in one
    int arena, two-watched-literal propagation walks int watch lists,
    first-UIP conflict analysis learns one asserting clause per conflict,
    VSIDS-style activity drives decisions through an indexed binary heap,
    and restarts follow the Luby sequence.  On top of that base ride the
    modern-solver upgrades: learned-clause minimization, LBD (glue)
    tracking with periodic clause-DB reduction, chronological (partial)
    backtracking, and SatELite-style preprocessing (subsumption,
    self-subsumption strengthening, bounded variable elimination) with
    on-demand re-introduction so incremental use stays sound.

    Solving is incremental: keep adding clauses and re-solving, and pass
    {e assumptions} to query the same clause database under different
    temporary hypotheses (the miter loop solves one output pair per
    assumption without re-encoding, keeping every learned clause).
    A solver runs on the calling domain and draws no random numbers, so
    the same sequence of calls gives the same verdicts, models and
    counters.

    Literal encoding: variable [v] as a positive literal is [2v], negated
    is [2v+1] — the same positional-cube packing used by {!Cube}. *)

type t
(** Mutable solver state: clause arena, watch lists, trail, activity
    heap, elimination store. *)

type lit = int

exception Interrupted
(** Raised out of {!solve} when the {!set_interrupt} hook fires (how
    callers impose a conflict budget).  The solver is left at decision
    level 0 and remains usable. *)

(** {1 Literals} *)

val pos : int -> lit
(** Positive literal of a variable. *)

val neg : int -> lit
(** Negative literal of a variable. *)

val negate : lit -> lit
val var_of : lit -> int

val is_pos : lit -> bool

(** {1 Problem construction} *)

val create : unit -> t
(** An empty solver.  Decisions pick the most active variable with its
    saved polarity (false before its first assignment), so a solve is
    deterministic.  A backjump longer than 100 levels unwinds a single
    level instead (chronological backtracking), and the SatELite pass
    runs once, at the first [solve]. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val num_vars : t -> int

val true_lit : t -> lit
(** A literal constrained true (allocated lazily, once per solver) —
    the constant used when encoding [Expr.Const]. *)

val add_clause : t -> lit list -> unit
(** Add a disjunction over existing variables.  Duplicate literals are
    merged, tautologies dropped, and literals already false at level 0
    removed; an empty (or emptied) clause makes the solver permanently
    unsatisfiable ({!ok} becomes false).  A clause over a variable the
    preprocessor eliminated transparently restores that variable first.
    Raises [Invalid_argument] on a literal of an unallocated variable. *)

val freeze : t -> int -> unit
(** Exempt a variable from preprocessing elimination.  Call on every
    variable that later clauses, assumptions or model queries will
    mention — the CNF encoders freeze primary inputs, outputs and
    activation literals.  Raises [Invalid_argument] on an unallocated
    variable. *)

val ok : t -> bool
(** [false] once the clause database is unsatisfiable regardless of
    assumptions (an empty clause was derived at level 0). *)

(** {1 Solving} *)

type outcome = Sat | Unsat

val solve : ?assumptions:lit list -> t -> outcome
(** Decide the clause database under the given assumptions (default
    none).  [Unsat] with assumptions means no model extends them; the
    clause database itself stays usable, and subsequent [solve] calls
    with other assumptions see all clauses learned so far. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer (snapshotted, so it
    survives later [add_clause]/[solve] calls).  Meaningless after
    [Unsat]. *)

val lit_true : t -> lit -> bool
(** Model value of a literal after [Sat]. *)

(** {1 Maintenance} *)

val simplify : t -> unit
(** Purge clauses satisfied at level 0 (e.g. obligations retired by a
    unit-negated activation literal), strip falsified literals, and
    compact the clause arena.  Incremental sessions call this
    periodically so retired obligations stop costing propagation time. *)

val preprocess : t -> unit
(** Run the SatELite pass (subsumption, self-subsumption, bounded
    variable elimination) explicitly.  Normally runs automatically on
    the first [solve]; exposed for tests and benchmarks. *)

val set_interrupt : t -> (unit -> bool) -> unit
(** Install a cancellation hook, polled every few thousand conflicts and
    at restart boundaries; when it returns [true], [solve] raises
    {!Interrupted}. *)

(** {1 Statistics} *)

type stats = {
  vars : int;
  clauses : int;            (** problem clauses currently stored *)
  learned_clauses : int;    (** clauses learned from conflicts *)
  learned_literals : int;   (** total literals across learned clauses *)
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  eliminated_vars : int;    (** variables removed by preprocessing *)
  subsumed_clauses : int;   (** clauses deleted by subsumption *)
  strengthened_clauses : int; (** self-subsumption strengthenings *)
  minimized_literals : int; (** literals dropped by clause minimization *)
  db_reductions : int;      (** clause-DB reduction passes *)
  removed_learned : int;    (** learned clauses deleted by reduction *)
}

val stats : t -> stats
(** Internal-consistency counters in the style of {!Bdd.stats}: every
    learned clause is an implicate of the database (the solver checks the
    asserting property on each one), so monotone counter growth doubles
    as a cheap DRAT-style audit trail for tests. *)

val empty_stats : stats
(** All-zero counters — the unit of {!sum_stats}. *)

val sum_stats : stats -> stats -> stats
(** Field-wise sum: aggregate counters across session solvers or whole
    job batches into one total-SAT-effort record. *)
