(** Verification dispatch for the synthesis and sequential passes.

    Every network-rewriting pass offers a [?verify] argument of this
    [mode] type; the pass builds its proof obligation (behavioural
    equivalence of the network before/after, or unsatisfiability of a
    violation output) and hands it here.  [`Sat] discharges through
    {!Cec} (random simulation + CDCL), [`Off] skips the check.

    The process-wide default comes from the [LOWPOWER_VERIFY] environment
    variable ("sat" means [`Sat]; unset, empty or "off" means [`Off]),
    so a CI run can force verification across the whole test suite
    without touching call sites. *)

type mode = [ `Sat | `Off ]

exception Failed of string
(** A proof obligation did not hold.  The message names the pass and
    shows the counterexample input vector. *)

val default : unit -> mode
(** The mode selected by [LOWPOWER_VERIFY] (read per call, so tests may
    set it mid-process).  Raises [Invalid_argument] naming the accepted
    values on any other value, so a typo never turns verification off. *)

val resolve : mode option -> mode
(** [resolve m] is the explicit mode when given, else {!default} — the
    shared dispatch every [?verify]-taking pass funnels through. *)

val equivalent : ?mode:mode -> pass:string -> Network.t -> Network.t -> unit
(** [equivalent ~pass before after] checks that the two networks compute
    the same function on every equally-named output.  Raises {!Failed}
    naming [pass] on a mismatch; does nothing under [`Off]. *)

val never_true : ?mode:mode -> pass:string -> Network.t -> string -> unit
(** [never_true ~pass net out] checks that the named output is the
    constant-false function — the shape of the guard/precompute safety
    obligations — by one {!Cec.satisfiable} solve.  Raises {!Failed}
    naming [pass] if some input vector drives it to 1; does nothing
    under [`Off]. *)
