(** Steady-state analysis of an STG driven by a stochastic input source.

    Low-power state encoding needs the {e weighted} transition frequencies
    w(s, s') — how often the machine actually moves between each state pair
    — because the encoding objective is expected flip-flop toggles per
    cycle, not worst case (§III.C.1). *)

type input_dist = float array
(** Probability of each input code; must sum to 1. *)

val uniform_inputs : Stg.t -> input_dist

val biased_inputs : Stg.t -> bit_probs:float array -> input_dist
(** Independent input bits with the given 1-probabilities. *)

val steady_state :
  ?iterations:int -> ?epsilon:float -> Stg.t -> input_dist -> float array
(** Stationary distribution by power iteration from uniform (default 10,000
    iterations, stopping at L1 change below [epsilon] = 1e-12).  For
    periodic chains this returns the Cesàro average, which is what expected
    switching needs. *)

val edge_weights : Stg.t -> input_dist -> float array array
(** [w.(s).(s')] = steady-state probability of the s -> s' transition
    occurring in a random cycle; entries sum to 1. *)

val self_loop_probability : Stg.t -> input_dist -> float
(** Fraction of cycles spent on loop edges — the clock-gating opportunity
    that [4] exploits. *)
