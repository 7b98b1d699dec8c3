(** State encoding for low power (§III.C.1; [35], [47], [18]).

    The objective: given steady-state transition weights w(s, s'), choose
    binary codes so that frequently-taken transitions connect codes at small
    Hamming distance — ideally uni-distant — minimizing expected flip-flop
    toggles per cycle.  Area (the complexity of the resulting next-state
    logic) is the competing concern the survey warns about; {!Fsm_synth}
    measures it after the fact. *)

type t = {
  bits : int;
  codes : int array; (** state -> code; injective, codes < 2^bits *)
}

val validate : num_states:int -> t -> unit
(** Raises [Invalid_argument] on duplicate or out-of-range codes. *)

val binary : num_states:int -> t
(** State [s] gets code [s]. *)

val gray : num_states:int -> t
(** State [s] gets the [s]-th Gray code. *)

val one_hot : num_states:int -> t
(** [num_states] bits, one per state. *)

val random : Lowpower.Rng.t -> num_states:int -> t
(** Random permutation of the minimal-width code space. *)

val weighted_activity : Stg.t -> Markov.input_dist -> t -> float
(** Expected state-register bit toggles per cycle:
    [sum w(s,s') * hamming(code s, code s')]. *)

val low_power :
  ?bits:int -> ?restarts:int -> ?seed:int -> Stg.t -> Markov.input_dist -> t
(** Minimize {!weighted_activity}: greedy placement seeded by the heaviest
    transition edges (high-weight pairs get uni-distant codes where
    possible), then pairwise-swap hill climbing, best of [restarts]
    (default 4) randomized runs.  [bits] defaults to the minimal width. *)

val improve :
  ?sweeps:int -> Stg.t -> Markov.input_dist -> t -> t
(** Re-encoding ([18]): pairwise-swap descent from an existing encoding —
    never returns a worse one. *)
