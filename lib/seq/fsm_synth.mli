(** FSM synthesis: an encoded STG becomes two-level next-state and output
    logic plus a state register (§III.C.1).

    Codes not assigned to any state, and input/state combinations that can
    never occur, are don't-cares for the two-level minimizer — which is how
    the encoding's effect on combinational-logic complexity (the concern the
    survey raises about power-driven encodings) becomes measurable. *)

type t = {
  circuit : Seq_circuit.t;
  encoding : Encode.t;
  state_inputs : Network.id list;  (** q nodes, LSB first *)
  next_state_nodes : Network.id list;
  output_nodes : (string * Network.id) list;
}

val synthesize :
  ?reset_state:int -> ?ff_clock_cap:float -> Stg.t -> Encode.t -> t
(** Build the sequential circuit: primary inputs [in0..], state registers
    initialized to the reset state's code (default state 0), minimized SOP
    next-state and output functions.  Raises [Invalid_argument] if
    [num_inputs + bits > 16] (two-level tabulation limit). *)

val literal_count : t -> int
(** Combinational complexity of the synthesized logic. *)

val simulate_inputs :
  t -> Stg.t -> rng:Lowpower.Rng.t -> dist:Markov.input_dist -> cycles:int
  -> Seq_circuit.stats
(** Drive the synthesized circuit with input codes drawn from the given
    distribution and return full power statistics. *)

val verify : ?packed:bool -> t -> Stg.t -> rng:Lowpower.Rng.t -> cycles:int
  -> bool
(** Co-simulate circuit vs STG from reset on random inputs; true iff output
    traces agree everywhere.  By default ([packed] true) the check runs
    word-parallel: 63 independent runs of [cycles] steps each, one per bit
    lane, stepped through a single bit-plane evaluation per cycle — 63x
    the coverage of the scalar check ([~packed:false], the reference the
    tests compare it against) at essentially its cost.  Both honour
    register load-enables: a register holds its value in cycles (lanes)
    where its enable is 0. *)
