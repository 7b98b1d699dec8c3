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

val synthesize : Stg.t -> Encode.t -> t
(** Build the sequential circuit: primary inputs [in0..], state registers
    initialized to the code of state 0 (the reset state), minimized SOP
    next-state and output functions.  Raises [Invalid_argument] if
    [num_inputs + bits > 16] (two-level tabulation limit). *)

val literal_count : t -> int
(** Combinational complexity of the synthesized logic. *)

val simulate_inputs :
  t -> Stg.t -> rng:Lowpower.Rng.t -> dist:Markov.input_dist -> cycles:int
  -> Seq_circuit.stats
(** Drive the synthesized circuit with input codes drawn from the given
    distribution and return full power statistics. *)

val implements : t -> Stg.t -> bool
(** Exact check that the circuit implements the STG from reset, where
    register [k] holds bit [k] of the state code and output bit [b] is the
    network output [out<b>].
    - Power-up: register [k]'s [init] is bit [k] of state 0's code.
    - Step: for every state reachable from state 0 and every input code,
      the combinational core evaluated at (input code, the state's code)
      gives the STG's outputs, and the registers load the next state's
      code: [d] where a register's enable is 1 or absent, [q] where it
      is 0.

    By induction on cycles the registers then always hold a reachable
    state's code, so every input sequence gives the STG's output trace.
    Registers, enables and power-up values are read from
    {!Seq_circuit.registers}, not from [next_state_nodes].  Departures at
    codes no reachable state has are not behaviour, and pass.  Each
    (state, input code) pair is one {!Bitsim} lane; {!synthesize}'s bound
    of 16 input plus state bits keeps that to at most 2^16 pairs (1,041
    words).  A circuit whose register or free-input count differs from
    the encoding's bits or the STG's input bits is rejected. *)

val verify : t -> Stg.t -> rng:Lowpower.Rng.t -> cycles:int -> bool
(** The scalar oracle: run {!Seq_circuit.simulate} on [cycles] uniformly
    random input codes and compare its output trace with the STG's from
    state 0.  It honours register load-enables.  A sample, not a proof:
    the tests compare {!implements} against it. *)
