(** State transition graphs: completely specified, deterministic Mealy
    machines over binary input/output alphabets (§III.C).

    States are abstract indices; {!Encode} assigns them binary codes, and
    {!Fsm_synth} turns an encoded machine into logic plus flip-flops. *)

type t

val create :
  ?name:string -> num_states:int -> num_inputs:int -> num_outputs:int
  -> next:(int -> int -> int) -> output:(int -> int -> int) -> unit -> t
(** [create ~num_states ~num_inputs ~num_outputs ~next ~output ()] tabulates
    the machine: [next s i] and [output s i] for every state [s] and input
    code [i] in [0, 2^num_inputs).  Raises [Invalid_argument] on
    out-of-range next states or outputs, or on [num_inputs > 12]. *)

val name : t -> string
val num_states : t -> int
val num_inputs : t -> int
(** Input bits. *)

val num_input_codes : t -> int
val num_outputs : t -> int
(** Output bits. *)

val next : t -> int -> int -> int
val output : t -> int -> int -> int

val has_self_loop : t -> int -> int -> bool
(** [next s i = s] — the loop-edges that gated-clock FSM optimization [4]
    disables next-state computation for. *)

val reachable : t -> from:int -> int list
(** States reachable from the given one (inclusive), sorted. *)

val pp : Format.formatter -> t -> unit
