(** Tseitin CNF encoding of expressions and Boolean networks.

    Every logic node gets one solver literal equivalent to its function
    over the fanin literals, with auxiliary variables for the internal
    operators — linear in the network size, no SOP blow-up.  Encoding two
    networks into one solver over {e shared} input literals (the
    [?inputs] argument) is the miter construction {!Cec} builds on.

    Expression encodings can be made {e retirable}: with [?activation]
    every emitted clause carries the negated activation literal, so the
    encoding is inert unless the activation is assumed true, and is
    permanently retired by the unit clause [¬act] (then physically
    reclaimed by {!Solver.simplify}).  This is how {!Cec} sessions check
    a stream of operands in one live solver.  {!add_network} freezes
    every boundary variable — primary inputs and output literals — so
    preprocessing-by-elimination never removes a variable later clauses,
    assumptions or model queries mention. *)

type env = {
  net : Network.t;
  inputs : Solver.lit array;  (** literal of each primary input, by position *)
  nodes : (Network.id, Solver.lit) Hashtbl.t;
}

val lit_of_expr :
  ?activation:Solver.lit ->
  Solver.t ->
  leaf:(int -> Solver.lit) ->
  Expr.t ->
  Solver.lit
(** Encode one expression; [leaf v] supplies the literal of variable [v].
    Returns a literal constrained (by the added clauses) to equal the
    expression's value — conditionally on [activation] when given. *)

val add_network : ?inputs:Solver.lit array -> Solver.t -> Network.t -> env
(** Encode every node of a network.  Fresh input variables are allocated
    unless [inputs] supplies existing literals (length must match the
    input count; raises [Invalid_argument] otherwise). *)

val lit_of_node : env -> Network.id -> Solver.lit
(** Raises [Not_found] on an id absent from the encoded network. *)

val lit_of_output : env -> string -> Solver.lit
(** Raises [Not_found] on an unknown output name. *)
