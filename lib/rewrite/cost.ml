(* Switching-activity cost of a rewrite candidate: elaborate to gates,
   then either measure settled toggles over the trace (the word-parallel
   [Bitsim] path, ~100 us per candidate) or estimate them with the
   independence model.  [Area] costs literals instead — the baseline E23
   compares activity-driven search against. *)

type model = Toggles | Independence | Area

let stimulus net trace = List.map (Elaborate.input_vector net) trace

let of_network ?(model = Toggles) net ~trace =
  match model with
  | Area -> float_of_int (Network.literal_count net)
  | Toggles ->
    if trace = [] then invalid_arg "Cost.of_network: empty trace";
    let bs = Bitsim.of_network net in
    let c = Bitsim.compiled bs in
    let counts = Bitsim.count_transitions bs (stimulus net trace) in
    let total = ref 0.0 in
    Array.iteri
      (fun x n -> total := !total +. (Compiled.cap c x *. float_of_int n))
      counts;
    !total
  | Independence ->
    if trace = [] then invalid_arg "Cost.of_network: empty trace";
    let probs = Stimulus.empirical_probs (stimulus net trace) in
    let act = Activity.zero_delay ~exact:false net ~input_probs:probs in
    Activity.switched_capacitance net act

let of_dfg ?(model = Toggles) ?inputs dfg ~trace =
  of_network ~model (Elaborate.to_network ?inputs dfg) ~trace
