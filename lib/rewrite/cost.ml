(* Switching-activity cost of a rewrite candidate: elaborate to gates,
   then either measure settled toggles over the trace (the word-parallel
   [Bitsim] path, ~100 us per candidate) or estimate them with the
   independence model.  [Area] costs literals instead — the baseline E23
   compares activity-driven search against. *)

type model = Toggles | Independence | Area

(* Same SplitMix-style mixing as Memo's keys; local because the
   fingerprint folds words and names Memo never sees. *)
let mix z =
  let z = (z * 0x1E3779B97F4A7C15) + 0x165667B19E3779F9 in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 31)) * 0x27D4EB2F165667C5 in
  (z lxor (z lsr 30)) land max_int

let combine h x = mix ((h * 0x100000001B3) lxor x)

let h_string s =
  let h = ref (mix (String.length s)) in
  String.iter (fun c -> h := combine !h (Char.code c)) s;
  !h

let fingerprint ?inputs model trace =
  let tag = match model with Toggles -> 1 | Independence -> 2 | Area -> 3 in
  let h = mix tag in
  let h =
    match inputs with
    | None -> combine h 0
    | Some ns ->
      List.fold_left
        (fun h nm -> combine h (h_string nm))
        (combine h 1)
        (List.sort compare ns)
  in
  List.fold_left
    (fun h env ->
      List.fold_left
        (fun h (nm, v) -> combine (combine h (h_string nm)) v)
        (combine h 7) env)
    h trace

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

let of_dfg ?memo ?(model = Toggles) ?inputs dfg ~trace =
  let compute () =
    of_network ~model (Elaborate.to_network ?inputs dfg) ~trace
  in
  match memo with
  | None -> compute ()
  | Some m ->
    Memo.dfg_activity m dfg ~fingerprint:(fingerprint ?inputs model trace)
      compute
