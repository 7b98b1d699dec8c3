type input_dist = float array

let check_dist stg q =
  if Array.length q <> Stg.num_input_codes stg then
    invalid_arg "Markov: input distribution arity mismatch";
  let s = Array.fold_left ( +. ) 0.0 q in
  if Float.abs (s -. 1.0) > 1e-6 then
    invalid_arg "Markov: input distribution does not sum to 1"

let uniform_inputs stg =
  let n = Stg.num_input_codes stg in
  Array.make n (1.0 /. float_of_int n)

let biased_inputs stg ~bit_probs =
  if Array.length bit_probs <> Stg.num_inputs stg then
    invalid_arg "Markov.biased_inputs: bit arity mismatch";
  Array.init (Stg.num_input_codes stg) (fun code ->
      let p = ref 1.0 in
      Array.iteri
        (fun k pk ->
          let bit = code land (1 lsl k) <> 0 in
          p := !p *. (if bit then pk else 1.0 -. pk))
        bit_probs;
      !p)

let transition_matrix stg q =
  check_dist stg q;
  let n = Stg.num_states stg in
  let p = Array.make_matrix n n 0.0 in
  for s = 0 to n - 1 do
    for i = 0 to Stg.num_input_codes stg - 1 do
      let s' = Stg.next stg s i in
      p.(s).(s') <- p.(s).(s') +. q.(i)
    done
  done;
  p

let steady_state ?(iterations = 10_000) ?(epsilon = 1e-12) stg q =
  let p = transition_matrix stg q in
  let n = Stg.num_states stg in
  let pi = ref (Array.make n (1.0 /. float_of_int n)) in
  let avg = Array.make n 0.0 in
  let rec go k =
    if k >= iterations then ()
    else begin
      let nxt = Array.make n 0.0 in
      for s = 0 to n - 1 do
        for s' = 0 to n - 1 do
          nxt.(s') <- nxt.(s') +. (!pi.(s) *. p.(s).(s'))
        done
      done;
      let delta = ref 0.0 in
      for s = 0 to n - 1 do
        delta := !delta +. Float.abs (nxt.(s) -. !pi.(s))
      done;
      (* Cesàro average damps periodic chains. *)
      for s = 0 to n - 1 do
        avg.(s) <- 0.5 *. (nxt.(s) +. !pi.(s))
      done;
      pi := nxt;
      if !delta > epsilon then go (k + 1)
    end
  in
  go 0;
  let total = Array.fold_left ( +. ) 0.0 avg in
  if total = 0.0 then !pi else Array.map (fun x -> x /. total) avg

let edge_weights stg q =
  check_dist stg q;
  let pi = steady_state stg q in
  let n = Stg.num_states stg in
  let w = Array.make_matrix n n 0.0 in
  for s = 0 to n - 1 do
    for i = 0 to Stg.num_input_codes stg - 1 do
      let s' = Stg.next stg s i in
      w.(s).(s') <- w.(s).(s') +. (pi.(s) *. q.(i))
    done
  done;
  w

let self_loop_probability stg q =
  let w = edge_weights stg q in
  let total = ref 0.0 in
  Array.iteri (fun s row -> total := !total +. row.(s)) w;
  !total
