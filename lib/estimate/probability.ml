type t = (Network.id, float) Hashtbl.t

let check_probs net input_probs =
  let arity = List.length (Network.inputs net) in
  if Array.length input_probs <> arity then
    invalid_arg "Probability: input_probs arity mismatch";
  Array.iter
    (fun p ->
      if p < 0.0 || p > 1.0 then
        invalid_arg "Probability: probability outside [0,1]")
    input_probs

let exact net ~input_probs =
  check_probs net input_probs;
  let man = Bdd.manager () in
  let bdds = Network.global_bdds net man in
  (* Global BDDs share most of their nodes: one shared-memo sweep weighs
     each node once instead of once per node whose cone reaches it. *)
  let ids, roots =
    List.split (List.rev (Hashtbl.fold (fun i b acc -> (i, b) :: acc) bdds []))
  in
  let ps = Bdd.probabilities man (fun v -> input_probs.(v)) roots in
  let probs = Hashtbl.create (Hashtbl.length bdds) in
  List.iter2 (Hashtbl.replace probs) ids ps;
  probs

let approximate net ~input_probs =
  check_probs net input_probs;
  let probs = Hashtbl.create 64 in
  let man = Bdd.manager () in
  List.iter
    (fun i ->
      if Network.is_input net i then
        Hashtbl.replace probs i input_probs.(Network.input_index net i)
      else begin
        let fanins = Network.fanins net i in
        let fanin_probs =
          Array.of_list (List.map (Hashtbl.find probs) fanins)
        in
        (* Local BDD over fanin positions; exact within the node, but fanin
           independence is assumed, which is the source of error under
           reconvergent fanout. *)
        let local = Bdd.of_expr man (Network.func net i) in
        Hashtbl.replace probs i
          (Bdd.probability man (fun v -> fanin_probs.(v)) local)
      end)
    (Network.topo_order net);
  probs

let counts_to_probs c counts denom =
  let probs = Hashtbl.create (Compiled.size c) in
  Array.iteri
    (fun x ct ->
      Hashtbl.replace probs
        (Compiled.id_of_index c x)
        (float_of_int ct /. float_of_int denom))
    counts;
  probs

let simulated_scalar c ~rng ~input_probs ~vectors =
  let n = Compiled.size c in
  let arity = Array.length input_probs in
  let counts = Array.make n 0 in
  let vec = Array.make arity false in
  let plane = Array.make n false in
  for _ = 1 to vectors do
    for k = 0 to arity - 1 do
      vec.(k) <- Lowpower.Rng.bernoulli rng input_probs.(k)
    done;
    Compiled.eval_into c vec plane;
    for x = 0 to n - 1 do
      if plane.(x) then counts.(x) <- counts.(x) + 1
    done
  done;
  counts

(* Each 63-vector word block draws its input planes from its own
   [Rng.stream] off [base]. *)
let packed_counts b ~base ~input_probs ~vectors =
  let n = Bitsim.size b in
  let arity = Array.length input_probs in
  let w = Bitsim.vectors_per_word in
  let counts = Array.make n 0 in
  let words = Array.make arity 0 in
  let plane = Array.make n 0 in
  for blk = 0 to ((vectors + w - 1) / w) - 1 do
    let rng = Lowpower.Rng.stream base blk in
    for k = 0 to arity - 1 do
      words.(k) <- Lowpower.Rng.bernoulli_word rng input_probs.(k)
    done;
    Bitsim.eval_into b words plane;
    let mask = Bitsim.lane_mask (min w (vectors - (blk * w))) in
    for x = 0 to n - 1 do
      counts.(x) <- counts.(x) + Bitsim.popcount (plane.(x) land mask)
    done
  done;
  counts

let simulated ?(packed = true) net ~rng ~input_probs ~vectors =
  check_probs net input_probs;
  if vectors <= 0 then invalid_arg "Probability.simulated: vectors <= 0";
  let c = Compiled.of_network net in
  let counts =
    if packed then
      (* [split] advances the caller's generator once; the packed path then
         draws from pure per-block streams off that snapshot. *)
      packed_counts (Bitsim.of_compiled c) ~base:(Lowpower.Rng.split rng)
        ~input_probs ~vectors
    else simulated_scalar c ~rng ~input_probs ~vectors
  in
  counts_to_probs c counts vectors

let empirical ?(packed = true) net stream =
  let length = List.length stream in
  if length = 0 then invalid_arg "Probability.empirical: empty stream";
  let arity = List.length (Network.inputs net) in
  List.iter
    (fun vec ->
      if Array.length vec <> arity then
        invalid_arg "Probability.empirical: vector arity mismatch")
    stream;
  let c = Compiled.of_network net in
  let n = Compiled.size c in
  let counts =
    if packed then begin
      let b = Bitsim.of_compiled c in
      let counts = Array.make n 0 in
      let plane = Array.make n 0 in
      let w = Bitsim.vectors_per_word in
      Array.iteri
        (fun blk words ->
          Bitsim.eval_into b words plane;
          let mask = Bitsim.lane_mask (min w (length - (blk * w))) in
          for x = 0 to n - 1 do
            counts.(x) <- counts.(x) + Bitsim.popcount (plane.(x) land mask)
          done)
        (Stimulus.pack stream);
      counts
    end
    else begin
      let counts = Array.make n 0 in
      let plane = Array.make n false in
      List.iter
        (fun vec ->
          Compiled.eval_into c vec plane;
          for x = 0 to n - 1 do
            if plane.(x) then counts.(x) <- counts.(x) + 1
          done)
        stream;
      counts
    end
  in
  counts_to_probs c counts length

let uniform_inputs net = Array.make (List.length (Network.inputs net)) 0.5
