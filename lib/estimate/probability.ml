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

(* Per-node one-counts over [vectors] input vectors, 63 to a block:
   [fill blk words] writes block [blk]'s input words, and the lanes of the
   last block past [vectors] are not counted. *)
let packed_counts b ~fill ~vectors =
  let n = Bitsim.size b in
  let w = Bitsim.vectors_per_word in
  let counts = Array.make n 0 in
  let words = Array.make (Bitsim.num_inputs b) 0 in
  let plane = Array.make n 0 in
  for blk = 0 to ((vectors + w - 1) / w) - 1 do
    fill blk words;
    Bitsim.eval_into b words plane;
    let mask = Bitsim.lane_mask (min w (vectors - (blk * w))) in
    for x = 0 to n - 1 do
      counts.(x) <- counts.(x) + Bitsim.popcount (plane.(x) land mask)
    done
  done;
  counts

(* Global BDDs that outgrow the exhaustive count's cost, node_count x
   ceil(2^n / 63) word evaluations, divided by [count_ratio] are abandoned
   for the count.  Timed on the size_mapped designs' subject graphs
   (EXPERIMENTS.md): 64 sends both multipliers to counting and keeps most
   200-gate 16-input random nets on BDDs.  [max_counted_inputs] keeps 2^n
   and the budget product well inside an int. *)
let count_ratio = 64
let max_counted_inputs = 40

let exact net ~input_probs =
  check_probs net input_probs;
  let n = Array.length input_probs in
  let w = Bitsim.vectors_per_word in
  let max_nodes =
    if n <= max_counted_inputs && Array.for_all (fun p -> p = 0.5) input_probs
    then Network.node_count net * (((1 lsl n) + w - 1) / w) / count_ratio
    else max_int
  in
  let man = Bdd.manager () in
  let bdds = Network.global_bdds ~max_nodes net man in
  (* [probs] is filled in reverse topological order.  The build table is
     filled in topological order, and [List.rev] of a fold over it meets
     each hash bucket's keys newest first, so filling from that fold (the
     order the golden outputs were made with) gives the same buckets.
     Float sums folded over [probs] ([Activity.switched_capacitance]) add
     in that one order, whichever way the floats were computed. *)
  let ids = List.rev (Network.topo_order net) in
  let ps =
    if Bdd.node_count man > max_nodes then begin
      (* Every input is 1/2, so each BDD float is (vectors setting the
         node) / 2^n, computed exactly; counting all 2^n vectors gives the
         same floats bit for bit. *)
      let c = Compiled.of_network net in
      let vectors = 1 lsl n in
      let counts =
        packed_counts (Bitsim.of_compiled c) ~vectors ~fill:(fun blk words ->
            for k = 0 to n - 1 do
              words.(k) <- Bitsim.exhaustive_word k blk
            done)
      in
      let denom = float_of_int vectors in
      List.map
        (fun i -> float_of_int counts.(Compiled.index_of_id c i) /. denom)
        ids
    end
    else
      (* Global BDDs share most of their nodes: one shared-memo sweep
         weighs each node once instead of once per node whose cone
         reaches it. *)
      Bdd.probabilities man
        (fun v -> input_probs.(v))
        (List.map (Hashtbl.find bdds) ids)
  in
  let probs = Hashtbl.create (List.length ids) in
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

let simulated ?(packed = true) net ~rng ~input_probs ~vectors =
  check_probs net input_probs;
  if vectors <= 0 then invalid_arg "Probability.simulated: vectors <= 0";
  let c = Compiled.of_network net in
  let counts =
    if packed then
      (* [split] advances the caller's generator once; each 63-vector
         block then draws its input words from its own pure [Rng.stream]
         off that snapshot. *)
      let base = Lowpower.Rng.split rng in
      packed_counts (Bitsim.of_compiled c) ~vectors ~fill:(fun blk words ->
          let rng = Lowpower.Rng.stream base blk in
          for k = 0 to Array.length words - 1 do
            words.(k) <- Lowpower.Rng.bernoulli_word rng input_probs.(k)
          done)
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
      let blocks = Stimulus.pack stream in
      packed_counts (Bitsim.of_compiled c) ~vectors:length
        ~fill:(fun blk words -> Array.blit blocks.(blk) 0 words 0 arity)
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
