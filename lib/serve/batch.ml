type job =
  | Estimate of { label : string; net : Network.t; input_probs : float array }
  | Synthesize of { label : string; net : Network.t; trace : Stimulus.t option }
  | Verify of { label : string; left : Network.t; right : Network.t }
  | Map of { label : string; net : Network.t; power : bool }
  | Encode_fsm of { label : string; stg : Stg.t }

let label = function
  | Estimate { label; _ }
  | Synthesize { label; _ }
  | Verify { label; _ }
  | Map { label; _ }
  | Encode_fsm { label; _ } -> label

type outcome =
  | Estimated of { probs : (string * float) array; switched_cap : float }
  | Promoted of Tournament.promotion
  | Checked of Cec.outcome
  | Mapped of { area : float; delay : float; cells : int }
  | Encoded of Tournament.fsm_promotion

let summarize = function
  | Estimated { probs; switched_cap } ->
    let b = Buffer.create 64 in
    Buffer.add_string b (Printf.sprintf "estimate cap=%.6g" switched_cap);
    Array.iter
      (fun (name, p) -> Buffer.add_string b (Printf.sprintf " %s=%.6g" name p))
      probs;
    Buffer.contents b
  | Promoted p ->
    Printf.sprintf
      "tournament champion=%s score=%.6g source=%.6g margin=%.6g hash=%x"
      p.Tournament.champion p.Tournament.champion_score
      p.Tournament.source_score p.Tournament.margin
      (Network.structural_hash p.Tournament.champion_net)
  | Checked Cec.Equivalent -> "verify equivalent"
  | Checked (Cec.Counterexample v) ->
    "verify counterexample "
    ^ String.concat "" (List.map (fun x -> if x then "1" else "0")
                          (Array.to_list v))
  | Mapped { area; delay; cells } ->
    Printf.sprintf "map area=%.6g delay=%.6g cells=%d" area delay cells
  | Encoded p ->
    Printf.sprintf "fsm champion=%s cap=%.6g margin=%.6g bits=%d"
      p.Tournament.fsm_champion p.Tournament.champion_capacitance
      p.Tournament.fsm_margin
      (List.fold_left
         (fun acc c ->
           if c.Tournament.encoding = p.Tournament.fsm_champion then
             c.Tournament.bits
           else acc)
         0 p.Tournament.encodings)

type report = {
  results : (string * outcome) array;
  pool : Pool.stats;
  memo : Memo.stats;
  sat : Solver.stats;
  wall_seconds : float;
  jobs_per_second : float;
  tournaments : int;
  champions_verified : int;
}

let execute memo = function
  | Estimate { label; net; input_probs } ->
    let exact = Probability.exact net ~input_probs in
    let probs =
      Array.of_list
        (List.map (fun (name, o) -> (name, Hashtbl.find exact o))
           (Network.outputs net))
    in
    let act = Activity.zero_delay ~exact:false net ~input_probs in
    ( label,
      Estimated { probs; switched_cap = Activity.switched_capacitance net act }
    )
  | Synthesize { label; net; trace } ->
    (label, Promoted (Tournament.run ~name:label ?trace ~memo net))
  | Verify { label; left; right } -> (label, Checked (Memo.check memo left right))
  | Map { label; net; power } ->
    let subj = Subject.decompose (Network.copy net) in
    let objective =
      if power then
        let input_probs =
          Array.make (List.length (Network.inputs subj)) 0.5
        in
        Mapper.Power (Activity.zero_delay ~exact:false subj ~input_probs)
      else Mapper.Area
    in
    let m = Mapper.map subj objective in
    ( label,
      Mapped
        {
          area = Mapper.total_area m;
          delay = Mapper.critical_delay m;
          cells =
            List.fold_left (fun acc (_, k) -> acc + k) 0 (Mapper.instances m);
        } )
  | Encode_fsm { label; stg } -> (label, Encoded (Tournament.run_fsm stg))

let run ?domains ?memo jobs =
  let memo = match memo with Some m -> m | None -> Memo.create () in
  let t0 = Unix.gettimeofday () in
  let results, pool = Pool.map ?domains (execute memo) jobs in
  let wall = Unix.gettimeofday () -. t0 in
  let sat = ref Solver.empty_stats in
  let tournaments = ref 0 in
  let champions = ref 0 in
  Array.iter
    (fun (_, outcome) ->
      match outcome with
      | Promoted p ->
        sat := Solver.sum_stats !sat p.Tournament.sat;
        incr tournaments;
        incr champions
      | Encoded p ->
        incr tournaments;
        let champ_ok =
          List.exists
            (fun c ->
              c.Tournament.encoding = p.Tournament.fsm_champion
              && c.Tournament.verified)
            p.Tournament.encodings
        in
        if champ_ok then incr champions
      | _ -> ())
    results;
  {
    results;
    pool;
    memo = Memo.stats memo;
    sat = !sat;
    wall_seconds = wall;
    jobs_per_second =
      (if wall > 0.0 then float_of_int (Array.length jobs) /. wall else 0.0);
    tournaments = !tournaments;
    champions_verified = !champions;
  }

(* Benchmark workload: seeded, shard-independent (Rng.stream per job
   index), with a deliberate fraction of repeated networks so the
   content-hash cache sees real traffic.  Shapes are kept modest — the
   point of the batch benchmark is scheduling and caching behavior,
   not single-job heroics. *)
let mixed_workload ?(seed = 1) ~n () =
  let root = Lowpower.Rng.create seed in
  let recent : Network.t list ref = ref [] in
  let remember net =
    recent := net :: List.filteri (fun j _ -> j < 15) !recent;
    net
  in
  let fresh_net r =
    let shape =
      {
        Gen_comb.num_inputs = 5 + Lowpower.Rng.int r 4;
        Gen_comb.num_gates = 12 + Lowpower.Rng.int r 16;
        Gen_comb.max_fanin = 3;
        Gen_comb.output_fraction = 0.2;
      }
    in
    remember (Gen_comb.random r shape)
  in
  let pick_net r =
    match !recent with
    | prev when prev <> [] && Lowpower.Rng.int r 4 = 0 ->
      List.nth prev (Lowpower.Rng.int r (List.length prev))
    | _ -> fresh_net r
  in
  Array.init n (fun i ->
      let r = Lowpower.Rng.stream root i in
      let slot = i mod 20 in
      if slot < 8 then
        let net = pick_net r in
        let input_probs =
          Array.init
            (List.length (Network.inputs net))
            (fun _ -> 0.2 +. Lowpower.Rng.float r 0.6)
        in
        Estimate { label = Printf.sprintf "est-%04d" i; net; input_probs }
      else if slot < 13 then
        let net = pick_net r in
        let trace =
          if i mod 2 = 0 then
            Some
              (Stimulus.random r
                 ~width:(List.length (Network.inputs net))
                 ~length:252 ())
          else None
        in
        Synthesize { label = Printf.sprintf "syn-%04d" i; net; trace }
      else if slot < 16 then
        let net = pick_net r in
        let right =
          match Subject.decompose (Network.copy net) with
          | d -> d
          | exception _ -> Network.copy net
        in
        Verify { label = Printf.sprintf "ver-%04d" i; left = net; right }
      else if slot < 18 then
        Map
          {
            label = Printf.sprintf "map-%04d" i;
            net = pick_net r;
            power = i mod 2 = 0;
          }
      else
        let stg =
          if i mod 2 = 0 then Gen_fsm.counter ~bits:(2 + Lowpower.Rng.int r 2)
          else
            Gen_fsm.random r
              ~num_states:(4 + Lowpower.Rng.int r 4)
              ~num_inputs:(1 + Lowpower.Rng.int r 1)
              ~num_outputs:(1 + Lowpower.Rng.int r 1)
              ()
        in
        Encode_fsm { label = Printf.sprintf "fsm-%04d" i; stg })
