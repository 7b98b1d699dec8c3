(* End-to-end benchmark of the toolkit's four user flows: the batch
   service, strategy tournaments, datapath rewrite search and dual-Vth
   sizing.  One run measures one workload over a fixed window:

     benchmark.exe --workload NAME --seed N --seconds S --trace 0|1

   Inputs are built from the seed alone.  The load is a closed loop with
   a single caller: a round submits every job of the workload once and
   waits for all results, and rounds repeat until the window closes.
   End-to-end metrics are medians over rounds.  With [--trace 1] the same
   inputs also run with spans recorded around calls into each layer's
   public functions (from this file, not from inside the library), and
   the run reports per-layer metrics instead.

   Every run checks the program's outputs independently of the code that
   produced them (see the [*_ok] functions) and checks that every round,
   traced or not, reproduces the first round's per-job digests.  The last
   line of stdout is one JSON object with the keys [correct], [attempted],
   [failed] and [metrics].  perfbench/run.py builds and wraps this
   executable. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc = Domain.recommended_domain_count ()

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let count p xs = List.length (List.filter p xs)

(* A check that raises (e.g. a network whose outputs no longer match the
   source's names) is a failed check. *)
let holds f = try f () with _ -> false

(* {1 Spans}

   Recorded only by the traced runs, around calls into one layer.  The
   traced code is single-domain, so one stack gives every span its
   parent. *)

module Span = struct
  type t = {
    name : string;
    id : int;
    parent : int;  (** [-1] at top level *)
    t0 : float;
    mutable t1 : float;
  }

  let log : t list ref = ref []
  let all : t list ref = ref []
  let stack : t list ref = ref []
  let next = ref 0

  let record name f =
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    incr next;
    let s = { name; id = !next; parent; t0 = now (); t1 = 0.0 } in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        log := s :: !log)

  (* The spans closed since the last call, oldest first. *)
  let take () =
    let l = List.rev !log in
    log := [];
    all := List.rev_append l !all;
    l

  let duration s = s.t1 -. s.t0

  (* Self time: the span's duration minus its children's (children of one
     span are sequential, so their durations do not overlap). *)
  let self_times spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (duration s
            +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
      spans;
    List.map
      (fun s ->
        ( s,
          duration s
          -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) ))
      spans

  (* Chrome trace-event JSON (chrome://tracing, Perfetto). *)
  let write_chrome path ~origin =
    let oc = open_out path in
    output_string oc "{\"traceEvents\": [\n";
    List.iteri
      (fun k s ->
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
           %.1f, \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d}}"
          (if k = 0 then "" else ",\n")
          s.name
          ((s.t0 -. origin) *. 1e6)
          (duration s *. 1e6) s.id s.parent)
      (List.rev !all);
    output_string oc "\n]}\n";
    close_out oc
end

(* {1 Workloads}

   A prepared workload runs one round per call.  A round reports, per job
   and in job order, a digest of its output (what later rounds and the
   traced run must reproduce); the share of its source's power each job's
   result keeps; the jobs the program itself left unverified; counters
   read from the program's own statistics records; and a deferred
   independent check of its outputs. *)

type round = {
  digests : string array;
  retained : float list;  (** result power / source power, per job *)
  unverified : int;
  counts : (string * float) list;
  check : unit -> int;  (** jobs whose outputs fail the check *)
}

type instance = {
  pool_domains : int;  (** [Pool] workers per round; [0] if unused *)
  run : unit -> round;  (** as a user calls the flow *)
  serial : (unit -> round) option;
      (** the untraced run that {!traced} mirrors, when it is not [run] *)
  traced : unit -> round;  (** the same inputs, with spans *)
}

let sat_counts (s : Solver.stats) =
  [ ("sat.conflicts", float_of_int s.Solver.conflicts);
    ("sat.propagations", float_of_int s.Solver.propagations);
    ("sat.decisions", float_of_int s.Solver.decisions);
    ("sat.learned_clauses", float_of_int s.Solver.learned_clauses) ]

let memo_counts (stats : Memo.stats list) =
  let hits = List.fold_left (fun a (m : Memo.stats) -> a + m.Memo.hits) 0 stats
  and misses =
    List.fold_left (fun a (m : Memo.stats) -> a + m.Memo.misses) 0 stats
  and evictions =
    List.fold_left (fun a (m : Memo.stats) -> a + m.Memo.evictions) 0 stats
  in
  [ ("memo.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("memo.evictions", float_of_int evictions) ]

let retained ~source ~result =
  if source > 0.0 then Some (result /. source) else None

let promoted_retained (p : Tournament.promotion) =
  retained ~source:p.Tournament.source_score ~result:p.Tournament.champion_score

let num_inputs net = List.length (Network.inputs net)

let all_vectors n f =
  if n > 16 then invalid_arg "all_vectors: too many inputs";
  for v = 0 to (1 lsl n) - 1 do
    f (Array.init n (fun k -> v land (1 lsl k) <> 0))
  done

(* The champion is proved equivalent to its source by a fresh solver, not
   the tournament's shared session, and scores no worse than the source. *)
let champion_ok net (p : Tournament.promotion) =
  p.Tournament.champion_score <= p.Tournament.source_score
  && Cec.check net p.Tournament.champion_net = Cec.Equivalent

(* {2 batch_mixed} *)

let batch_kind = function
  | Batch.Estimate _ -> "estimate"
  | Batch.Synthesize _ -> "synthesize"
  | Batch.Verify _ -> "verify"
  | Batch.Map _ -> "map"
  | Batch.Encode_fsm _ -> "encode_fsm"

(* Exact output probabilities by enumerating every input vector. *)
let probabilities_ok net input_probs probs =
  let acc = Hashtbl.create 8 in
  all_vectors (num_inputs net) (fun x ->
      let w = ref 1.0 in
      Array.iteri
        (fun k b ->
          w := !w *. if b then input_probs.(k) else 1.0 -. input_probs.(k))
        x;
      List.iter
        (fun (o, b) ->
          if b then
            Hashtbl.replace acc o
              (!w +. Option.value ~default:0.0 (Hashtbl.find_opt acc o)))
        (Network.eval_outputs net x));
  Array.for_all
    (fun (o, p) ->
      Float.abs (p -. Option.value ~default:0.0 (Hashtbl.find_opt acc o))
      < 1e-9)
    probs

(* Output-by-output agreement on every input vector, or on 1024 seeded
   random vectors past 10 inputs. *)
let same_function a b =
  let outputs net x = List.sort compare (Network.eval_outputs net x) in
  let n = num_inputs a in
  let ok = ref true in
  let probe x = if outputs a x <> outputs b x then ok := false in
  if n <= 10 then all_vectors n probe
  else begin
    let rng = Lowpower.Rng.create 0xC0FFEE in
    for _ = 1 to 1024 do
      probe (Array.init n (fun _ -> Lowpower.Rng.bool rng))
    done
  end;
  !ok

(* The mapped netlist is rebuilt and proved against the source; its
   area and cell count must match what the batch reported. *)
let map_ok net power ~area ~cells =
  let subj = Subject.decompose (Network.copy net) in
  let objective =
    if power then
      Mapper.Power
        (Activity.zero_delay ~exact:false subj
           ~input_probs:(Probability.uniform_inputs subj))
    else Mapper.Area
  in
  let m = Mapper.map ~verify:`Off subj objective in
  Mapper.total_area m = area
  && List.fold_left (fun a (_, k) -> a + k) 0 (Mapper.instances m) = cells
  && Cec.check net (Mapper.netlist m) = Cec.Equivalent

let fsm_ok stg (p : Tournament.fsm_promotion) =
  Fsm_synth.verify p.Tournament.champion_synth stg
    ~rng:(Lowpower.Rng.create 0xC0FFEE) ~cycles:256

let batch_job_ok job outcome =
  holds (fun () ->
      match (job, outcome) with
      | Batch.Estimate { net; input_probs; _ }, Batch.Estimated { probs; _ } ->
        probabilities_ok net input_probs probs
      | Batch.Synthesize { net; _ }, Batch.Promoted p -> champion_ok net p
      | Batch.Verify { left; right; _ }, Batch.Checked Cec.Equivalent ->
        same_function left right
      | Batch.Map { net; power; _ }, Batch.Mapped { area; cells; _ } ->
        map_ok net power ~area ~cells
      | Batch.Encode_fsm { stg; _ }, Batch.Encoded p -> fsm_ok stg p
      | _ -> false)

let batch_round jobs results ~unverified ~counts =
  {
    digests = Array.map (fun (_, o) -> Batch.summarize o) results;
    retained =
      List.filter_map
        (function _, Batch.Promoted p -> promoted_retained p | _ -> None)
        (Array.to_list results);
    unverified;
    counts;
    check =
      (fun () ->
        let bad = ref 0 in
        Array.iteri
          (fun i job -> if not (batch_job_ok job (snd results.(i))) then incr bad)
          jobs;
        !bad);
  }

let batch_mixed seed =
  let jobs = Batch.mixed_workload ~seed ~n:300 () in
  let domains = min 2 nproc in
  let untraced domains () =
    let r = Batch.run ~domains ~memo:(Memo.create ()) jobs in
    let p = r.Batch.pool in
    let executed = Array.to_list (Array.map float_of_int p.Pool.executed) in
    let mean = sum executed /. float_of_int (List.length executed) in
    batch_round jobs r.Batch.results
      ~unverified:(r.Batch.tournaments - r.Batch.champions_verified)
      ~counts:
        ([ ("pool.steals", float_of_int p.Pool.steals);
           ("pool.stolen_jobs", float_of_int p.Pool.stolen_jobs);
           ("pool.imbalance", List.fold_left max 0.0 executed /. mean) ]
        @ memo_counts [ r.Batch.memo ]
        @ sat_counts r.Batch.sat)
  in
  (* One job at a time through the same service entry point, sharing one
     cache across the round as the untraced batch does. *)
  let traced () =
    let memo = Memo.create () in
    let reports =
      Array.map
        (fun job ->
          Span.record ("batch." ^ batch_kind job) (fun () ->
              Batch.run ~domains:1 ~memo [| job |]))
        jobs
    in
    batch_round jobs
      (Array.map (fun (r : Batch.report) -> r.Batch.results.(0)) reports)
      ~unverified:
        (Array.fold_left
           (fun a (r : Batch.report) ->
             a + r.Batch.tournaments - r.Batch.champions_verified)
           0 reports)
      ~counts:[]
  in
  {
    pool_domains = domains;
    run = untraced domains;
    serial = Some (untraced 1);
    traced;
  }

(* {2 tournament_arith} *)

let roster =
  [ "source"; "cleanup"; "espresso"; "dontcare-area"; "dontcare-power";
    "subject"; "subject-power"; "dualvth"; "measured" ]

(* Random nets race in a time that varies about 2x with their seed, so
   several small ones share about a fifth of the round with fixed
   arithmetic: the round's cost then barely moves with the seed. *)
let tournament_arith seed =
  let rng = Lowpower.Rng.create seed in
  let random k =
    ( Printf.sprintf "rand%d" k,
      Gen_comb.random (Lowpower.Rng.stream rng k)
        { Gen_comb.num_inputs = 16; num_gates = 40; max_fanin = 3;
          output_fraction = 0.15 } )
  in
  let designs =
    [ ("mult5", (Circuits.array_multiplier 5).Circuits.net);
      ("cla8", (Circuits.carry_lookahead_adder 8).Circuits.net);
      ("csel8", (Circuits.carry_select_adder 8).Circuits.net);
      ("cmp8", (Circuits.comparator 8).Circuits.net) ]
    @ List.init 4 random
  in
  (* Each design races twice: scored by estimated activity, then by
     toggles measured over a correlated trace (which adds the measured
     strategy to the roster). *)
  let races =
    List.concat
      (List.mapi
         (fun k (name, net) ->
           let trace =
             Traces.correlated_walk
               (Lowpower.Rng.stream rng (100 + k))
               ~bits:(num_inputs net) ~n:256 ()
           in
           [ (name ^ "/estimated", net, None);
             (name ^ "/measured", net, Some trace) ])
         designs)
  in
  let round race =
    let ps = List.map (fun (name, net, trace) -> (net, race name net trace)) races in
    let promotions = List.map snd ps in
    let candidates =
      List.concat_map (fun (p : Tournament.promotion) -> p.Tournament.candidates)
        promotions
    in
    {
      digests =
        Array.of_list
          (List.map (fun p -> Batch.summarize (Batch.Promoted p)) promotions);
      retained = List.filter_map promoted_retained promotions;
      unverified = 0;
      counts =
        List.concat_map
          (fun s ->
            [ ( "strategy." ^ s ^ ".wins",
                float_of_int
                  (count (fun (p : Tournament.promotion) -> p.Tournament.champion = s)
                     promotions) );
              ( "strategy." ^ s ^ ".failed",
                float_of_int
                  (count
                     (fun (c : Tournament.candidate) ->
                       c.Tournament.c_strategy = s
                       && match c.Tournament.c_verdict with
                          | Tournament.Failed _ -> true
                          | _ -> false)
                     candidates) ) ])
          roster
        @ sat_counts
            (List.fold_left
               (fun a (p : Tournament.promotion) -> Solver.sum_stats a p.Tournament.sat)
               Solver.empty_stats promotions);
      check =
        (fun () -> count (fun (net, p) -> not (holds (fun () -> champion_ok net p))) ps);
    }
  in
  let plain name net trace = Tournament.run ~name ?trace net in
  let traced name net trace =
    Span.record "tournament" (fun () ->
        let strategies =
          List.map
            (fun (s : Tournament.strategy) ->
              { s with
                Tournament.transform =
                  (fun n ->
                    Span.record ("strategy." ^ s.Tournament.s_name) (fun () ->
                        s.Tournament.transform n)) })
            (Tournament.default_strategies ?trace net)
        in
        Tournament.run ~name ~strategies ?trace net)
  in
  {
    pool_domains = 0;
    run = (fun () -> round plain);
    serial = None;
    traced = (fun () -> round traced);
  }

(* {2 rewrite_dsp} *)

(* Dense coefficients (E23's) give long canonical-signed-digit chains and
   hard proofs.  Searches on these five datapaths take about the same path
   whatever the trace; with the default small coefficients, or a MAC chain
   over 123, 125, 111, the path (and the time and memory) varies severalfold
   with the seed. *)
let rewrite_dsp seed =
  let rng = Lowpower.Rng.create seed in
  let a = [ 127; 63; 119 ] and b = [ 123; 125; 111 ] and c = [ 95; 87; 127 ] in
  let designs =
    List.map (fun coeffs -> Gen_dfg.fir ~taps:3 ~coeffs ~width:8 ()) [ a; b; c ]
    @ List.map (fun coeffs -> Gen_dfg.mac_chain ~taps:3 ~coeffs ~width:8 ()) [ a; c ]
  in
  let searches =
    List.mapi
      (fun k dfg ->
        ( dfg,
          Gen_dfg.random_samples (Lowpower.Rng.stream rng k) dfg ~n:64
            ~correlated:true (),
          (seed * 31) + k ))
      designs
  in
  let round search =
    let rs =
      List.map
        (fun (dfg, trace, search_seed) ->
          let memo = Memo.create () in
          let r =
            search (fun ?rules () ->
                Search.run ?rules ~memo ~model:Cost.Toggles
                  ~rng:(Lowpower.Rng.create search_seed) dfg ~trace)
          in
          (dfg, r, Memo.stats memo))
        searches
    in
    let results = List.map (fun (_, r, _) -> r) rs in
    let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
    let candidates = total (fun r -> r.Search.candidates)
    and proofs = total (fun r -> r.Search.proofs) in
    {
      digests =
        Array.of_list
          (List.map
             (fun (r : Search.result) ->
               Printf.sprintf "rewrite hash=%x cost=%.6g steps=%d proofs=%d"
                 (Dfg.structural_hash r.Search.final) r.Search.final_cost
                 (List.length r.Search.steps) r.Search.proofs)
             results);
      retained =
        List.filter_map
          (fun (r : Search.result) ->
            retained ~source:r.Search.initial_cost ~result:r.Search.final_cost)
          results;
      unverified = 0;
      counts =
        [ ("search.candidates", candidates);
          ("search.proofs", proofs);
          ("search.proof_yield", proofs /. Float.max 1.0 candidates);
          ("search.refuted", total (fun r -> List.length r.Search.refuted));
          ("search.undecided", total (fun r -> r.Search.undecided)) ]
        @ memo_counts (List.map (fun (_, _, m) -> m) rs)
        @ sat_counts
            (List.fold_left
               (fun a (r : Search.result) -> Solver.sum_stats a r.Search.sat)
               Solver.empty_stats results);
      check =
        (fun () ->
          count
            (fun (dfg, (r : Search.result), _) ->
              not
                (holds (fun () ->
                     let inputs =
                       List.sort compare (List.map fst (Dfg.inputs dfg))
                     in
                     r.Search.final_cost <= r.Search.initial_cost
                     && Transform.equivalent ~samples:256 dfg r.Search.final
                          ~rng:(Lowpower.Rng.create 0xC0FFEE)
                     && Cec.check
                          (Elaborate.to_network ~inputs dfg)
                          (Elaborate.to_network ~inputs r.Search.final)
                        = Cec.Equivalent)))
            rs);
    }
  in
  let traced_rules =
    List.map
      (fun (r : Rules.rule) ->
        { r with
          Rules.sites = (fun g -> Span.record "rules.sites" (fun () -> r.Rules.sites g));
          apply_at =
            (fun g i -> Span.record "rules.apply" (fun () -> r.Rules.apply_at g i)) })
      Rules.all
  in
  {
    pool_domains = 0;
    run = (fun () -> round (fun search -> search ()));
    serial = None;
    traced =
      (fun () ->
        round (fun search ->
            Span.record "search" (fun () -> search ~rules:traced_rules ())));
  }

(* {2 size_mapped} *)

(* As in tournament_arith, the seeded random nets are kept to a small
   share of the round: their exact-activity cost varies about 2x with the
   seed. *)
let size_mapped seed =
  let rng = Lowpower.Rng.create seed in
  let designs =
    [ (Circuits.array_multiplier 8).Circuits.net;
      (Circuits.array_multiplier 9).Circuits.net ]
    @ List.init 4 (fun k ->
          Gen_comb.random (Lowpower.Rng.stream rng k)
            { Gen_comb.num_inputs = 16; num_gates = 200; max_fanin = 3;
              output_fraction = 0.15 })
  in
  (* The CLI [size] path. *)
  let plain net =
    let subj = Subject.decompose net in
    let input_probs = Probability.uniform_inputs subj in
    let m = Mapper.map subj (Mapper.Power (Activity.zero_delay subj ~input_probs)) in
    Dualvth.optimize_mapping m ~input_probs
  in
  (* The same path with the body of [Dualvth.optimize_mapping] run as its
     two calls, so activity and sizing are timed apart. *)
  let traced net =
    let subj = Span.record "subject" (fun () -> Subject.decompose net) in
    let input_probs = Probability.uniform_inputs subj in
    let act = Span.record "activity" (fun () -> Activity.zero_delay subj ~input_probs) in
    let m = Span.record "mapper" (fun () -> Mapper.map subj (Mapper.Power act)) in
    let mapped = Mapper.netlist m in
    let activity =
      Span.record "activity" (fun () -> Activity.zero_delay mapped ~input_probs)
    in
    Span.record "dualvth" (fun () ->
        Dualvth.optimize mapped ~gates:(Mapper.choices m) ~activity)
  in
  let round size =
    let rs = List.map (fun net -> (net, size net)) designs in
    let power s = Lowpower.Power_model.total s.Dualvth.power in
    let total f = float_of_int (List.fold_left (fun a (_, r) -> a + f r) 0 rs) in
    {
      digests =
        Array.of_list
          (List.map
             (fun (_, (r : Dualvth.result)) ->
               Printf.sprintf "size power=%.6g required=%.6g moves=%d hvt=%d"
                 (power (Dualvth.final_step r)) r.Dualvth.required r.Dualvth.moves
                 (Dualvth.final_step r).Dualvth.hvt_count)
             rs);
      retained =
        List.filter_map
          (fun (_, r) ->
            retained
              ~source:(power (Dualvth.initial_step r))
              ~result:(power (Dualvth.final_step r)))
          rs;
      unverified = 0;
      counts =
        [ ("dualvth.moves", total (fun r -> r.Dualvth.moves));
          ("sta.updates", total (fun r -> r.Dualvth.sta.Sta.updates));
          ( "sta.node_visits",
            total (fun r ->
                r.Dualvth.sta.Sta.arrival_visits + r.Dualvth.sta.Sta.required_visits) );
          ("sta.full_passes", total (fun r -> r.Dualvth.sta.Sta.full_passes)) ];
      (* Timing met on the sized netlist's own delay annotations, and the
         function of the source kept (by simulation: a SAT proof of the
         9-bit multiplier costs more than the round). *)
      check =
        (fun () ->
          count
            (fun (net, (r : Dualvth.result)) ->
              not
                (holds (fun () ->
                     Network.critical_delay r.Dualvth.net
                     <= r.Dualvth.required +. 1e-6
                     && same_function net r.Dualvth.net)))
            rs);
    }
  in
  {
    pool_domains = 0;
    run = (fun () -> round plain);
    serial = None;
    traced = (fun () -> round traced);
  }

let workloads =
  [ ("batch_mixed", batch_mixed);
    ("tournament_arith", tournament_arith);
    ("rewrite_dsp", rewrite_dsp);
    ("size_mapped", size_mapped) ]

(* {1 Metrics} *)

let per_layer_metrics =
  List.concat_map
    (fun k ->
      [ ("batch." ^ k ^ ".busy_s", "s"); ("batch." ^ k ^ ".p50_ms", "ms");
        ("batch." ^ k ^ ".p90_ms", "ms") ])
    [ "estimate"; "synthesize"; "verify"; "map"; "encode_fsm" ]
  @ [ ("pool.parallel_efficiency", "ratio"); ("pool.steals", "count");
      ("pool.stolen_jobs", "count"); ("pool.imbalance", "ratio");
      ("memo.hit_ratio", "ratio"); ("memo.evictions", "count") ]
  @ List.concat_map
      (fun s ->
        [ ("strategy." ^ s ^ ".busy_s", "s"); ("strategy." ^ s ^ ".wins", "count");
          ("strategy." ^ s ^ ".failed", "count") ])
      roster
  @ [ ("tournament.check_score_s", "s");
      ("sat.conflicts", "count"); ("sat.propagations", "count");
      ("sat.decisions", "count"); ("sat.learned_clauses", "count");
      ("rules.sites_s", "s"); ("rules.apply_s", "s"); ("search.other_s", "s");
      ("search.candidates", "count"); ("search.proofs", "count");
      ("search.proof_yield", "ratio"); ("search.refuted", "count");
      ("search.undecided", "count");
      ("activity.busy_s", "s"); ("subject.busy_s", "s"); ("mapper.busy_s", "s");
      ("dualvth.busy_s", "s"); ("dualvth.moves", "count");
      ("sta.updates", "count"); ("sta.node_visits", "count");
      ("sta.full_passes", "count");
      ("gc.minor_words", "words"); ("gc.major_words", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%") ]

(* The per-layer metric a span's self time counts toward. *)
let self_metric = function
  | "tournament" -> "tournament.check_score_s"
  | "search" -> "search.other_s"
  | ("rules.sites" | "rules.apply") as n -> n ^ "_s"
  | n -> n ^ ".busy_s"

(* Per-layer values of one traced iteration: an untraced round [u]
   (program counters, pool wall time), the untraced run the traced one
   mirrors ([base_wall]) and the traced round itself. *)
let layer_values inst ~u ~u_wall ~base_wall ~t_wall ~spans ~(gc0 : Gc.stat)
    ~(gc1 : Gc.stat) =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter (fun (k, v) -> add k v) u.counts;
  List.iter (fun ((s : Span.t), self) -> add (self_metric s.Span.name) self)
    (Span.self_times spans);
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if String.starts_with ~prefix:"batch." s.Span.name then
        Hashtbl.replace by_kind s.Span.name
          ((Span.duration s *. 1e3)
          :: Option.value ~default:[] (Hashtbl.find_opt by_kind s.Span.name)))
    spans;
  Hashtbl.iter
    (fun name ms ->
      add (name ^ ".p50_ms") (median ms);
      add (name ^ ".p90_ms") (quantile 0.9 ms))
    by_kind;
  let busy =
    sum
      (List.filter_map
         (fun (s : Span.t) -> if s.Span.parent < 0 then Some (Span.duration s) else None)
         spans)
  in
  if inst.pool_domains > 0 then
    add "pool.parallel_efficiency" (busy /. (float_of_int inst.pool_domains *. u_wall));
  add "trace.coverage_pct" (100.0 *. busy /. t_wall);
  add "trace.overhead_pct" (100.0 *. ((t_wall /. base_wall) -. 1.0));
  add "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  add "gc.major_words" (gc1.Gc.major_words -. gc0.Gc.major_words);
  add "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  tbl

(* {1 Running} *)

let timed f =
  let c0 = cpu () and t0 = now () in
  let r = f () in
  (r, now () -. t0, cpu () -. c0)

(* Set-up is timed repeatedly, in samples spread over the whole run, so
   that its median sees the same host as the rounds do: the host's speed
   swings up to 2x within a second.  The first set-ups in a fresh process
   fault in heap pages and run up to 3x slower, so a warm-up of [warm_s] is
   not timed.  A sample is a batch of [k] set-ups lasting about [batch_s]
   (some take tens of microseconds, where one reading is mostly clock and
   collector noise), divided by [k].  Returns the instance the rounds use,
   a function that takes samples until their total time reaches a budget,
   and the samples, newest first. *)
let setup_timer prepare seed =
  let warm_s = 0.25 and batch_s = 0.02 in
  let inst = prepare seed in
  let stop = now () +. warm_s in
  let rec warm n = if now () >= stop then n else (ignore (prepare seed); warm (n + 1)) in
  let n = warm 0 in
  let k = max 1 (int_of_float (Float.ceil (float_of_int n *. batch_s /. warm_s))) in
  let times = ref [] and spent = ref 0.0 in
  let sample_to budget =
    while !times = [] || !spent < budget do
      let (), dt, _ = timed (fun () -> for _ = 1 to k do ignore (prepare seed) done) in
      times := (dt /. float_of_int k) :: !times;
      spent := !spent +. dt
    done
  in
  (inst, sample_to, times)

(* The process's peak resident memory (VmHWM).  [Gc.top_heap_words]
   would miss the major heap of worker domains that have ended, which is
   most of the batch's. *)
let peak_rss_mb () =
  let parse l = Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1e3) in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l -> parse l
        | Some _ -> find ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

let mismatches first r =
  let bad = ref 0 in
  Array.iteri (fun i d -> if d <> r.digests.(i) then incr bad) first.digests;
  !bad

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let lowpower_env () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.starts_with ~prefix:"LOWPOWER_" kv ->
           Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | _ -> None)
  |> List.sort compare

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0
  and trace = ref 0 and out = ref "" and commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring window (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer trace run (default 0)");
      ("--out", Arg.Set_string out, "DIR write the run record (and trace) here");
      ("--commit", Arg.Set_string commit, "SHA commit recorded in the host block") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let prepare =
    match List.assoc_opt !workload workloads with
    | Some p when !trace = 0 || !trace = 1 -> p
    | _ ->
      prerr_endline "benchmark: unknown --workload or --trace not 0|1";
      exit 2
  in
  let origin = now () in
  let inst, setup_to, setup_times = setup_timer prepare !seed in
  setup_to 0.25;
  let start = now () in
  let deadline = start +. !seconds in
  let first = ref None and attempted = ref 0 and failed = ref 0 in
  (* Every round counts its jobs as attempted; a job fails when the
     program left it unverified or its digest differs from round one's. *)
  let account r =
    attempted := !attempted + Array.length r.digests;
    failed := !failed + r.unverified;
    match !first with
    | None -> first := Some r
    | Some f -> failed := !failed + mismatches f r
  in
  let continue_ () = !first = None || now () < deadline in
  let e2e = ref [] and layers = ref [] in
  if !trace = 0 then
    while continue_ () do
      let r, wall, cpu_s = timed inst.run in
      account r;
      e2e := (wall, cpu_s) :: !e2e;
      (* Set-up samples take a tenth of the window, between rounds. *)
      setup_to (0.25 +. (0.1 *. (now () -. start)))
    done
  else
    while continue_ () do
      let u, u_wall, _ = timed inst.run in
      account u;
      let base_wall =
        match inst.serial with
        | None -> u_wall
        | Some f ->
          let b, w, _ = timed f in
          account b;
          w
      in
      let gc0 = Gc.quick_stat () in
      let t, t_wall, _ = timed inst.traced in
      let gc1 = Gc.quick_stat () in
      account t;
      layers :=
        layer_values inst ~u ~u_wall ~base_wall ~t_wall ~spans:(Span.take ()) ~gc0
          ~gc1
        :: !layers
    done;
  let peak_rss_mb = peak_rss_mb () in
  let first = Option.get !first in
  let check_failures = first.check () in
  failed := !failed + check_failures;
  let jobs = float_of_int (Array.length first.digests) in
  let samples =
    [ ("jobs_per_s", List.rev_map (fun (w, _) -> jobs /. w) !e2e);
      ("cpu_ms_per_job", List.rev_map (fun (_, c) -> 1e3 *. c /. jobs) !e2e);
      ("setup_s", List.rev !setup_times) ]
  in
  let metrics =
    if !trace = 0 then
      [ ("setup_s", median !setup_times, "s");
        ("jobs_per_s", median (List.assoc "jobs_per_s" samples), "1/s");
        ("cpu_ms_per_job", median (List.assoc "cpu_ms_per_job" samples), "ms");
        ( "power_retained_pct",
          100.0 *. sum first.retained
          /. float_of_int (max 1 (List.length first.retained)),
          "%" );
        ("peak_rss_mb", peak_rss_mb, "MB") ]
    else
      List.map
        (fun (name, unit) ->
          ( name,
            median
              (List.map
                 (fun tbl -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
                 !layers),
            unit ))
        per_layer_metrics
  in
  let env = lowpower_env () in
  Printf.printf "host nproc=%d ocaml=%s commit=%s env=[%s]\n" nproc
    Sys.ocaml_version !commit
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) env));
  Printf.printf "%s seed=%d rounds=%d jobs/round=%d checks_failed=%d\n" !workload
    !seed
    (if !trace = 0 then List.length !e2e else List.length !layers)
    (Array.length first.digests) check_failures;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" !workload name v unit)
    metrics;
  let correct = !failed = 0 in
  let result =
    json_object
      [ ("correct", string_of_bool correct);
        ("attempted", string_of_int !attempted);
        ("failed", string_of_int !failed);
        ( "metrics",
          json_object
            (List.map
               (fun (name, v, unit) ->
                 (name, json_object [ ("value", json_float v); ("unit", json_string unit) ]))
               metrics) ) ]
  in
  if !out <> "" then begin
    let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out !workload !seed !trace in
    let oc = open_out (base ^ ".json") in
    output_string oc
      (json_object
         [ ("workload", json_string !workload);
           ("seed", string_of_int !seed);
           ("seconds", json_float !seconds);
           ("trace", string_of_int !trace);
           ( "host",
             json_object
               [ ("nproc", string_of_int nproc);
                 ("ocaml", json_string Sys.ocaml_version);
                 ("commit", json_string !commit);
                 ( "lowpower_env",
                   json_object (List.map (fun (k, v) -> (k, json_string v)) env) ) ] );
           ( "samples",
             json_object
               (List.map (fun (k, xs) -> (k, json_list json_float xs)) samples) );
           ("result", result) ]);
    output_string oc "\n";
    close_out oc;
    if !trace = 1 then Span.write_chrome (base ^ ".trace.json") ~origin
  end;
  print_endline result;
  if not correct then exit 1
