(* Perf-regression gate: compare a freshly measured BENCH.json against the
   committed baseline and fail on any entry that got more than 25% slower.

   Usage: compare.exe FRESH BASELINE

   The files are in the flat one-number-per-key format [Microbench.write_json]
   emits, so a full JSON parser is unnecessary.  The @bench-check alias
   runs `main.exe microbench` and diffs the fresh BENCH.json against the
   committed one with this program. *)

let threshold = 1.25

let parse path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       (* Lines look like:   "name": 1234.5,  *)
       match String.index_opt line '"' with
       | None -> ()
       | Some q0 ->
         let q1 = String.index_from line (q0 + 1) '"' in
         let name = String.sub line (q0 + 1) (q1 - q0 - 1) in
         let colon = String.index_from line q1 ':' in
         let rest =
           String.sub line (colon + 1) (String.length line - colon - 1)
         in
         let rest = String.trim rest in
         let rest =
           if String.length rest > 0 && rest.[String.length rest - 1] = ','
           then String.sub rest 0 (String.length rest - 1)
           else rest
         in
         entries := (name, float_of_string rest) :: !entries
     done
   with End_of_file -> close_in ic);
  List.rev !entries

(* The designed pairs in BENCH.json: a variant and the entry it is
   measured against, timing the same work two ways.  The ratio between
   them is the number the pair exists to demonstrate. *)
let pairs =
  [ ("event_sim_mult4_50vec_reference", "event_sim_mult4_50vec");
    ("prob_simulated_mult4_4k_bitsim", "prob_simulated_mult4_4k");
    ("seq_sim_counter16_1k_bitsim", "seq_sim_counter16_1k");
    ("cec_adder8_vs_factored_incremental", "cec_adder8_vs_factored");
    ("prob_exact_mult8", "prob_exact_mult8_bdd") ]

(* Sub-percent ratios are the headline of incremental variants; two
   decimals would print them as 0.00x. *)
let ratio_string r =
  if r < 0.01 then Printf.sprintf "%.4fx" r else Printf.sprintf "%.2fx" r

let () =
  let fresh_path, base_path =
    match Sys.argv with
    | [| _; f; b |] -> (f, b)
    | _ ->
      prerr_endline "usage: compare FRESH_BENCH_JSON BASELINE_BENCH_JSON";
      exit 2
  in
  let fresh = parse fresh_path and base = parse base_path in
  let failures = ref 0 in
  Printf.printf "%-36s %14s %14s %9s\n" "benchmark" "baseline ns"
    "fresh ns" "ratio";
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name fresh with
      | None -> ()
      | Some f ->
        let ratio = f /. b in
        let flag =
          if ratio > threshold then begin
            incr failures;
            Printf.sprintf "  REGRESSED (>%.0f%% over baseline)"
              ((threshold -. 1.0) *. 100.0)
          end
          else if ratio < 1.0 /. threshold then "  improved"
          else ""
        in
        Printf.printf "%-36s %14.1f %14.1f %8.2fx%s\n" name b f ratio flag)
    base;
  (* Entries present on only one side are reported explicitly: an entry
     added by this change is informational, an entry that disappeared from
     the fresh run means a benchmark was dropped or failed to produce an
     estimate, and that fails the gate just like a regression. *)
  let removed =
    List.filter (fun (name, _) -> not (List.mem_assoc name fresh)) base
  in
  let added =
    List.filter (fun (name, _) -> not (List.mem_assoc name base)) fresh
  in
  (* An added entry has no baseline, but if it belongs to a designed pair
     its sibling was measured in the same fresh run; report the ratio
     instead of printing the entry contextless. *)
  let sibling_of name =
    match
      List.find_map
        (fun (a, b) ->
          if name = a then Some b else if name = b then Some a else None)
        pairs
    with
    | Some sib -> Option.map (fun v -> (sib, v)) (List.assoc_opt sib fresh)
    | None -> None
  in
  if added <> [] then begin
    print_newline ();
    List.iter
      (fun (name, f) ->
        match sibling_of name with
        | Some (snm, sv) ->
          Printf.printf "%-36s %14s %14.1f   ADDED (%s of sibling %s)\n"
            name "-" f (ratio_string (f /. sv)) snm
        | None ->
          Printf.printf "%-36s %14s %14.1f   ADDED (no baseline)\n" name "-" f)
      added
  end;
  if removed <> [] then begin
    print_newline ();
    List.iter
      (fun (name, b) ->
        incr failures;
        Printf.printf "%-36s %14.1f %14s   REMOVED\n" name b "-")
      removed;
    Printf.printf
      "%d baseline entr%s missing from the fresh run: benchmarks must not \
       silently disappear.\n"
      (List.length removed)
      (if List.length removed = 1 then "y" else "ies")
  end;
  (* Each designed pair measured in the fresh run rides on the summary
     line of both outcomes. *)
  let pair_summary =
    pairs
    |> List.filter_map (fun (a, b) ->
           match (List.assoc_opt a fresh, List.assoc_opt b fresh) with
           | Some av, Some bv when bv > 0.0 ->
             Some (Printf.sprintf "%s %s of %s" a (ratio_string (av /. bv)) b)
           | _ -> None)
    |> function
    | [] -> ""
    | notes -> "  [" ^ String.concat "; " notes ^ "]"
  in
  if !failures > 0 then begin
    Printf.printf
      "\n%d benchmark(s) regressed beyond %.0f%% of baseline or went \
       missing.%s\n"
      !failures
      ((threshold -. 1.0) *. 100.0)
      pair_summary;
    exit 1
  end
  else Printf.printf "\nAll benchmarks within threshold.%s\n" pair_summary
