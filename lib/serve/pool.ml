(* Work-stealing executor: per-worker deques of job indices under one
   mutex each.  Owners pop the bottom (LIFO); thieves take half from the
   top (FIFO), so stolen work is the oldest — the part least likely to be
   in the owner's cache anyway.  A mutex per deque is deliberate: jobs in
   this toolkit cost tens of microseconds to milliseconds, so lock-free
   Chase-Lev buys nothing over a clean uncontended lock here. *)

type deque = {
  lock : Mutex.t;
  mutable buf : int array;   (* job indices, slots [lo, hi) *)
  mutable lo : int;          (* steal end *)
  mutable hi : int;          (* owner push/pop end *)
}

type stats = {
  domains : int;
  jobs : int;
  steals : int;
  stolen_jobs : int;
  executed : int array;
}

let default_domains () =
  match Sys.getenv_opt "LOWPOWER_SERVE_DOMAINS" with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> max 1 (min 8 (Domain.recommended_domain_count ())))
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

let make_deque cap =
  { lock = Mutex.create (); buf = Array.make (max cap 4) 0; lo = 0; hi = 0 }

let push d i =
  Mutex.lock d.lock;
  if d.hi = Array.length d.buf then begin
    let n = d.hi - d.lo in
    let buf = Array.make (max 8 (2 * (n + 1))) 0 in
    Array.blit d.buf d.lo buf 0 n;
    d.buf <- buf;
    d.lo <- 0;
    d.hi <- n
  end;
  d.buf.(d.hi) <- i;
  d.hi <- d.hi + 1;
  Mutex.unlock d.lock

let pop_bottom d =
  Mutex.lock d.lock;
  let r =
    if d.hi > d.lo then begin
      d.hi <- d.hi - 1;
      Some d.buf.(d.hi)
    end
    else None
  in
  Mutex.unlock d.lock;
  r

(* Take ceil(size/2) indices from the victim's top; returns them oldest
   first.  Never holds two locks (the thief re-pushes into its own deque
   afterwards), so lock order cannot deadlock. *)
let steal_half d =
  Mutex.lock d.lock;
  let n = d.hi - d.lo in
  let r =
    if n = 0 then [||]
    else begin
      let k = (n + 1) / 2 in
      let out = Array.sub d.buf d.lo k in
      d.lo <- d.lo + k;
      out
    end
  in
  Mutex.unlock d.lock;
  r

let map ?domains f xs =
  let n = Array.length xs in
  let d =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let d = max 1 (min d (max n 1)) in
  let executed = Array.make d 0 in
  if n = 0 then
    ([||], { domains = d; jobs = 0; steals = 0; stolen_jobs = 0; executed })
  else begin
    let deques = Array.init d (fun _ -> make_deque (2 + (n / d))) in
    (* Round-robin seeding gives every worker a contiguous-ish share to
       start from; imbalance from heterogeneous job costs is what the
       stealing corrects. *)
    for i = n - 1 downto 0 do
      push deques.(i mod d) i
    done;
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let steals = Atomic.make 0 in
    let stolen = Atomic.make 0 in
    let first_exn = Atomic.make None in
    let execute w i =
      (match f xs.(i) with
      | r -> results.(i) <- Some r
      | exception e ->
        ignore (Atomic.compare_and_set first_exn None (Some e)));
      executed.(w) <- executed.(w) + 1;
      Atomic.decr remaining
    in
    let try_steal w =
      let got = ref None in
      let v = ref 1 in
      while !got = None && !v < d do
        let loot = steal_half deques.((w + !v) mod d) in
        let k = Array.length loot in
        if k > 0 then begin
          Atomic.incr steals;
          ignore (Atomic.fetch_and_add stolen k);
          (* Keep the first stolen job for immediate execution, bank the
             rest in our own deque. *)
          for j = k - 1 downto 1 do
            push deques.(w) loot.(j)
          done;
          got := Some loot.(0)
        end;
        incr v
      done;
      !got
    in
    let rec worker w idle =
      if Atomic.get remaining > 0 then
        match pop_bottom deques.(w) with
        | Some i ->
          execute w i;
          worker w 0
        | None -> (
          match try_steal w with
          | Some i ->
            execute w i;
            worker w 0
          | None ->
            (* Idle backoff: spin briefly (someone may be about to expose
               stealable work), then yield the core — on oversubscribed
               machines a sleeping loser is what lets the owner finish. *)
            if idle < 32 then
              for _ = 0 to idle * 8 do
                Domain.cpu_relax ()
              done
            else Unix.sleepf 0.0002;
            worker w (idle + 1))
    in
    let workers =
      List.init (d - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1) 0))
    in
    worker 0 0;
    List.iter Domain.join workers;
    (match Atomic.get first_exn with Some e -> raise e | None -> ());
    let out =
      Array.map
        (function Some r -> r | None -> failwith "Pool.map: missing result")
        results
    in
    ( out,
      { domains = d; jobs = n; steals = Atomic.get steals;
        stolen_jobs = Atomic.get stolen; executed } )
  end
