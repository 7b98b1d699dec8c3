(** Domain-based work-stealing executor for batch jobs.

    The batch service runs thousands of small, independent, CPU-bound
    jobs (estimate / synthesize / verify / map); this pool spreads them
    over OCaml 5 domains with per-domain deques.  Each worker pops from
    the bottom of its own deque (LIFO, cache-friendly); a worker that
    runs dry steals {e half} of a victim's queue from the top (FIFO end),
    which amortizes steal traffic logarithmically, and backs off through
    [Domain.cpu_relax] spins into microsleeps while everything is drained.

    Jobs must be pure functions of their input (plus deterministic shared
    caches such as {!Memo}): the pool guarantees that [map] over the same
    job array returns the {e identical} result array for every domain
    count, which is the determinism property the test suite checks 1 vs N
    domains.  Result slots are disjoint, so workers never contend on
    them. *)

type stats = {
  domains : int;       (** workers actually used (clamped to job count) *)
  jobs : int;
  steals : int;        (** successful steal operations *)
  stolen_jobs : int;   (** jobs that changed deques via stealing *)
  executed : int array;  (** jobs executed per worker *)
}

val default_domains : unit -> int
(** Worker count used when [map] gets no explicit [domains]: the
    [LOWPOWER_SERVE_DOMAINS] environment variable when set to a positive
    integer, else [Domain.recommended_domain_count ()] capped at 8. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array * stats
(** [map f jobs] runs [f jobs.(i)] for every [i] across the pool and
    returns the results in job order plus run statistics.  [domains]
    defaults to {!default_domains}; it is clamped to [1 .. jobs] (a
    1-domain pool runs everything on the calling domain through the same
    deque machinery).

    If any job raises, the first exception (by completion order) is
    re-raised on the calling domain after all workers have drained. *)
