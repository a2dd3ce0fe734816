(** A shared OCaml 5 Domain worker pool: a fixed set of worker domains
    consuming a (optionally bounded) job queue, plus a caller-participating
    batch runner for morsel-driven parallel evaluation.

    This is the execution substrate shared by the serving loop
    ({!Tgd_serve.Net} runs requests on a bounded pool behind its
    admission control) and the parallel query evaluator ({!Tgd_db.Par_eval}
    dispatches evaluation morsels through {!run_morsels}).

    Worker survival is an invariant of the pool: a job that raises is
    contained (the exception is swallowed); submitters that need error
    accounting wrap their thunks. Jobs must do their own result
    synchronization. *)

type t

type reject =
  [ `Overloaded of int  (** queue depth at rejection time *)
  | `Closed ]

val default_workers : unit -> int
(** The default worker count: [TGDLIB_DOMAINS] when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()] clamped to
    [\[1, 8\]]. Same contract as [Tgd_logic.Parallel.domain_count]. *)

val create : ?workers:int -> ?max_queued:int -> unit -> t
(** Spawn a pool of [workers] domains (default {!default_workers}) that
    live until {!shutdown}. With [max_queued] set, {!submit} sheds with
    [`Overloaded] once that many jobs are queued; without it the queue is
    unbounded. Raises [Invalid_argument] on a non-positive argument.

    [workers] is clamped to [Domain.recommended_domain_count ()]: worker
    domains beyond the core count add no capacity (the queue is
    work-conserving) but multiply stop-the-world minor-GC barrier cost —
    oversubscribing 4 domains onto one core collapsed serve throughput to
    ~20%. Set [TGDLIB_OVERSUBSCRIBE=1] to disable the clamp for
    experiments. *)

val size : t -> int
(** The number of worker domains actually spawned (after the core-count
    clamp) — the value to size morsel batches and partitions with. *)

val submit : t -> (unit -> unit) -> (int, reject) result
(** Enqueue a job for exactly-once execution on some worker; [Ok depth]
    reports the queue depth right after admission. *)

val queue_depth : t -> int

val drain : t -> unit
(** Block until the queue is empty and no job is running. New submissions
    are still accepted afterwards. *)

val shutdown : t -> unit
(** Stop accepting work, let already-admitted jobs finish, join the worker
    domains. Idempotent. *)

val run_morsels : t -> n:int -> (int -> unit) -> unit
(** [run_morsels t ~n f] runs [f 0 .. f (n-1)] — the morsels of one batch —
    across the pool's workers and the calling thread, and returns when all
    [n] have finished. Scheduling is dynamic (an atomic next-morsel
    counter), so uneven morsel costs balance automatically. The caller
    always participates: even on a saturated or closed pool the batch
    completes, degraded to sequential execution on the calling thread. If
    some [f i] raises, remaining morsels are skipped (each is still counted)
    and the first exception is re-raised in the caller after the batch
    settles. [f] must not block on this same pool. *)
