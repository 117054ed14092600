(** Run supervision and fault containment for sweeps.

    The experiment campaigns in [bench/] and the fuzz soak run thousands of
    independent simulator tasks; at that scale stragglers and failures are
    expected, and one pathological run must not discard a whole campaign's
    work. This layer wraps {!Exec} and {!Sim.Engine.run} with:

    - {b watchdog budgets} ({!Budget}): every supervised task gets a
      wall-clock timeout plus round / message / random-bit ceilings — the
      [Config.max_rounds] semantics extended to all the paper's metrics. A
      breached budget yields a structured {!failure_kind} result, never an
      exception.
    - {b failure quarantine} ({!map}): every task runs to completion even
      when some fail; each failure carries the exception text, backtrace,
      seed and a replay command, so sweeps degrade to partial results plus
      a quarantine report instead of aborting.
    - {b chaos mode} ({!Chaos}): seeded fault injection — exceptions,
      artificial stragglers, crashing protocols — used by the test suite
      to prove the containment claims above.
    - {b result caching} (the [cache] argument of {!run} and {!map}):
      successes are memoized in a content-addressed {!Cache.Store}; since
      every task is a pure function of its key, re-running an interrupted
      campaign against the same store skips everything it already
      finished.

    There is one supervised run ({!run}, linkless or over a lossy link,
    cached or not) and one supervised map ({!map}, cached or not). *)

(** Watchdog budgets for a supervised task. *)
module Budget : sig
  type t = {
    wall_s : float option;  (** wall-clock ceiling, seconds *)
    max_rounds : int option;  (** engine rounds ceiling (inclusive) *)
    max_messages : int option;  (** total messages ceiling (inclusive) *)
    max_rand_bits : int option;  (** total random bits ceiling (inclusive) *)
  }

  val unlimited : t

  val make :
    ?wall_s:float ->
    ?max_rounds:int ->
    ?max_messages:int ->
    ?max_rand_bits:int ->
    unit ->
    t

  val is_unlimited : t -> bool
  val pp : Format.formatter -> t -> unit
end

type breach = {
  metric : string;  (** ["rounds"], ["messages"] or ["rand_bits"] *)
  limit : float;
  actual : float;
  at_round : int;  (** round at which the watchdog tripped *)
}

type failure_kind =
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { limit_s : float; elapsed_s : float }
  | Budget_exceeded of breach
  | Degraded of { induced : int; adversarial : int; t_max : int; residual : int }
      (** a lossy-link run left the omission model: the transport's induced
          faults plus the adversary's exceeded [t_max] (see
          [Net.Degradation] and {!run}'s [net] argument) *)

exception Breach of failure_kind
(** Tasks running under {!map} may raise [Breach kind] to report a
    structured failure — {!run} errors are typically re-raised this way so
    the quarantine record keeps the precise kind instead of a generic
    [Crashed]. *)

exception Breach_traced of failure_kind * string list
(** Like {!Breach}, carrying the run's last-K-rounds trace tail as JSONL
    event lines ({!Trace.Tail.lines}); {!map} stores them in
    [failure.trace] so every quarantine record ships with its tail. *)

(** What a task is, for the quarantine report: a human label, the seed it
    is a pure function of, and a shell one-liner that reproduces it. *)
type descriptor = {
  d_label : string;
  d_seed : int option;
  d_replay : string option;
}

type failure = {
  index : int;  (** task index within the supervised batch *)
  label : string;
  seed : int option;
  replay : string option;  (** reproduction command, if the caller gave one *)
  kind : failure_kind;
  elapsed_s : float;
  trace : string list;
      (** last-K-rounds trace tail as JSONL event lines, when the task
          raised {!Breach_traced}; empty otherwise *)
}

val current_label : unit -> string option
(** Label (descriptor [d_label]) of the task the calling domain is
    currently running under {!map}, if any — lets code deep inside a task
    (e.g. the trace-file writer in [bench_util]) name its output after the
    sweep point. *)

val pp_failure_kind : Format.formatter -> failure_kind -> unit
val pp_failure : Format.formatter -> failure -> unit

val json_escape : string -> string
(** Escape a string for use inside a JSON string literal: quote,
    backslash, newline and other control characters. The one escaper
    behind every JSON line this repository writes. *)

val failure_json : failure -> string
(** The quarantine record as a single JSON-lines object (no trailing
    newline). Schema: [{"kind":"quarantine","index":i,"label":s,
    "seed":i?,"replay":s?,
    "failure":"crashed"|"timeout"|"budget_exceeded"|"degraded",
    ...kind-specific fields...,"elapsed_s":f}]. *)

type run_result =
  ( Sim.Engine.outcome * Net.Degradation.t option,
    failure_kind * (Sim.Engine.outcome * Net.Degradation.t option) option )
  result
(** A supervised run's result: the outcome, with the lossy link's
    degradation report when the run had one. An error keeps the partial
    outcome, when there is one, for forensics. *)

val run :
  ?on_round:(round:int -> Sim.View.envelope array -> unit) ->
  ?trace:Trace.Sink.t ->
  ?budget:Budget.t ->
  ?net:Net.Spec.t ->
  ?cache:Cache.Store.t * string ->
  Sim.Protocol_intf.buffered ->
  Sim.Config.t ->
  adversary:Sim.Adversary_intf.t ->
  inputs:int array ->
  run_result
(** {!Sim.Engine.run} under a watchdog. The budget is checked after every
    round; a breached ceiling stops the engine (same semantics as
    [max_rounds]) and returns [Error (kind, Some partial)] with the
    partial outcome's counters intact — unless the run had already decided,
    which counts as [Ok]. A raising protocol or adversary (including
    {!Sim.Engine.Illegal_plan}) returns [Error (Crashed _, None)] instead
    of propagating. A run that merely hits [cfg.max_rounds] undecided is
    still [Ok]: not deciding is a measurement, not a supervision failure.

    [net] runs over a lossy-link transport built from the spec. The
    transport's residual losses are then composed with the adversary's
    fault set into a [Net.Degradation] report, which rides along as
    [Some report]; without [net] it is [None]. When the effective fault
    set exceeds [cfg.t_max] the run is beyond the omission model: the
    result is [Error (Degraded _, Some (outcome, Some report))]. The
    outcome is kept for forensics but must not be reported as a consensus
    result. Judge agreement of an [Ok] run with
    [Net.Degradation.agreed_decision], which re-bases the check on the
    effective fault set.

    [cache = (store, key)] memoizes the run in a content-addressed
    {!Cache.Store}. [key] is the caller's canonical serialization of
    everything that determines the result (a [Run_spec] string); the
    store addresses it under [digest(fingerprint, key)], so a code
    fingerprint bump invalidates everything at once. A hit returns the
    stored result, emits a {!Trace.Event.Cache_hit} provenance event into
    [trace] and never invokes [on_round]. A miss runs and stores the
    result only if it is [Ok]: failures, budget breaches and degraded
    runs re-run (and re-report) every time, since a quarantine served from
    a cache would hide a flaky environment. A payload that does not decode
    falls through to a fresh run. *)

val map :
  ?jobs:int ->
  ?budget:Budget.t ->
  ?describe:(int -> 'a -> descriptor) ->
  ?cache:
    Cache.Store.t * ('a -> string) * (('b -> string) * (string -> 'b option)) ->
  ('a -> 'b) ->
  'a array ->
  ('b, failure) result array
(** Quarantining {!Exec.mapi}: every task is attempted, failures are
    contained. A task that raises yields [Error] with kind [Crashed] (or
    the precise kind if it raised {!Breach}); a task that completes but
    overran [budget.wall_s] yields [Error] with kind [Timeout]. Since no
    task ever raises into the pool, {!Exec}'s early-cancel fast path never
    engages — results land in input order with the same determinism
    contract as {!Exec.map}. Wall-clock enforcement is cooperative: the
    elapsed time is checked when the task returns (and, for engine tasks
    run through {!run}, at every round boundary).

    [cache = (store, key, (encode, decode))] makes the map cache-aware:
    each element is looked up under [key x] first, only misses are
    dispatched to the domain pool, and fresh successes are written back,
    encoded, once the pool returns. Results land in input order, and
    [describe] sees original indices, so the quarantine/replay contract
    is unchanged. Failures are never cached. A campaign killed mid-batch
    loses that batch's fresh results; re-running it against the same
    store serves every earlier batch from the cache. *)

(** Seeded fault injection, for proving the supervision layer contains
    what it claims to contain. *)
module Chaos : sig
  exception Injected of string

  val pick : seed:int -> n:int -> k:int -> int list
  (** [k] distinct victim indices in [0, n), drawn by a seeded shuffle —
      deterministic, sorted. *)

  type t

  val make :
    ?crash:int list ->
    ?straggle:int list ->
    ?straggle_s:float ->
    unit ->
    t
  (** A chaos plan over task indices: tasks in [crash] raise {!Injected};
      tasks in [straggle] sleep [straggle_s] (default 0.2 s) before
      running. Membership is precomputed into byte masks here, so {!wrap}
      is O(1) per task regardless of victim-list length. *)

  val wrap : t -> (int -> 'a -> 'b) -> int -> 'a -> 'b
  (** Apply the plan to an indexed task function (the shape {!Exec.mapi}
      and the [describe]-aware sweeps use). *)

  val protocol :
    ?pid:int ->
    crash_round:int ->
    Sim.Protocol_intf.buffered ->
    Sim.Protocol_intf.buffered
  (** Wrap a protocol so that [step_into] raises {!Injected} at [crash_round]
      (for process [pid] only, if given) — a pathological protocol bug on
      demand, used to test {!run}'s containment. *)
end
