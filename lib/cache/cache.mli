(** Persistent content-addressed result store.

    A store memoizes pure computations: the key is the canonical
    serialization of everything that determines the result (a
    {!Run_spec.t} string for protocol runs, an experiment-specific
    string for bench points), combined with a code fingerprint so an
    engine change can never surface a stale payload.

    On-disk layout under the store directory:

    {v
    <dir>/index            append-only "hexdigest TAB size" lines
    <dir>/objects/<hex>    one payload file per entry
    v}

    Crash safety: the payload file is written to a temporary name and
    renamed into place {e before} its index line is appended and
    flushed, so a torn write (a campaign killed mid-add) leaves at worst
    an unreachable object or a truncated index line — both skipped (and
    counted) on the next open, costing one recompute, not a crash. This
    is what makes the store the campaigns' resume mechanism: re-running
    a killed campaign against the same directory skips everything it
    already finished. *)

val fingerprint : string
(** Code fingerprint mixed into every digest. Bump whenever the engine
    or a protocol changes semantics: every existing entry silently
    becomes a miss, which is exactly the invalidation we want. *)

module Stats : sig
  type t = { mutable hits : int; mutable misses : int; mutable writes : int }

  val zero : unit -> t
  val pp : Format.formatter -> t -> unit
end

module Store : sig
  type t

  val open_ : ?fingerprint:string -> dir:string -> unit -> t
  (** Open (creating if needed) the store rooted at [dir]. The index is
      replayed; torn or corrupt lines are skipped and counted. The
      index file stays open in append mode for the store's lifetime;
      there is no truncating mode, because a cache is meant to persist
      across runs. *)

  val digest_key : t -> string -> string
  (** Hex digest of [fingerprint ^ "\x00" ^ key] — the content address
      an entry lives under; exposed so provenance events can name it. *)

  val lookup : t -> string -> string option
  (** [lookup t key] returns the stored payload, reading the object
      file on demand. A missing, truncated, or unreadable object drops
      the entry (counted as corrupt) and returns [None], so a
      subsequent {!add} repairs it. Counts a hit or a miss. *)

  val mem : t -> string -> bool
  (** Whether an index entry exists, without touching stats or disk. *)

  val add : t -> key:string -> string -> unit
  (** Store a payload. A key already present is left untouched (first
      write wins — every writer computes the same bytes for the same
      key, so dropping duplicates is sound and keeps concurrent [add]s
      from tearing). Counts a write only when one happens. *)

  val entries : t -> int
  (** Live index entries. *)

  val corrupt : t -> int
  (** Torn/corrupt index lines skipped at open plus payloads dropped by
      {!lookup}. *)

  val stats : t -> Stats.t
  (** A snapshot of the counters (never the live record), so two calls
      can be diffed for per-phase deltas. *)

  val dir : t -> string
  val close : t -> unit
end
