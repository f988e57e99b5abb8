(** Binary min-heap of timestamped events with deterministic tie-breaking
    (insertion order), O(1) cancellation, and an allocation-free hot path
    (immediate handles, [add_]/[pop_into]). *)

type 'a t

type stats = {
  adds : int;
  cancels : int;
  pops : int;
  compactions : int;
  lazy_drops : int;  (** dead entries discarded by [min_time]'s lazy sweep *)
}

type handle [@@immediate]
(** Names one scheduled event of the queue that issued it. *)

type 'a slot
(** A caller-owned landing pad for [pop_into]: holds the time and payload
    of the most recently popped event without allocating per pop. *)

val make_slot : 'a -> 'a slot
(** [make_slot dummy] creates a slot primed with a placeholder payload. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (non-cancelled) events. O(1): maintained as a counter,
    not a heap scan. *)

val is_empty : 'a t -> bool
(** O(1). *)

val physical_size : 'a t -> int
(** Heap slots currently occupied, live plus not-yet-compacted dead
    entries. Exposed so tests can assert that cancellation-heavy loads
    are compacted; always [>= length]. *)

val add : 'a t -> time:Vtime.t -> 'a -> handle
(** Schedules a payload; the returned handle can cancel it. *)

val add_ : 'a t -> time:Vtime.t -> 'a -> unit
(** [add] without the handle, for events that are never cancelled. *)

val add_pre_ : 'a t -> time:Vtime.t -> 'a -> unit
(** Like [add_], but the event lands in the pre-lane: among events at the
    same time, every pre-lane event pops before every normally-added
    event, while pre-lane events keep their own relative insertion order.
    The shard coordinator delivers cross-host messages through this lane
    so that pop order at a time tie does not depend on which
    synchronization round performed the insertion. *)

val cancel : 'a t -> handle -> unit
(** [cancel q h] marks the event [h] of [q] dead; it will be skipped on
    pop. Idempotent, and a no-op once the event was popped (even if its
    slot was reused). *)

val pop : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest live event. *)

val pop_into : 'a t -> 'a slot -> bool
(** [pop_into t slot] pops the earliest live event into [slot] and
    returns true, or returns false on an empty queue. Allocation-free. *)

val slot_time : 'a slot -> Vtime.t
val slot_payload : 'a slot -> 'a

val min_time : 'a t -> Vtime.t
(** Time of the earliest live event without removing it, or
    [Vtime.infinity] on an empty queue. Allocation-free. *)

val stats : 'a t -> stats
(** Lifetime add/cancel/pop/compaction/lazy-drop tallies, for the
    observability metrics scrape. Always maintained; plain int increments
    per queue operation. *)
