(** Growable ring buffer: a FIFO with indexed access, oldest element at
    index 0.  The pipeline queues (fetch buffer, ROB, store buffer) live
    in rings so that a cycle walks them with plain index loops — no
    closure, no cons cell per push, no list copy per append. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy]: an empty ring; [dummy] fills vacated slots, so the
    ring holds no stale reference. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get r i] is the [i]-th oldest element, [0 <= i < length r]. *)

val push : 'a t -> 'a -> unit
(** Append as the youngest element. *)

val pop : 'a t -> unit
(** Drop the oldest element.  @raise Invalid_argument if empty. *)

val clear : 'a t -> unit

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep the elements satisfying the predicate, in order. *)

val iter : ('a -> unit) -> 'a t -> unit
