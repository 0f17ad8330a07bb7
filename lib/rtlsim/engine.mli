(** Cycle-accurate simulation engine for a single IR module.

    The engine levelizes the module once ({!compile}), resolves every signal
    name to an integer {e slot} into a flat native-int value store, then
    [step] evaluates every combinational signal in dependency order, computes
    the next value of every register from its drive expression, and latches —
    standard two-phase synchronous semantics, the same evaluation model
    Verilator gives the paper.

    Two backends share the compile/step API:

    - {!Compiled} (the default): every levelized expression is lowered once
      to an index-resolved closure with widths and masks resolved statically;
      [step] performs no name lookups, no [Bitvec] boxing, and no per-cycle
      heap allocation (the register latch reuses a preallocated scratch
      array).
    - {!Tree}: the original tree-walking interpreter over the expression
      trees, kept as the reference oracle — the compiled backend is
      differential-tested against it bit for bit. *)

type t

type backend =
  | Tree  (** tree-walking interpreter (reference oracle) *)
  | Compiled  (** slot-resolved closures, allocation-free stepping *)

exception Unknown_signal of string

val set_profiler : (string -> unit -> unit) option -> unit
(** Install a profiling hook around {!compile} (span name
    ["engine.compile"], one span per compiled module); same contract as
    {!Sonar_ir.Analysis.set_profiler}. *)

val compile : ?backend:backend -> Sonar_ir.Fmodule.t -> t
(** Build an engine; [backend] defaults to {!Compiled}.
    @raise Levelize.Combinational_cycle on cyclic combinational logic.
    @raise Bitvec.Width_error on width-invalid expressions (e.g. a [cat]
    wider than 63 bits) — eagerly, at compile time, on both backends. *)

val backend : t -> backend

val poke : t -> string -> Bitvec.t -> unit
(** Drive an input. @raise Unknown_signal if not an input. *)

val poke_int : t -> string -> int -> unit

val step : t -> unit
(** Advance one clock cycle: settle combinational logic, latch registers.
    On the {!Compiled} backend this performs zero heap allocation. *)

val settle : t -> unit
(** Re-evaluate combinational logic without latching (to observe outputs
    after a {!poke} mid-cycle). *)

val peek : t -> string -> Bitvec.t
(** Read any signal's current value. @raise Unknown_signal *)

val peek_int : t -> string -> int
val cycle : t -> int
(** Cycles elapsed since {!compile} or {!reset}. *)

val reset : t -> unit
(** Restore registers to their reset values (0 when unspecified), zero
    inputs, and rewind the cycle counter. *)

val signal_names : t -> string list
(** All signals, in declaration order (used by the VCD writer). *)

val signal_width : t -> string -> int

(** {2 Slot API}

    Consumers on the per-cycle path (the runtime monitor, the VCD writer)
    resolve names to slots once and then read slots directly — no string
    hashing per sample. *)

val num_slots : t -> int

val slot : t -> string -> int
(** Resolve a signal name to its slot. @raise Unknown_signal *)

val slot_name : t -> int -> string
val slot_width : t -> int -> int

val read_slot : t -> int -> int
(** The slot's current value as its raw 63-bit pattern (allocation-free).
    Values of width-63 signals with the top bit set read as negative ints;
    use {!read_slot64} for the unsigned value. *)

val read_slot64 : t -> int -> int64
(** The slot's current value, zero-extended to a non-negative [int64]. *)
