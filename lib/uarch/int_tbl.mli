(** Hashtable keyed by a native [int] (a ROB id, a cache-line number), with
    monomorphic equality and a multiplicative hash.  The cycle path looks
    keys up on every request; the polymorphic [Hashtbl] would box a tuple
    key and run the generic [caml_hash] on each.  The hash keeps high bits
    of a product, which depend on all the key's low bits, so strided keys
    (line numbers a power of two apart) still spread over the buckets. *)

val hash : int -> int
(** The key hash, non-negative; also usable for keys folded to an [int]. *)

include Hashtbl.S with type key = int
