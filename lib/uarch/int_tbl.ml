(* Fibonacci hashing: multiply by an odd constant and keep bits 32..62 of
   the product, each of which depends on every key bit below it;
   [Hashtbl] picks the bucket from the low bits of the result. *)
let hash k = (k * 0x3E3779B97F4A7C15) lsr 32

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash
end)
