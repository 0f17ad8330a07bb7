(* Output checks. Every comparison is one checked output; a mismatch is
   named on stderr and counted, and the run reports [failed] over
   [attempted] in its result line. *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let int what ~expected actual =
  check (Printf.sprintf "%s: expected %d, got %d" what expected actual)
    (expected = actual)

let float what ~expected actual =
  check (Printf.sprintf "%s: expected %.17g, got %.17g" what expected actual)
    (Float.equal expected actual)
