(* [buf] has a power-of-two length; element [i] sits at
   [(head + i) land (Array.length buf - 1)]. *)
type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create dummy = { buf = Array.make 16 dummy; head = 0; len = 0; dummy }
let length r = r.len
let is_empty r = r.len = 0
let slot r i = (r.head + i) land (Array.length r.buf - 1)

let get r i =
  if i < 0 || i >= r.len then invalid_arg "Ring.get";
  Array.unsafe_get r.buf (slot r i)

let push r x =
  if r.len = Array.length r.buf then begin
    let buf = Array.make (2 * r.len) r.dummy in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.(slot r i)
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.(slot r r.len) <- x;
  r.len <- r.len + 1

let pop r =
  if r.len = 0 then invalid_arg "Ring.pop";
  r.buf.(r.head) <- r.dummy;
  r.head <- slot r 1;
  r.len <- r.len - 1

let clear r =
  for i = 0 to r.len - 1 do
    r.buf.(slot r i) <- r.dummy
  done;
  r.head <- 0;
  r.len <- 0

let filter_in_place keep r =
  let kept = ref 0 in
  for i = 0 to r.len - 1 do
    let x = r.buf.(slot r i) in
    if keep x then begin
      r.buf.(slot r !kept) <- x;
      incr kept
    end
  done;
  for i = !kept to r.len - 1 do
    r.buf.(slot r i) <- r.dummy
  done;
  r.len <- !kept

let iter f r =
  for i = 0 to r.len - 1 do
    f r.buf.(slot r i)
  done
