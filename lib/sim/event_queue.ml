(* Binary min-heap on parallel arrays.

   Keys (time, tie-breaking sequence number) live in plain [int array]s
   so every comparison on the push/pop path is a monomorphic integer
   compare — no entry records are allocated per push and no polymorphic
   equality runs anywhere.  The payload array needs a value of type
   ['a] to exist before it can be allocated, so it stays empty until
   the first push, whose payload then doubles as the growth filler
   (slots beyond [size] are dead storage; [pop] overwrites the vacated
   root slot with the still-live last element, so no stale payload is
   ever returned). *)

type 'a t = {
  mutable ats : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { ats = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

(* precedes i j: does slot i's event fire before slot j's? *)
let precedes t i j =
  t.ats.(i) < t.ats.(j) || (t.ats.(i) = t.ats.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let a = t.ats.(i) in
  t.ats.(i) <- t.ats.(j);
  t.ats.(j) <- a;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let p = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && precedes t l !smallest then smallest := l;
  if r < t.size && precedes t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t payload =
  let cap = max 16 (2 * Array.length t.payloads) in
  let ats = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap payload in
  Array.blit t.ats 0 ats 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.ats <- ats;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~at payload =
  if t.size >= Array.length t.payloads then grow t payload;
  let i = t.size in
  t.ats.(i) <- at;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let is_empty t = t.size = 0

let length t = t.size

let min_time_exn t =
  if t.size = 0 then invalid_arg "Event_queue.min_time_exn: empty queue";
  t.ats.(0)

let pop_payload_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_payload_exn: empty queue";
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.ats.(0) <- t.ats.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.payloads.(0) <- t.payloads.(last);
    sift_down t 0
  end;
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let at = t.ats.(0) in
    let payload = pop_payload_exn t in
    Some (at, payload)
  end
