module Heap = Prelude.Heap

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = { heap : 'a entry Heap.t; mutable next_seq : int }

let cmp a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create () = { heap = Heap.create ~cmp; next_seq = 0 }

let push q ~time payload =
  if not (Float.is_finite time) then invalid_arg "Event_queue.push: non-finite time";
  Heap.push q.heap { time; seq = q.next_seq; payload };
  q.next_seq <- q.next_seq + 1

let pop q =
  if Heap.is_empty q.heap then None
  else begin
    let e = Heap.pop q.heap in
    Some (e.time, e.payload)
  end

let is_empty q = Heap.is_empty q.heap
let size q = Heap.size q.heap

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

(* The insertion sequence numbers ARE the tie-break order, so they must
   survive a checkpoint exactly: entries are exported with their seq and
   re-pushed raw, and [next_seq] carries over so events pushed after a
   restore sort exactly as they would have in the uninterrupted run. *)
let entries q =
  Heap.to_list q.heap
  |> List.map (fun e -> (e.time, e.seq, e.payload))
  |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)

let next_seq q = q.next_seq

let restore q ~next_seq entries =
  Heap.clear q.heap;
  List.iter
    (fun (time, seq, payload) ->
      if not (Float.is_finite time) then invalid_arg "Event_queue.restore: non-finite time";
      if seq < 0 || seq >= next_seq then
        invalid_arg "Event_queue.restore: sequence number out of range";
      Heap.push q.heap { time; seq; payload })
    entries;
  q.next_seq <- next_seq
