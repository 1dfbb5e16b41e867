(* The benchmark's own spans: one per call it makes into a library,
   recorded only in traced runs. Each span carries its name, parent,
   op id, and start/end on both clocks (host monotonic nanoseconds and
   ledger cycles). Spans stay in memory and are written out when the
   run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  op : int;  (** op being served when the span opened; [-1] outside ops *)
  host_start : int64;
  mutable host_end : int64;
  cyc_start : int;
  mutable cyc_end : int;
}

let host_ns () = Monotonic_clock.now ()

let on = ref false
let clock = ref (fun () -> 0)
let stack : span list ref = ref []
let finished : span list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

(* Start a fresh recording; earlier spans are discarded. *)
let start () =
  on := true;
  clock := (fun () -> 0);
  stack := [];
  finished := [];
  next_id := 0;
  current_op := -1

(* Also drops the clock, which would otherwise keep the last testbed
   (and its 128 MiB disk) alive into the next repetition. *)
let stop () =
  on := false;
  clock := fun () -> 0

(* The ledger of the testbed under measurement, once it exists. *)
let set_clock f = clock := f
let set_op n = current_op := n

let with_span name f =
  if not !on then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        name;
        op = !current_op;
        host_start = host_ns ();
        host_end = 0L;
        cyc_start = !clock ();
        cyc_end = 0;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.host_end <- host_ns ();
      s.cyc_end <- !clock ();
      stack := List.tl !stack;
      finished := s :: !finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let dur s = Int64.to_float (Int64.sub s.host_end s.host_start) *. 1e-9

type total = { calls : int; incl_s : float; self_s : float }

(* Per span name: call count, inclusive host seconds, and self seconds
   (each span's time minus the time of its direct children). *)
let totals () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = dur s in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      let t =
        Option.value
          ~default:{ calls = 0; incl_s = 0.; self_s = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = t.calls + 1; incl_s = t.incl_s +. d; self_s = t.self_s +. self })
    !finished;
  by_name

let total totals name =
  Option.value
    ~default:{ calls = 0; incl_s = 0.; self_s = 0. }
    (Hashtbl.find_opt totals name)

(* One JSON object per span, in opening order. *)
let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%d,\"host_start_ns\":%Ld,\
         \"host_end_ns\":%Ld,\"cycles_start\":%d,\"cycles_end\":%d}\n"
        s.id s.parent s.name s.op s.host_start s.host_end s.cyc_start
        s.cyc_end)
    (List.sort (fun a b -> compare a.id b.id) !finished);
  close_out oc
