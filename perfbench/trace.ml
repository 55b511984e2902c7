(** Outside-in span recorder.

    The benchmark times the calls it makes into the library (and the
    closures it hands to the library, which may run on {!Yali.Exec.Pool}
    workers).  Spans live in memory, one buffer per domain, and are analysed
    and written out once, after the traced phase.  While recording is off a
    span is a plain call.

    A few spans the library already times itself ({!Yali.Exec.Telemetry}
    spans, e.g. the arena's dgcnn training) are taken in through the
    telemetry sink, as spans of the domain that closed them. *)

type span = {
  id : int;
  mutable parent : int;  (** 0 for a root *)
  op : int;  (** the benchmark operation it belongs to *)
  dom : int;  (** recording domain *)
  name : string;
  t0 : float;
  t1 : float;
}

let clock = Yali.Exec.Telemetry.clock
let on = Atomic.make false
let next_id = Atomic.make 1
let cur_op = Atomic.make 0

(* the innermost open span of the main domain: the parent of spans opened
   on pool workers, whose own stacks start empty *)
let main_top = Atomic.make 0

type buf = { mutable spans : span list; mutable stack : int list }

let bufs_lock = Mutex.create ()
let bufs : buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let set_op k = Atomic.set cur_op k

let parent_of (b : buf) ~main =
  match b.stack with p :: _ -> p | [] -> if main then 0 else Atomic.get main_top

(** A library span of [seconds] that closed just now, recorded as [name]:
    the spans this domain closed inside it become its children. *)
let lib_span name seconds =
  let b = Domain.DLS.get buf_key in
  let t1 = clock () in
  let t0 = t1 -. seconds in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = parent_of b ~main:(Domain.is_main_domain ()) in
  let rec adopt = function
    | s :: rest when s.t1 > t0 ->
        if s.parent = parent then s.parent <- id;
        adopt rest
    | _ -> ()
  in
  adopt b.spans;
  b.spans <-
    {
      id;
      parent;
      op = Atomic.get cur_op;
      dom = (Domain.self () :> int);
      name;
      t0;
      t1;
    }
    :: b.spans

(** Start recording.  [lib] maps names of library telemetry spans to the
    span names they are recorded under; other library spans are ignored. *)
let start ?(lib = []) () =
  Mutex.protect bufs_lock (fun () ->
      List.iter
        (fun b ->
          b.spans <- [];
          b.stack <- [])
        !bufs);
  Atomic.set main_top 0;
  if lib <> [] then
    Yali.Exec.Telemetry.set_sink
      (Some
         {
           on_incr = (fun _ _ -> ());
           on_span =
             (fun n secs ->
               match List.assoc_opt n lib with
               | Some name when Atomic.get on -> lib_span name secs
               | _ -> ());
         });
  Atomic.set on true

let stop () =
  Atomic.set on false;
  Yali.Exec.Telemetry.set_sink None

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get buf_key in
    let main = Domain.is_main_domain () in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = parent_of b ~main in
    b.stack <- id :: b.stack;
    if main then Atomic.set main_top id;
    let op = Atomic.get cur_op in
    let t0 = clock () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = clock () in
        b.stack <- List.tl b.stack;
        if main then
          Atomic.set main_top (match b.stack with p :: _ -> p | [] -> 0);
        b.spans <-
          { id; parent; op; dom = (Domain.self () :> int); name; t0; t1 }
          :: b.spans)
      f
  end

(** Every span recorded since {!start}, oldest first. *)
let collect () : span list =
  Mutex.protect bufs_lock (fun () -> List.concat_map (fun b -> b.spans) !bufs)
  |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))

(* -- analysis ------------------------------------------------------------- *)

(** Total length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi (ivs : (float * float) list) : float =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None ivs

let dur s = s.t1 -. s.t0

(** Self seconds per span name: each span's duration minus the time its
    children on the same domain cover.  A name's total is thus the
    domain-seconds spent in it, summed over domains. *)
let self_by_name (spans : span list) : (string, float) Hashtbl.t =
  let kids = Hashtbl.create 64 in
  let dom = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace dom s.id s.dom) spans;
  List.iter
    (fun s ->
      if Hashtbl.find_opt dom s.parent = Some s.dom then
        Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)
      in
      Hashtbl.replace h s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt h s.name)))
    spans;
  h

let get h name = Option.value ~default:0.0 (Hashtbl.find_opt h name)

(** Seconds of [lo, hi] during which some domain was inside a span whose
    name satisfies [layer]. *)
let attributed ~layer ~lo ~hi (spans : span list) : float =
  covered ~lo ~hi
    (List.filter_map
       (fun s -> if layer s.name then Some (s.t0, s.t1) else None)
       spans)

(** Per name of the spans that are not [layer]s (the benchmark's grouping
    spans): the seconds inside them during which no domain was in a layer
    span and no grouping span nested in them was open.  These, plus the
    time outside every grouping span, are exactly the traced phase's
    unattributed time. *)
let remainders ~layer (spans : span list) : (string, float) Hashtbl.t =
  let layers =
    List.filter_map
      (fun s -> if layer s.name then Some (s.t0, s.t1) else None)
      spans
  in
  let overlapping lo hi = List.filter (fun (a, b) -> a < hi && b > lo) layers in
  let groups = List.filter (fun s -> not (layer s.name)) spans in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) groups;
  let h = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let inside =
        covered ~lo:s.t0 ~hi:s.t1
          (Hashtbl.find_all kids s.id @ overlapping s.t0 s.t1)
      in
      Hashtbl.replace h s.name (dur s -. inside +. get h s.name))
    groups;
  h

(** Write the spans as JSON lines (one object per span). *)
let write path (spans : span list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"op\": %d, \"domain\": %d, \
             \"name\": %S, \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.parent s.op s.dom s.name s.t0 s.t1)
        spans)
