(* Spans around the benchmark's calls into each layer, recorded on traced
   runs only: name, start, end and the enclosing span. They stay in memory
   until the run ends, when [write] saves them in Chrome trace_event form
   and [self_times] gives each layer's time minus its child spans'. The
   driver is single-threaded, so spans nest strictly. *)

type t = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

let enabled = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next in
    incr next;
    let s =
      { id; parent = (match !stack with p :: _ -> p | [] -> -1); name; t0 = Unix.gettimeofday (); t1 = nan }
    in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* Run [f] without recording its spans. *)
let quiet f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

(* Per span name: (count, total seconds, self seconds), by total. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace child s.parent
        ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    !spans;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) by_name []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)

let write path =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let us t = Obs.Json.Float (Float.round ((t -. origin) *. 1e6)) in
  let event s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str s.name);
        ("ph", Obs.Json.Str "X");
        ("ts", us s.t0);
        ("dur", Obs.Json.Float (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ("args", Obs.Json.Obj [ ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent) ]);
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj [ ("traceEvents", Obs.Json.Arr (List.rev_map event !spans)) ])))
