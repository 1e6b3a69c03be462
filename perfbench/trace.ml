let now_ns () = Monotonic_clock.now ()

type span = {
  id : int;
  name : string;
  parent : int; (* -1 at top level *)
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let enable () = on := true
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; parent; start_ns; stop_ns } :: !recorded
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

type layer = { calls : int; self_ns : float }

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Each span's duration is charged to its parent; a span's self time is
   its duration minus what its children were charged. *)
let layer name =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    !recorded;
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        let d = duration s in
        let c = Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
        { calls = acc.calls + 1; self_ns = acc.self_ns +. d -. c })
    { calls = 0; self_ns = 0.0 }
    !recorded

let seen name = List.exists (fun s -> s.name = name) !recorded

let write path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.start_ns m < 0 then s.start_ns else m)
      Int64.max_int !recorded
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"id\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",") s.name (us s.start_ns) (duration s /. 1e3) s.id s.parent)
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc
