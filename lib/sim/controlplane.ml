type report = {
  controller_router : int;
  devices_managed : int;
  routers_total : int;
  config_messages : int;
  config_bytes : int;
  config_byte_hops : int;
  time_to_configure : float;
  report_bytes_per_epoch : int;
}

let bytes_per_policy_row = 16
let bytes_per_candidate = 4
let bytes_per_weight_cell = 12
let bytes_per_measurement_cell = 12

(* Flat device indexing shared by the live control plane and the audit
   layer: proxies first, then middleboxes.  A "device" is anything the
   controller pushes configuration to. *)
let device_count (dep : Sdm.Deployment.t) =
  Array.length dep.Sdm.Deployment.proxies
  + Array.length dep.Sdm.Deployment.middleboxes

let device_of_entity (dep : Sdm.Deployment.t) = function
  | Mbox.Entity.Proxy i -> i
  | Mbox.Entity.Middlebox i -> Array.length dep.Sdm.Deployment.proxies + i

let entity_of_device (dep : Sdm.Deployment.t) dev =
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  if dev < 0 || dev >= device_count dep then
    invalid_arg "Controlplane.entity_of_device: device out of range";
  if dev < n_proxies then Mbox.Entity.Proxy dev
  else Mbox.Entity.Middlebox (dev - n_proxies)

let default_router (dep : Sdm.Deployment.t) =
  let topo = dep.Sdm.Deployment.topo in
  match Netgraph.Topology.gateways topo with
  | gw :: _ -> gw
  | [] -> List.hd (Netgraph.Topology.cores topo)

let replica_routers (dep : Sdm.Deployment.t) ~primary ~n =
  if n < 1 then invalid_arg "Controlplane.replica_routers: n must be positive";
  let topo = dep.Sdm.Deployment.topo in
  (* Deterministic placement: the primary keeps its router; standbys
     take the remaining gateways in order, then the cores — transit
     routers with the best reach, and a stable order whatever the
     seed did to the access layer. *)
  let pool =
    List.filter
      (fun r -> r <> primary)
      (Netgraph.Topology.gateways topo @ Netgraph.Topology.cores topo)
  in
  let rec take k = function
    | _ when k = 0 -> []
    | [] ->
      invalid_arg
        (Printf.sprintf
           "Controlplane.replica_routers: %d replicas but only %d distinct \
            transit routers"
           n
           (n - k))
    | r :: rest -> r :: take (k - 1) rest
  in
  primary :: take (n - 1) pool

(* Per-entity configuration size — also what the live control plane
   charges per config-push message. *)
let entity_bytes (c : Sdm.Controller.t) entity =
  let dep = c.Sdm.Controller.deployment in
  let functions = Sdm.Deployment.functions dep in
  let weights =
    match c.Sdm.Controller.strategy with
    | Sdm.Strategy.Load_balanced w -> Some w
    | _ -> None
  in
  let policy_rows = List.length (Sdm.Controller.policy_table_for c entity) in
  let candidates =
    List.fold_left
      (fun acc nf ->
        match Sdm.Candidate.get c.Sdm.Controller.candidates entity nf with
        | members -> acc + List.length members
        | exception Invalid_argument _ -> acc
        | exception Not_found -> acc)
      0 functions
  in
  let weight_cells =
    match weights with
    | None -> 0
    | Some w ->
      List.fold_left
        (fun acc rule ->
          List.fold_left
            (fun acc nf ->
              match
                Sdm.Weights.find w entity ~rule:rule.Policy.Rule.id ~nf
              with
              | Some row -> acc + Array.length row
              | None -> acc)
            acc functions)
        0 c.Sdm.Controller.rules
  in
  (policy_rows * bytes_per_policy_row)
  + (candidates * bytes_per_candidate)
  + (weight_cells * bytes_per_weight_cell)

let price (c : Sdm.Controller.t) ~traffic =
  let dep = c.Sdm.Controller.deployment in
  let topo = dep.Sdm.Deployment.topo in
  let controller_router = default_router dep in
  let entities =
    List.init (Array.length dep.Sdm.Deployment.proxies) (fun i ->
        Mbox.Entity.Proxy i)
    @ List.init (Array.length dep.Sdm.Deployment.middleboxes) (fun i ->
          Mbox.Entity.Middlebox i)
  in
  let entity_bytes entity = entity_bytes c entity in
  let hops entity =
    let r = Sdm.Deployment.entity_router dep entity in
    (* +1 for the last hop from the attachment router to the device. *)
    int_of_float dep.Sdm.Deployment.dist.(controller_router).(r) + 1
  in
  let config_bytes = ref 0 and byte_hops = ref 0 and max_hops = ref 0 in
  List.iter
    (fun e ->
      let b = entity_bytes e and h = hops e in
      config_bytes := !config_bytes + b;
      byte_hops := !byte_hops + (b * h);
      if h > !max_hops then max_hops := h)
    entities;
  (* Measurement reports: each proxy ships its non-zero cells. *)
  let report_bytes = ref 0 in
  List.iter
    (fun rule ->
      List.iter
        (fun (_, _, _) -> report_bytes := !report_bytes + bytes_per_measurement_cell)
        (Sdm.Measurement.pairs_for traffic ~rule:rule.Policy.Rule.id))
    c.Sdm.Controller.rules;
  {
    controller_router;
    devices_managed = List.length entities;
    routers_total = Netgraph.Graph.node_count topo.Netgraph.Topology.graph;
    config_messages = List.length entities;
    config_bytes = !config_bytes;
    config_byte_hops = !byte_hops;
    time_to_configure = float_of_int !max_hops;
    report_bytes_per_epoch = !report_bytes;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "controller at router %d@.devices managed: %d (an SDN controller would \
     manage all %d routers, per flow)@.config push: %d messages, %d bytes, %d \
     byte-hops, done in %.1f time units@.measurement reports: %d bytes per \
     epoch@."
    r.controller_router r.devices_managed r.routers_total r.config_messages
    r.config_bytes r.config_byte_hops r.time_to_configure
    r.report_bytes_per_epoch
