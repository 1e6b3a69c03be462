(* OSPF routing, checked against the oracle.

   The paper's networks "forward packets based on classical routing
   protocols such as OSPF"; the simulator's routers use the per-source
   Dijkstra tables OSPF converges to.  This example runs link-state
   flooding ([Ospf]) on the event engine to convergence on the campus
   and Waxman topologies, checks the tables against the global
   Dijkstra oracle, reports the message cost, and finishes with a live
   link failure that the link-state session reconverges around.

     dune exec examples/routing_protocols.exe *)

let check_topology name topo =
  Format.printf "== %s: %a ==@." name Netgraph.Topology.pp topo;
  let ospf = Ospf.Protocol.converge topo in
  let ospf_ok =
    Array.for_all2 (fun (a : int array) b -> a = b) ospf.Ospf.Protocol.tables
      (Netgraph.Routing.build_all topo.Netgraph.Topology.graph)
  in
  Format.printf "OSPF (link-state): %6d messages, t=%5.1f, tables = oracle: %b@.@."
    ospf.Ospf.Protocol.stats.Ospf.Protocol.messages
    ospf.Ospf.Protocol.stats.Ospf.Protocol.convergence_time ospf_ok;
  if not ospf_ok then exit 1

let () =
  check_topology "campus" (Netgraph.Campus.generate ~seed:17 ());
  check_topology "waxman" (Netgraph.Waxman.generate ~seed:17 ());

  (* A live failure: the link-state session heals around a lost link. *)
  let topo = Netgraph.Campus.generate ~seed:17 () in
  let session = Ospf.Session.start topo in
  let before = Ospf.Session.messages session in
  (* Fail the first core-to-gateway link (cores are dual-homed, so the
     network stays connected). *)
  let gw = List.hd (Netgraph.Topology.gateways topo) in
  let core = List.hd (Netgraph.Topology.cores topo) in
  Format.printf "== failing link %d -- %d (gateway-core) ==@." gw core;
  Ospf.Session.fail_link session gw core;
  let oracle = Netgraph.Routing.build_all (Ospf.Session.surviving_graph session) in
  let healed =
    Array.for_all2 (fun (a : int array) b -> a = b) (Ospf.Session.tables session)
      oracle
  in
  Format.printf
    "reconverged with %d extra LSA transmissions; tables = oracle on the \
     surviving graph: %b@."
    (Ospf.Session.messages session - before)
    healed;
  if not healed then exit 1
