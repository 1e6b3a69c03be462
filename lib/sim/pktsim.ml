(* Live control plane (Sec. III.A-III.C run in-line): the controller
   sits at an attachment router, re-optimizes at epoch boundaries and
   on detected failures, and pushes versioned configuration updates to
   every proxy and middlebox over the same lossy control channel the
   data plane uses. *)
type live_config = {
  epoch_interval : float;
  reconcile_interval : float;
  push_backoff : float;
  push_backoff_cap : float;
  push_max_retries : int;
  controller_router : int option;
  replicas : int;
  quorum : Quorum.family;
  replica_routers : int list option;
  sweep_period : float option;
      (* anti-entropy digest sweep over every device's soft state;
         [None] disables it (and keeps the run bit-identical to a
         build without the sweep machinery) *)
  warm_start : bool;
      (* thread the previous plan's simplex basis through every in-run
         re-optimization (incremental candidate patching + phase-2-only
         LP re-solve where the layout held); [false] runs the cold path
         bit-identically to builds without warm-start support *)
}

let default_live =
  {
    epoch_interval = 25.0;
    reconcile_interval = 5.0;
    push_backoff = 2.0;
    (* High enough that the default six-retry ladder (2,4,...,64) is
       never clipped: the cap only bites configs that raise the retry
       budget or the base. *)
    push_backoff_cap = 120.0;
    push_max_retries = 6;
    controller_router = None;
    replicas = 1;
    quorum = Quorum.Majority;
    replica_routers = None;
    sweep_period = None;
    warm_start = false;
  }

(* The retry ladder every control-plane chain (config push, proposal,
   commit notice) climbs: exponential from [push_backoff], clipped at
   [push_backoff_cap]. *)
let push_backoff_delay (l : live_config) ~attempt =
  Float.min (l.push_backoff *. (2.0 ** float_of_int attempt)) l.push_backoff_cap

type config = {
  label_switching : bool;
  mtu : int;
  link_delay : float;
  packet_interval : float;
  start_window : float;
  cache_timeout : float;
  seed : int;
  service_rate : float;
  label_timeout : float;
  wp_cache_hit_ratio : float;
  cache_capacity : int option;
  ecmp : bool;
  faults : Fault.Schedule.t option;
  detection_delay : float;
  failover : bool;
  ctrl_retry_timeout : float;
  ctrl_max_retries : int;
  live : live_config option;
  audit : bool;
  debug_bypass_chain : int option;
  shards : int;
}

let default_config =
  {
    label_switching = true;
    mtu = 1500;
    link_delay = 0.1;
    packet_interval = 1.0;
    start_window = 50.0;
    cache_timeout = 1e9;
    seed = 99;
    service_rate = infinity;
    label_timeout = infinity;
    wp_cache_hit_ratio = 0.0;
    cache_capacity = None;
    ecmp = false;
    faults = None;
    detection_delay = 10.0;
    failover = true;
    ctrl_retry_timeout = 5.0;
    ctrl_max_retries = 3;
    live = None;
    audit = false;
    debug_bypass_chain = None;
    shards = 1;
  }

type stats = {
  loads : float array;
  injected_packets : int;
  delivered_packets : int;
  dropped_packets : int;
  control_packets : int;
  multi_field_lookups : int;
  cache_hits : int;
  cache_negative_hits : int;
  tunneled_packets : int;
  label_switched_packets : int;
  fragments_created : int;
  router_hops : int;
  sim_time : float;
  latency_mean : float;  (* 0.0 when nothing was delivered *)
  latency_p50 : float;
  latency_p99 : float;
  label_misses : int;    (* label-switched packets hitting an expired entry *)
  teardowns : int;       (* teardown notifications back to proxies *)
  wp_cache_served : int; (* requests answered from the web proxy's cache *)
  cache_evictions : int; (* capacity-forced LRU evictions across all caches *)
  events_scheduled : int; (* engine events created over the whole run *)
  events_processed : int; (* engine events fired over the whole run *)
  policy_violations : int; (* enforced packets that escaped their chain *)
  fault_dropped : int;   (* packets lost to injected faults *)
  control_retries : int; (* control-packet retransmissions *)
  control_lost : int;    (* control-packet transmissions lost to faults *)
  last_violation_time : float; (* time of the last policy violation, 0 if none *)
  (* Live control plane (all 0 / all-zero arrays when [live = None]). *)
  config_pushes : int;   (* config-push transmissions, retries included *)
  config_acks : int;     (* install acknowledgements the controller got *)
  config_lost : int;     (* config/ack transmissions lost to faults *)
  config_bytes : int;    (* bytes of configuration put on the wire *)
  reoptimizations : int; (* configuration versions published *)
  config_degraded : int; (* re-optimizations or pushes abandoned: partition,
                            LP failure, or mixed-version verification veto *)
  final_config_version : int;
  stale_devices : int;   (* devices below the final version at run end *)
  entity_control_retries : int array; (* per device: proxies, then mboxes *)
  entity_control_lost : int array;
  entity_config_version : int array;
  (* Replicated control plane (all 0 / empty when [replicas = 1] the
     counters still run — the single replica plays a one-acceptor
     quorum — but no quorum traffic ever hits the wire). *)
  quorum_rounds : int;     (* propose/accept/commit rounds started *)
  quorum_commits : int;    (* rounds that reached quorum and committed *)
  quorum_aborts : int;     (* rounds abandoned: no quorum, or superseded *)
  quorum_msgs : int;       (* proposal/vote/commit-notice transmissions *)
  quorum_lost : int;       (* of those, lost to the control channel *)
  leader_changes : int;    (* re-elections after a leader crash *)
  replica_versions : int array; (* per replica: highest committed version *)
  (* Silent state corruption and the anti-entropy sweep (all 0 when the
     schedule has no corruption events / [sweep_period = None]). *)
  corruptions_injected : int;  (* corruption events that found a target *)
  corruptions_manifested : int; (* of those, ones the data plane ever used *)
  corruptions_detected : int;  (* digest mismatches the sweep found *)
  corruptions_repaired : int;  (* corruptions resolved (purge/rebase/re-push) *)
  sweep_rounds : int;      (* sweep rounds started *)
  sweep_msgs : int;        (* digest query/reply transmissions *)
  sweep_lost : int;        (* of those, lost to the control channel *)
  sweep_bytes : int;       (* repair-traffic overhead on the wire *)
  repair_window_mean : float; (* mean inject-to-repair time, 0 if none *)
  repair_window_max : float;
  (* Incremental re-optimization (all 0 when [live = None]; warm/
     fallback are 0 unless [warm_start] was on). *)
  reopt_pivots : int;     (* phase-2 pivots across all in-run re-solves *)
  reopt_phase1_pivots : int; (* phase-1 (cold-path) pivots, not in the above *)
  reopt_warm_used : int;  (* re-solves the previous basis carried *)
  reopt_fallback : int;   (* warm attempts that fell back cold *)
  audit_report : Audit.Checker.report option; (* None unless [config.audit] *)
}

type counters = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable control : int;
  mutable lookups : int;
  mutable cache_hits : int;
  mutable cache_negative_hits : int;
  mutable tunneled : int;
  mutable label_switched : int;
  mutable fragments : int;
  mutable hops : int;
  mutable label_misses : int;
  mutable teardowns : int;
  mutable wp_served : int;
  mutable violations : int;
  mutable fault_dropped : int;
  mutable retries : int;
  mutable ctrl_lost : int;
  mutable last_violation : float;
  mutable cfg_pushes : int;
  mutable cfg_acks : int;
  mutable cfg_lost : int;
  mutable cfg_bytes : int;
  mutable reopts : int;
  mutable cfg_degraded : int;
  mutable q_rounds : int;
  mutable q_commits : int;
  mutable q_aborts : int;
  mutable q_msgs : int;
  mutable q_lost : int;
  mutable elections : int;
  mutable corrupt_injected : int;
  mutable corrupt_manifested : int;
  mutable corrupt_detected : int;
  mutable corrupt_repaired : int;
  mutable sweep_rounds : int;
  mutable sweep_msgs : int;
  mutable sweep_lost : int;
  mutable sweep_bytes : int;
  mutable repair_sum : float;
  mutable repair_max : float;
  mutable reopt_pivots : int;
  mutable reopt_phase1 : int;
  mutable reopt_warm : int;
  mutable reopt_fallback : int;
}

(* Messages on the wire: ordinary data packets, or the control packet
   the chain's last middlebox sends back to the proxy (Sec. III.E).
   Data packets carry their audit identity (the injected-packet counter
   at admission) across tunnel legs and header rewrites. *)
type msg =
  | Data of Netpkt.Packet.t * float * int (* packet, injection time, aid *)
  | Control of { dst : Netpkt.Addr.t; flow : Netpkt.Flow.t }
  | Teardown of { dst : Netpkt.Addr.t; label : int }
      (* an expired label-switched path: the proxy must fall back to
         IP-over-IP and re-establish *)

(* Where a destination address lives: the attachment router plus the
   endpoint to hand the message to on arrival. *)
type endpoint = To_subnet of int | To_mbox of int

(* One injected corruption, tracked from injection to repair so the
   repair-window statistics and the audit's Repair invariant have
   ground truth to measure against. *)
type corruption_record = {
  cr_cid : int;
  cr_dev : int;  (* device owning the corrupted state, flat indexing *)
  cr_kind : Audit.Event.corrupt_kind;
  cr_site : Audit.Event.corrupt_site;
  cr_injected_at : float;
  mutable cr_manifested : bool;
  mutable cr_repaired : bool;
}

(* Armed only when the schedule carries corruption events.  The RNG is
   a derived child of the loss seed — a fresh stream, so arming the
   machinery never perturbs the loss draws of a corruption-free run.
   The site tables index live (unrepaired) corruptions by where a
   data-path lookup would trip over them; [graveyard] keeps the entries
   each install purged, which is what [Stale_resurrect] re-installs. *)
type corrupt_state = {
  crng : Stdx.Rng.t;
  mutable next_cid : int;
  records : (int, corruption_record) Hashtbl.t;
  label_sites : (int * Netpkt.Addr.t * int, int) Hashtbl.t;
  cache_sites : (int * Netpkt.Flow.t, int) Hashtbl.t;
  config_sites : (int, int) Hashtbl.t;
  graveyard : (Mbox.Label_table.key * Mbox.Label_table.entry) list array;
  want_graveyard : bool;
}

(* Live fault machinery for a run with a schedule: the ground-truth /
   believed-state failure detector, the RNG behind the loss draws, and
   (only when links fail mid-run) the OSPF session whose reconverged
   tables replace the world's on every topology change. *)
type fault_state = {
  detector : Fault.Detector.t;
  schedule : Fault.Schedule.t;
  loss_rng : Stdx.Rng.t;
  session : Ospf.Session.t option;
  corrupt : corrupt_state option;
}

(* Live control-plane state.  Devices (proxies first, then middleboxes)
   are indexed flat; [configs.(v)] is the controller published as
   version [v], with version 0 the configuration the run started on.
   Devices stage at most the two adjacent versions {installed-1,
   installed}: that is the invariant Verify.check_mixed certifies. *)
type live_state = {
  lcfg : live_config;
  ctrl_router : int;
  mutable configs : Sdm.Controller.t array;
  mutable latest : int;
  device_version : int array; (* installed at the device *)
  device_acked : int array;   (* highest version the controller saw acked *)
  meas : Sdm.Measurement.t;   (* per-(src, dst, rule) volumes observed so far *)
  mutable horizon : float;    (* time of the last scheduled injection *)
  mutable reconcile_rounds : int;
  (* Controller replication.  Replica [i] sits at [replica_router.(i)]
     (replica 0 at [ctrl_router]); the leader is the lowest-id live
     replica and the only one that proposes, commits, and pushes.  A
     candidate configuration parks in [pending] while its quorum round
     is in flight and reaches [configs] only through a commit — the
     single gate into the staged window. *)
  mutable leader : int;
  replica_router : int array;
  replica_up : bool array;
  acceptors : Quorum.Acceptor.t array; (* durable across crashes *)
  mutable round : Quorum.Round.t option;
  mutable pending : Sdm.Controller.t option;
}

type world = {
  cfg : config;
  controller : Sdm.Controller.t;
  dep : Sdm.Deployment.t;
  engine : Dess.Engine.t;
  mutable tables : Netgraph.Routing.table array;
  mutable ecmp_tables : Netgraph.Routing.ecmp_table array option;
  fault : fault_state option;
  live : live_state option;
  counters : counters;
  (* Per-device control-channel accounting (satellite of the live
     control plane, but maintained for static runs too): label
     establishment/teardown retransmissions are attributed to the
     sending middlebox, config pushes to the target device. *)
  entity_ctrl_retries : int array;
  entity_ctrl_lost : int array;
  latencies : Stdx.Fvec.t; (* delivered-packet end-to-end times *)
  busy_until : float array; (* per-middlebox FIFO server horizon *)
  loads : float array;
  (* Per-proxy and per-middlebox soft state. *)
  proxy_caches : Policy.Flow_cache.t array;
  proxy_match : Policy.Trie.t array;
  mutable_label : int array; (* next label per proxy *)
  (* reverse index: label -> flow, so a teardown (which carries only
     src|label) can find the proxy's flow-cache entry; flat-keyed on
     (label, 0) so installs on the first-packet path stay cheap *)
  proxy_label_index : Netpkt.Flow.t Stdx.Flat_table.t array;
  mbox_caches : Policy.Flow_cache.t array;
  mbox_match : Policy.Trie.t array;
  mbox_labels : Mbox.Label_table.t array;
  (* Address resolution (middleboxes by exact address; stub subnets
     via the deployment's prefix index). *)
  mbox_index : (Netpkt.Addr.t, int) Hashtbl.t;
  rule_by_id : (int, Policy.Rule.t) Hashtbl.t;
  (* Online invariant auditor (None unless [config.audit]).  Emission
     is a pure side-channel: no randomness, no engine work, no float
     arithmetic the data path sees — an audited run is bit-identical
     to an unaudited one in every other statistic. *)
  audit : Audit.Checker.t option;
}

(* ---- Fault plumbing --------------------------------------------- *)

(* A packet of an enforced flow escaped its middlebox chain — the
   dependability metric ABL-CHAOS sweeps. *)
let policy_violation w =
  w.counters.violations <- w.counters.violations + 1;
  w.counters.last_violation <- Dess.Engine.now w.engine

let mbox_is_down w id =
  match w.fault with
  | Some f -> not (Fault.Detector.actually_up f.detector id)
  | None -> false

(* ---- Audit emission ---------------------------------------------- *)

(* The event is built inside a thunk so an unaudited run pays one
   [match] per site and allocates nothing. *)
let audit_emit w f =
  match w.audit with None -> () | Some a -> Audit.Checker.record a (f ())

let msg_aid = function
  | Data (_, _, aid) -> aid
  | Control _ | Teardown _ -> -1 (* control traffic: counted, not traced *)

(* ---- Silent-corruption bookkeeping ------------------------------- *)

let corrupt_of w =
  match w.fault with
  | Some { corrupt = Some cs; _ } -> Some cs
  | _ -> None

(* The Repair invariant's bound: a corruption must be repaired within
   two sweep periods of injection (one period to be visited, one for
   the lossy query/reply/re-push ladder).  No sweep, no bound. *)
let repair_deadline w ~now =
  match w.cfg.live with
  | Some { sweep_period = Some p; _ } -> now +. (2.0 *. p)
  | _ -> infinity

(* Register one injected corruption and announce the ground truth to
   the auditor, which arms its Repair invariant on the first one. *)
let register_corruption w cs ~dev ~kind ~site =
  let cid = cs.next_cid in
  cs.next_cid <- cid + 1;
  let now = Dess.Engine.now w.engine in
  Hashtbl.replace cs.records cid
    { cr_cid = cid; cr_dev = dev; cr_kind = kind; cr_site = site;
      cr_injected_at = now; cr_manifested = false; cr_repaired = false };
  (match site with
  | Audit.Event.Label_site { mbox; src; label } ->
    Hashtbl.replace cs.label_sites (mbox, src, label) cid
  | Audit.Event.Cache_site { proxy; flow } ->
    Hashtbl.replace cs.cache_sites (proxy, flow) cid
  | Audit.Event.Config_site { dev } -> Hashtbl.replace cs.config_sites dev cid);
  w.counters.corrupt_injected <- w.counters.corrupt_injected + 1;
  audit_emit w (fun () ->
      Audit.Event.Corrupt_inject
        { time = now; cid; kind; site;
          deadline = repair_deadline w ~now })

(* The corrupted state just influenced the data plane.  The distinct-
   corruption counter advances once; packet-scoped manifestations are
   announced every time so the auditor can excuse each hit packet's
   chain ([aid] = -1 for decision-scoped ones, announced once). *)
let manifest_corruption w cs ~cid ~aid =
  match Hashtbl.find_opt cs.records cid with
  | None -> ()
  | Some r ->
    let first = not r.cr_manifested in
    if first then begin
      r.cr_manifested <- true;
      w.counters.corrupt_manifested <- w.counters.corrupt_manifested + 1
    end;
    if aid >= 0 || first then
      audit_emit w (fun () ->
          Audit.Event.Corrupt_manifest
            { time = Dess.Engine.now w.engine; cid; aid })

(* Mark one corruption repaired: record the inject-to-repair window,
   retire its site (later lookups there see clean state) and announce
   the repair.  Idempotent — a corruption repairs at most once. *)
let resolve_corruption w cs ~dev ~action r =
  if not r.cr_repaired then begin
    r.cr_repaired <- true;
    let now = Dess.Engine.now w.engine in
    let window = now -. r.cr_injected_at in
    w.counters.corrupt_repaired <- w.counters.corrupt_repaired + 1;
    w.counters.repair_sum <- w.counters.repair_sum +. window;
    if window > w.counters.repair_max then w.counters.repair_max <- window;
    (match r.cr_site with
    | Audit.Event.Label_site { mbox; src; label } ->
      Hashtbl.remove cs.label_sites (mbox, src, label)
    | Audit.Event.Cache_site { proxy; flow } ->
      Hashtbl.remove cs.cache_sites (proxy, flow)
    | Audit.Event.Config_site { dev } -> Hashtbl.remove cs.config_sites dev);
    audit_emit w (fun () ->
        Audit.Event.Corrupt_repair { time = now; cid = r.cr_cid; dev; action })
  end

let resolve_cid w cs ~cid ~dev ~action =
  match Hashtbl.find_opt cs.records cid with
  | None -> ()
  | Some r -> resolve_corruption w cs ~dev ~action r

(* The liveness view a steering decision saw: the signature of the
   believed-failed set when failover consults the detector, 0 when no
   liveness filtering applies (the stickiness invariant holds per
   view). *)
let steer_view w =
  match w.fault with
  | Some f when w.cfg.failover ->
    Fault.Detector.belief_signature f.detector ~now:(Dess.Engine.now w.engine)
  | _ -> 0L

(* ---- Live-control-plane device indexing -------------------------- *)

let n_devices w =
  Array.length w.dep.Sdm.Deployment.proxies
  + Array.length w.dep.Sdm.Deployment.middleboxes

let dev_of_entity w = function
  | Mbox.Entity.Proxy i -> i
  | Mbox.Entity.Middlebox i -> Array.length w.dep.Sdm.Deployment.proxies + i

let dev_of_mbox w id = Array.length w.dep.Sdm.Deployment.proxies + id

let dev_entity w dev =
  let n_proxies = Array.length w.dep.Sdm.Deployment.proxies in
  if dev < n_proxies then Mbox.Entity.Proxy dev
  else Mbox.Entity.Middlebox (dev - n_proxies)

let installed_version w entity =
  match w.live with
  | None -> 0
  | Some ls -> ls.device_version.(dev_of_entity w entity)

(* A steering decision at a device whose config install was silently
   lost runs under regressed weights: that is the lost install
   manifesting.  Not a policy violation — regression by exactly one
   version stays inside the certified staged window — but the Repair
   invariant starts its clock. *)
let note_config_use w entity =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.config_sites (dev_of_entity w entity) with
    | Some cid -> manifest_corruption w cs ~cid ~aid:(-1)
    | None -> ())

(* A legitimate label insert overwriting a corrupted entry replaces it
   with freshly certified state: the corruption is gone before the
   sweep ever saw it.  Count that as a (free) repair so the registry
   stays honest and later hits at the site are not misread as
   manifestations. *)
let note_label_overwrite w ~mbox ~src ~label =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid ->
      resolve_cid w cs ~cid ~dev:(dev_of_mbox w mbox)
        ~action:Audit.Event.Rebased
    | None -> ())

(* A label-switched packet matched a corrupted (mis-steering or
   resurrected) entry: it is now travelling somewhere the current
   configuration never certified.  That is both a manifestation and a
   policy violation. *)
let note_label_hit w ~mbox ~src ~label ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid ->
      manifest_corruption w cs ~cid ~aid;
      policy_violation w
    | None -> ())

(* A label miss at the site of a silently dropped entry: the packet of
   an established path is lost unenforced, which a mere expiry never
   does (expiry tears the path down end-to-end). *)
let note_label_miss w ~mbox ~src ~label ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.label_sites (mbox, src, label) with
    | Some cid -> (
      match Hashtbl.find_opt cs.records cid with
      | Some r when r.cr_kind = Audit.Event.Lost_entry ->
        manifest_corruption w cs ~cid ~aid;
        policy_violation w
      | Some _ | None -> ())
    | None -> ())

(* A proxy admission decided from a poisoned cache entry: the packet
   bypasses (or short-circuits) the chain its policy demands. *)
let note_cache_bypass w ~proxy ~flow ~aid =
  match corrupt_of w with
  | None -> ()
  | Some cs -> (
    match Hashtbl.find_opt cs.cache_sites (proxy, flow) with
    | Some cid ->
      manifest_corruption w cs ~cid ~aid;
      policy_violation w
    | None -> ())

(* The configuration an entity decides with: its installed version —
   or, when the decision belongs to a flow admitted under an older
   version, the admitting version clamped into the staged adjacent
   window {installed-1, installed}.  Clamping keeps in-flight flows
   sticky to the weights that admitted them for exactly one update
   boundary; beyond that the flow is re-steered under newer weights
   (its stale label entries have been purged by then). *)
let decision_version w ?admitted entity =
  match w.live with
  | None -> 0
  | Some ls -> (
    let inst = ls.device_version.(dev_of_entity w entity) in
    match admitted with
    | Some a when a < inst -> Stdlib.max a (inst - 1)
    | _ -> inst)

let decision_controller w ?admitted entity =
  match w.live with
  | None -> w.controller
  | Some ls -> ls.configs.(decision_version w ?admitted entity)

(* Steering decision under faults: with failover on, entities consult
   the failure detector's (delayed) view; with it off they keep using
   the static configuration.  The no-fault path calls the raising
   variant directly — candidate sets are non-empty by construction, so
   it cannot raise, and it skips all liveness filtering. *)
let controller_next_hop w ?admitted entity ~rule ~nf flow =
  note_config_use w entity;
  let c = decision_controller w ?admitted entity in
  match w.fault with
  | None -> Ok (Sdm.Controller.next_hop c entity ~rule ~nf flow)
  | Some f ->
    if w.cfg.failover then
      let now = Dess.Engine.now w.engine in
      Sdm.Controller.next_hop_result
        ~alive:(fun id -> Fault.Detector.believed_alive f.detector ~now id)
        c entity ~rule ~nf flow
    else Sdm.Controller.next_hop_result c entity ~rule ~nf flow

(* Traffic measurement feeding re-optimization: each enforced packet a
   proxy admits adds one unit at its (source, destination, rule) cell,
   the granularity the Eq. (2) LP consumes. *)
let note_traffic w (fs : Workload.flow_spec) ~rule_id =
  match w.live with
  | None -> ()
  | Some ls ->
    Sdm.Measurement.add ls.meas ~src:fs.Workload.src_proxy
      ~dst:fs.Workload.dst_proxy ~rule:rule_id 1.0

(* One Bernoulli draw per data packet per link crossed; control-packet
   loss is modelled at transmission granularity in [send_control]. *)
let link_lost w msg =
  match (w.fault, msg) with
  | Some f, Data _ when f.schedule.Fault.Schedule.link_loss > 0.0 ->
    Stdx.Rng.float f.loss_rng 1.0 < f.schedule.Fault.Schedule.link_loss
  | _ -> false

(* One Bernoulli draw per control-plane transmission (label control and
   config pushes alike share the channel and the loss process). *)
let control_loss_draw w =
  match w.fault with
  | Some f when f.schedule.Fault.Schedule.control_loss > 0.0 ->
    Stdx.Rng.float f.loss_rng 1.0 < f.schedule.Fault.Schedule.control_loss
  | _ -> false

let drop_to_fault w =
  w.counters.dropped <- w.counters.dropped + 1;
  w.counters.fault_dropped <- w.counters.fault_dropped + 1

let resolve w addr =
  match Hashtbl.find_opt w.mbox_index addr with
  | Some id ->
    Some (w.dep.Sdm.Deployment.middleboxes.(id).Mbox.Middlebox.router, To_mbox id)
  | None -> (
    match Sdm.Deployment.proxy_of_addr w.dep addr with
    | Some p -> Some (p.Mbox.Proxy.router, To_subnet p.Mbox.Proxy.id)
    | None -> None)

let msg_dst = function
  | Data (pkt, _, _) -> pkt.Netpkt.Packet.header.Netpkt.Header.dst
  | Control { dst; _ } -> dst
  | Teardown { dst; _ } -> dst

(* Count the fragments a data packet would shatter into when it first
   hits a link; the logical packet keeps travelling whole (tunnel
   endpoints would reassemble anyway), only the statistic records the
   overhead label switching exists to avoid. *)
let note_fragments w = function
  | Data (pkt, _, aid) ->
    let extra =
      Netpkt.Fragment.count ~mtu:w.cfg.mtu (Netpkt.Packet.size pkt) - 1
    in
    w.counters.fragments <- w.counters.fragments + extra;
    if extra > 0 then
      audit_emit w (fun () ->
          Audit.Event.Fragmented
            { aid; time = Dess.Engine.now w.engine; extra })
  | Control _ | Teardown _ -> ()

(* Figure 3: a web proxy holding the requested page "honors" the
   request — the packet stops here and a response goes back, skipping
   the rest of the chain and the origin server.  The decision must be
   per-flow sticky across tunnelled and label-switched packets, so it
   hashes the fields both forms share: source address and label when
   present, the full 5-tuple otherwise. *)
let wp_serves_from_cache w (mb : Mbox.Middlebox.t) ~src ~label ~flow_hash =
  w.cfg.wp_cache_hit_ratio > 0.0
  && Policy.Action.equal_nf mb.Mbox.Middlebox.nf Policy.Action.WP
  &&
  let h =
    match label with
    | Some l -> Stdx.Xhash.combine3 src l 0x77AC
    | None -> Stdx.Xhash.fold_int flow_hash 0x77AC
  in
  Stdx.Xhash.to_unit_interval h < w.cfg.wp_cache_hit_ratio

(* The cached response: modelled as immediate delivery back to the
   client (the reverse path carries no policy work in our classes). *)
let serve_from_cache w ~born ~aid ~mbox =
  w.counters.wp_served <- w.counters.wp_served + 1;
  w.counters.delivered <- w.counters.delivered + 1;
  Stdx.Fvec.push w.latencies (Dess.Engine.now w.engine -. born);
  audit_emit w (fun () ->
      Audit.Event.Wp_served { aid; time = Dess.Engine.now w.engine; mbox })

(* Hop fast-forwarding: the routers between two policy decision points
   are policy-oblivious and their tables (and ECMP hash choices) are
   fixed for the whole run, so transit is fully deterministic.  Instead
   of paying one event-queue cycle per router hop, walk the tables
   inline here and schedule a single arrival event at the segment's
   endpoint.  The arrival time accumulates [link_delay] by repeated
   addition — the same float operations the per-hop event cascade
   performed — so every timestamp, and hence every statistic, is
   bit-identical to per-hop execution. *)
let rec send w ~from_router msg =
  note_fragments w msg;
  let audit_drop reason =
    audit_emit w (fun () ->
        Audit.Event.Dropped
          { aid = msg_aid msg; time = Dess.Engine.now w.engine; reason })
  in
  match resolve w (msg_dst msg) with
  | None ->
    w.counters.dropped <- w.counters.dropped + 1;
    audit_drop Audit.Event.Unroutable
  | Some (target_router, endpoint) ->
    let rec walk router time =
      if router = target_router then begin
        if link_lost w msg then begin
          drop_to_fault w;
          audit_drop Audit.Event.Link_loss
        end
        else
          ignore
            (Dess.Engine.schedule_at w.engine ~time:(time +. w.cfg.link_delay)
               (fun _ -> deliver w endpoint msg))
      end
      else
        match next_hop_for w ~router ~target_router msg with
        | None ->
          w.counters.dropped <- w.counters.dropped + 1;
          audit_drop Audit.Event.Unroutable
        | Some hop ->
          if link_lost w msg then begin
            drop_to_fault w;
            audit_drop Audit.Event.Link_loss
          end
          else begin
            w.counters.hops <- w.counters.hops + 1;
            walk hop (time +. w.cfg.link_delay)
          end
    in
    walk from_router (Dess.Engine.now w.engine)

(* With ECMP enabled, routers spread flows over every shortest-path
   next hop by hashing stable header fields (plus the router id, so
   consecutive routers choose independently). *)
and next_hop_for w ~router ~target_router msg =
  match w.ecmp_tables with
  | None -> Netgraph.Routing.next_hop w.tables.(router) target_router
  | Some ecmp -> (
    match ecmp.(router).(target_router) with
    | [||] -> None
    | [| hop |] -> Some hop
    | hops ->
      let h =
        match msg with
        | Data (pkt, _, _) ->
          let hd = pkt.Netpkt.Packet.header in
          Stdx.Xhash.combine5 router hd.Netpkt.Header.src
            hd.Netpkt.Header.dst hd.Netpkt.Header.sport
            hd.Netpkt.Header.dport
        | Control { dst; _ } | Teardown { dst; _ } ->
          Stdx.Xhash.combine2 router dst
      in
      Some hops.(Stdx.Xhash.to_range h (Array.length hops)))

(* Control-plane reliability (Sec. III.E under faults): label
   establishment and teardown notifications are retransmitted on a
   timer until acknowledged or out of retries.  The retransmission is
   modelled as firing only when the transmission was actually lost —
   receivers are idempotent, so suppressing the redundant duplicates a
   real timer would generate is observationally equivalent. *)
and send_control w ~from_router ~sender msg =
  control_attempt w ~from_router ~sender ~retries_left:w.cfg.ctrl_max_retries
    msg

and control_attempt w ~from_router ~sender ~retries_left msg =
  let lost = control_loss_draw w in
  if not lost then send w ~from_router msg
  else begin
    w.counters.ctrl_lost <- w.counters.ctrl_lost + 1;
    w.entity_ctrl_lost.(sender) <- w.entity_ctrl_lost.(sender) + 1;
    if retries_left > 0 then begin
      w.counters.retries <- w.counters.retries + 1;
      w.entity_ctrl_retries.(sender) <- w.entity_ctrl_retries.(sender) + 1;
      ignore
        (Dess.Engine.schedule w.engine ~delay:w.cfg.ctrl_retry_timeout (fun _ ->
             control_attempt w ~from_router ~sender
               ~retries_left:(retries_left - 1) msg))
    end
  end

and deliver w endpoint msg =
  match (endpoint, msg) with
  | To_subnet proxy_id, Data (pkt, born, aid) ->
    (* Arrived in its stub network.  Encapsulated packets must not
       reach subnets; plain ones are final deliveries. *)
    if Netpkt.Packet.is_encapsulated pkt then begin
      w.counters.dropped <- w.counters.dropped + 1;
      audit_emit w (fun () ->
          Audit.Event.Dropped
            { aid;
              time = Dess.Engine.now w.engine;
              reason = Audit.Event.Encap_at_subnet })
    end
    else begin
      ignore proxy_id;
      w.counters.delivered <- w.counters.delivered + 1;
      Stdx.Fvec.push w.latencies (Dess.Engine.now w.engine -. born);
      audit_emit w (fun () ->
          Audit.Event.Delivered
            { aid;
              time = Dess.Engine.now w.engine;
              bytes = Netpkt.Packet.size pkt })
    end
  | To_subnet proxy_id, Control { flow; _ } ->
    w.counters.control <- w.counters.control + 1;
    ignore (Policy.Flow_cache.mark_ls_ready w.proxy_caches.(proxy_id) flow);
    audit_emit w (fun () ->
        Audit.Event.Ls_confirm
          { proxy = proxy_id; time = Dess.Engine.now w.engine; flow })
  | To_subnet proxy_id, Teardown { label; _ } -> (
    (* A downstream label entry expired: drop back to IP-over-IP until
       a fresh first packet re-establishes the path. *)
    w.counters.teardowns <- w.counters.teardowns + 1;
    audit_emit w (fun () ->
        Audit.Event.Ls_teardown
          { proxy = proxy_id; time = Dess.Engine.now w.engine; label });
    match Stdx.Flat_table.find w.proxy_label_index.(proxy_id) label 0 with
    | None -> ()
    | Some flow -> (
      let now = Dess.Engine.now w.engine in
      match Policy.Flow_cache.lookup w.proxy_caches.(proxy_id) ~now flow with
      | Some entry -> entry.Policy.Flow_cache.ls_ready <- false
      | None -> ()))
  | To_mbox id, Data (pkt, born, aid) ->
    (* FIFO service: a busy middlebox queues the packet; the wait is
       end-to-end latency, which is how overload becomes visible. *)
    if w.cfg.service_rate = infinity then mbox_receive w id pkt ~born ~aid
    else begin
      let now = Dess.Engine.now w.engine in
      let start = Stdlib.max now w.busy_until.(id) in
      let depart = start +. (1.0 /. w.cfg.service_rate) in
      w.busy_until.(id) <- depart;
      ignore
        (Dess.Engine.schedule_at w.engine ~time:depart (fun _ ->
             mbox_receive w id pkt ~born ~aid))
    end
  | To_mbox _, (Control _ | Teardown _) ->
    w.counters.dropped <- w.counters.dropped + 1;
    audit_emit w (fun () ->
        Audit.Event.Dropped
          { aid = -1;
            time = Dess.Engine.now w.engine;
            reason = Audit.Event.Unroutable })

(* ---- Middlebox data path ---------------------------------------- *)

and mbox_actions w id flow =
  (* Action list for a flow at a middlebox: flow cache first, then the
     local policy table (Sec. III.D applies to middleboxes too). *)
  let now = Dess.Engine.now w.engine in
  let cache = w.mbox_caches.(id) in
  match Policy.Flow_cache.lookup cache ~now flow with
  | Some { actions = Some a; rule_id; _ } ->
    w.counters.cache_hits <- w.counters.cache_hits + 1;
    Some (a, rule_id)
  | Some { actions = None; _ } ->
    w.counters.cache_negative_hits <- w.counters.cache_negative_hits + 1;
    None
  | None -> (
    w.counters.lookups <- w.counters.lookups + 1;
    match Policy.Trie.first_match w.mbox_match.(id) flow with
    | None ->
      ignore (Policy.Flow_cache.insert_negative cache ~now flow);
      None
    | Some rule ->
      ignore
        (Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
           ~actions:rule.Policy.Rule.actions ());
      Some (rule.Policy.Rule.actions, rule.Policy.Rule.id))

and mbox_receive w id pkt ~born ~aid =
  if mbox_is_down w id then begin
    (* Steered into a crashed middlebox (the detection window, or
       failover disabled): the packet is lost unenforced. *)
    drop_to_fault w;
    audit_emit w (fun () ->
        Audit.Event.Dropped
          { aid;
            time = Dess.Engine.now w.engine;
            reason = Audit.Event.Dead_mbox });
    policy_violation w
  end
  else mbox_process w id pkt ~born ~aid

and mbox_process w id pkt ~born ~aid =
  let mb = w.dep.Sdm.Deployment.middleboxes.(id) in
  match Netpkt.Packet.decapsulate pkt with
  | Some inner -> (
    (* Tunnelled leg: strip the outer header, apply the function. *)
    w.counters.tunneled <- w.counters.tunneled + 1;
    w.loads.(id) <- w.loads.(id) +. 1.0;
    audit_emit w (fun () ->
        Audit.Event.Enforced
          { aid;
            time = Dess.Engine.now w.engine;
            mbox = id;
            nf = mb.Mbox.Middlebox.nf });
    let flow = Netpkt.Packet.inner_flow pkt in
    let proxy_addr = pkt.Netpkt.Packet.header.Netpkt.Header.src in
    match mbox_actions w id flow with
    | None ->
      (* A tunnelled packet the middlebox cannot classify: forward the
         inner packet onward unprocessed. *)
      send w ~from_router:mb.Mbox.Middlebox.router (Data (inner, born, aid))
    | Some (actions, rule_id) -> (
      let rule = Hashtbl.find w.rule_by_id rule_id in
      let label = inner.Netpkt.Packet.header.Netpkt.Header.label in
      if
        wp_serves_from_cache w mb ~src:flow.Netpkt.Flow.src ~label
          ~flow_hash:(Netpkt.Flow.hash flow)
      then serve_from_cache w ~born ~aid ~mbox:id
      else
      match Policy.Action.next_after actions mb.Mbox.Middlebox.nf with
      | Some nf' -> (
        match
          controller_next_hop w (Mbox.Entity.Middlebox id) ~rule ~nf:nf' flow
        with
        | Error `No_live_candidate ->
          (* Every candidate for the rest of the chain is believed
             dead: degrade gracefully by dropping just this packet. *)
          w.counters.dropped <- w.counters.dropped + 1;
          audit_emit w (fun () ->
              Audit.Event.Dropped
                { aid;
                  time = Dess.Engine.now w.engine;
                  reason = Audit.Event.No_candidate });
          policy_violation w
        | Ok y ->
          audit_emit w (fun () ->
              Audit.Event.Steered
                { aid;
                  time = Dess.Engine.now w.engine;
                  entity = Mbox.Entity.Middlebox id;
                  rule_id;
                  nf = nf';
                  version = decision_version w (Mbox.Entity.Middlebox id);
                  view = steer_view w;
                  mbox = y.Mbox.Middlebox.id });
          (match (label, w.cfg.label_switching) with
          | Some l, true ->
            note_label_overwrite w ~mbox:id ~src:flow.Netpkt.Flow.src ~label:l;
            Mbox.Label_table.insert w.mbox_labels.(id)
              ~now:(Dess.Engine.now w.engine)
              ~version:(installed_version w (Mbox.Entity.Middlebox id))
              { Mbox.Label_table.src = flow.Netpkt.Flow.src; label = l }
              ~actions ~next:(Some y.Mbox.Middlebox.addr) ~final_dst:None;
            audit_emit w (fun () ->
                Audit.Event.Label_insert
                  { mbox = id;
                    time = Dess.Engine.now w.engine;
                    src = flow.Netpkt.Flow.src;
                    label = l;
                    version = installed_version w (Mbox.Entity.Middlebox id) })
          | _ -> ());
          let outer =
            Netpkt.Packet.encapsulate ~src:proxy_addr ~dst:y.Mbox.Middlebox.addr
              inner
          in
          send w ~from_router:mb.Mbox.Middlebox.router (Data (outer, born, aid)))
      | None ->
        (* Last function of the chain: restore normal routing and
           confirm the label-switched path to the proxy. *)
        (match (label, w.cfg.label_switching) with
        | Some l, true ->
          note_label_overwrite w ~mbox:id ~src:flow.Netpkt.Flow.src ~label:l;
          Mbox.Label_table.insert w.mbox_labels.(id)
            ~now:(Dess.Engine.now w.engine)
            ~version:(installed_version w (Mbox.Entity.Middlebox id))
            { Mbox.Label_table.src = flow.Netpkt.Flow.src; label = l }
            ~actions ~next:None ~final_dst:(Some flow.Netpkt.Flow.dst);
          audit_emit w (fun () ->
              Audit.Event.Label_insert
                { mbox = id;
                  time = Dess.Engine.now w.engine;
                  src = flow.Netpkt.Flow.src;
                  label = l;
                  version = installed_version w (Mbox.Entity.Middlebox id) });
          send_control w ~from_router:mb.Mbox.Middlebox.router
            ~sender:(dev_of_mbox w id)
            (Control { dst = proxy_addr; flow })
        | _ -> ());
        send w ~from_router:mb.Mbox.Middlebox.router (Data (inner, born, aid))))
  | None -> (
    (* No outer header: a label-switched packet addressed to us. *)
    match pkt.Netpkt.Packet.header.Netpkt.Header.label with
    | None ->
      w.counters.dropped <- w.counters.dropped + 1;
      audit_emit w (fun () ->
          Audit.Event.Dropped
            { aid;
              time = Dess.Engine.now w.engine;
              reason = Audit.Event.No_label })
    | Some l -> (
      (* The flat [find] entry point: no key record on the per-packet
         label-switched path. *)
      match
        Mbox.Label_table.find w.mbox_labels.(id)
          ~now:(Dess.Engine.now w.engine)
          ~src:pkt.Netpkt.Packet.header.Netpkt.Header.src ~label:l
      with
      | None ->
        (* Expired (or never-installed) path: the packet cannot be
           forwarded — its original destination is unknown here — but
           the proxy is told to re-establish. *)
        w.counters.dropped <- w.counters.dropped + 1;
        w.counters.label_misses <- w.counters.label_misses + 1;
        audit_emit w (fun () ->
            Audit.Event.Dropped
              { aid;
                time = Dess.Engine.now w.engine;
                reason = Audit.Event.Label_miss });
        note_label_miss w ~mbox:id
          ~src:pkt.Netpkt.Packet.header.Netpkt.Header.src ~label:l ~aid;
        (match
           Sdm.Deployment.proxy_of_addr w.dep
             pkt.Netpkt.Packet.header.Netpkt.Header.src
         with
        | Some p ->
          send_control w ~from_router:mb.Mbox.Middlebox.router
            ~sender:(dev_of_mbox w id)
            (Teardown { dst = p.Mbox.Proxy.addr; label = l })
        | None -> () (* orphaned source: nothing to notify *))
      | Some entry ->
        w.counters.label_switched <- w.counters.label_switched + 1;
        w.loads.(id) <- w.loads.(id) +. 1.0;
        audit_emit w (fun () ->
            Audit.Event.Label_hit
              { mbox = id;
                time = Dess.Engine.now w.engine;
                src = pkt.Netpkt.Packet.header.Netpkt.Header.src;
                label = l;
                version = entry.Mbox.Label_table.version });
        audit_emit w (fun () ->
            Audit.Event.Enforced
              { aid;
                time = Dess.Engine.now w.engine;
                mbox = id;
                nf = mb.Mbox.Middlebox.nf });
        note_label_hit w ~mbox:id
          ~src:pkt.Netpkt.Packet.header.Netpkt.Header.src ~label:l ~aid;
        if
          wp_serves_from_cache w mb
            ~src:pkt.Netpkt.Packet.header.Netpkt.Header.src ~label:(Some l)
            ~flow_hash:0L
        then serve_from_cache w ~born ~aid ~mbox:id
        else
        let header = pkt.Netpkt.Packet.header in
        let forward_to, strip =
          match (entry.Mbox.Label_table.next, entry.Mbox.Label_table.final_dst) with
          | Some next, None -> (next, false)
          | None, Some dst -> (dst, true)
          | _ -> assert false (* Label_table.insert forbids *)
        in
        let header = Netpkt.Header.with_dst header forward_to in
        let header = if strip then Netpkt.Header.clear_label header else header in
        send w ~from_router:mb.Mbox.Middlebox.router
          (Data ({ pkt with Netpkt.Packet.header }, born, aid))))

(* ---- Proxy data path -------------------------------------------- *)

(* The proxy's decision for one outbound packet of [fs].  [aid] is the
   packet's audit identity — the injected-packet counter at admission,
   carried on the wire for the auditor's benefit only. *)
let proxy_emit w (fs : Workload.flow_spec) ~aid =
  let proxy_id = fs.Workload.src_proxy in
  let proxy = w.dep.Sdm.Deployment.proxies.(proxy_id) in
  let now = Dess.Engine.now w.engine in
  let cache = w.proxy_caches.(proxy_id) in
  let flow = fs.Workload.flow in
  let header =
    Netpkt.Header.of_flow flow
  in
  let payload_bytes = max 0 (fs.Workload.packet_bytes - Netpkt.Header.size) in
  let plain = Netpkt.Packet.plain header ~payload_bytes in
  let entity = Mbox.Entity.Proxy proxy_id in
  let audit_admit ~admission ~version ~label =
    audit_emit w (fun () ->
        Audit.Event.Admitted
          { aid;
            time = now;
            flow;
            proxy = proxy_id;
            admission;
            version;
            bytes = Netpkt.Packet.size plain;
            label })
  in
  let tunnel_first ~rule ~label ~admitted =
    match w.cfg.debug_bypass_chain with
    | Some n when n > 0 && aid mod n = 0 ->
      (* Test-only corruption hook: every n-th packet skips its chain
         entirely and travels straight to the destination — exactly
         the escape the audit's chain invariant must catch. *)
      send w ~from_router:proxy.Mbox.Proxy.router (Data (plain, now, aid))
    | _ -> (
      let nf = List.hd rule.Policy.Rule.actions in
      match controller_next_hop w ~admitted entity ~rule ~nf flow with
      | Error `No_live_candidate ->
        (* Nowhere alive to start the chain: degrade gracefully by
           dropping the packet instead of aborting the run. *)
        w.counters.dropped <- w.counters.dropped + 1;
        audit_emit w (fun () ->
            Audit.Event.Dropped
              { aid; time = now; reason = Audit.Event.No_candidate });
        policy_violation w
      | Ok mb ->
        audit_emit w (fun () ->
            Audit.Event.Steered
              { aid;
                time = now;
                entity;
                rule_id = rule.Policy.Rule.id;
                nf;
                version = decision_version w ~admitted entity;
                view = steer_view w;
                mbox = mb.Mbox.Middlebox.id });
        let inner =
          match label with
          | Some l ->
            { plain with Netpkt.Packet.header = Netpkt.Header.with_label header l }
          | None -> plain
        in
        let outer =
          Netpkt.Packet.encapsulate ~src:proxy.Mbox.Proxy.addr
            ~dst:mb.Mbox.Middlebox.addr inner
        in
        send w ~from_router:proxy.Mbox.Proxy.router (Data (outer, now, aid)))
  in
  match Policy.Flow_cache.lookup cache ~now flow with
  | Some { actions = Some a; rule_id; _ } when Policy.Action.is_permit a ->
    w.counters.cache_hits <- w.counters.cache_hits + 1;
    audit_admit
      ~admission:(Audit.Event.Permit (Some rule_id))
      ~version:(installed_version w entity) ~label:None;
    note_cache_bypass w ~proxy:proxy_id ~flow ~aid;
    send w ~from_router:proxy.Mbox.Proxy.router (Data (plain, now, aid))
  | Some ({ actions = Some _; rule_id; label; cfg_version; _ } as entry) ->
    w.counters.cache_hits <- w.counters.cache_hits + 1;
    note_traffic w fs ~rule_id;
    let rule = Hashtbl.find w.rule_by_id rule_id in
    let ls_path = entry.Policy.Flow_cache.ls_ready && w.cfg.label_switching in
    audit_admit
      ~admission:
        (Audit.Event.Chained
           { rule_id;
             mode = (if ls_path then Audit.Event.Label else Audit.Event.Tunnel) })
      ~version:(decision_version w ~admitted:cfg_version entity)
      ~label;
    if ls_path then begin
      (* Established label-switched path: embed the label, address the
         packet straight to the first middlebox, no outer header. *)
      let nf = List.hd rule.Policy.Rule.actions in
      match controller_next_hop w ~admitted:cfg_version entity ~rule ~nf flow with
      | Error `No_live_candidate ->
        w.counters.dropped <- w.counters.dropped + 1;
        audit_emit w (fun () ->
            Audit.Event.Dropped
              { aid; time = now; reason = Audit.Event.No_candidate });
        policy_violation w
      | Ok mb ->
        audit_emit w (fun () ->
            Audit.Event.Steered
              { aid;
                time = now;
                entity;
                rule_id;
                nf;
                version = decision_version w ~admitted:cfg_version entity;
                view = steer_view w;
                mbox = mb.Mbox.Middlebox.id });
        let header =
          Netpkt.Header.with_dst
            (Netpkt.Header.with_label header (Option.get label))
            mb.Mbox.Middlebox.addr
        in
        send w ~from_router:proxy.Mbox.Proxy.router
          (Data ({ plain with Netpkt.Packet.header }, now, aid))
    end
    else tunnel_first ~rule ~label ~admitted:cfg_version
  | Some { actions = None; _ } ->
    w.counters.cache_negative_hits <- w.counters.cache_negative_hits + 1;
    audit_admit ~admission:Audit.Event.Unmatched
      ~version:(installed_version w entity) ~label:None;
    note_cache_bypass w ~proxy:proxy_id ~flow ~aid;
    send w ~from_router:proxy.Mbox.Proxy.router (Data (plain, now, aid))
  | None -> (
    w.counters.lookups <- w.counters.lookups + 1;
    match Policy.Trie.first_match w.proxy_match.(proxy_id) flow with
    | None ->
      ignore (Policy.Flow_cache.insert_negative cache ~now flow);
      audit_admit ~admission:Audit.Event.Unmatched
        ~version:(installed_version w entity) ~label:None;
      send w ~from_router:proxy.Mbox.Proxy.router (Data (plain, now, aid))
    | Some rule when Policy.Action.is_permit rule.Policy.Rule.actions ->
      ignore
        (Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
           ~actions:Policy.Action.permit ());
      audit_admit
        ~admission:(Audit.Event.Permit (Some rule.Policy.Rule.id))
        ~version:(installed_version w entity) ~label:None;
      send w ~from_router:proxy.Mbox.Proxy.router (Data (plain, now, aid))
    | Some rule ->
      let label =
        if w.cfg.label_switching then begin
          let l = w.mutable_label.(proxy_id) land Netpkt.Header.max_label in
          w.mutable_label.(proxy_id) <- l + 1;
          Stdx.Flat_table.replace w.proxy_label_index.(proxy_id) l 0 flow;
          Some l
        end
        else None
      in
      note_traffic w fs ~rule_id:rule.Policy.Rule.id;
      let admitted = installed_version w entity in
      ignore
        (Policy.Flow_cache.insert cache ~now flow ~rule_id:rule.Policy.Rule.id
           ~actions:rule.Policy.Rule.actions ?label ~cfg_version:admitted ());
      audit_admit
        ~admission:
          (Audit.Event.Chained
             { rule_id = rule.Policy.Rule.id; mode = Audit.Event.Tunnel })
        ~version:admitted ~label;
      audit_emit w (fun () ->
          Audit.Event.Cache_insert
            { proxy = proxy_id; time = now; flow; version = admitted });
      tunnel_first ~rule ~label ~admitted)

(* ---- Fault-schedule execution ----------------------------------- *)

(* A mid-run topology change: swap in the OSPF session's reconverged
   tables (and, under ECMP, equal-cost tables recomputed on the
   surviving graph).  In-flight segments already scheduled keep their
   old paths — they were committed to the wire before the change. *)
let refresh_tables w session =
  w.tables <- Ospf.Session.tables session;
  match w.ecmp_tables with
  | None -> ()
  | Some _ ->
    w.ecmp_tables <-
      Some (Netgraph.Routing.build_all_ecmp (Ospf.Session.surviving_graph session))

(* ---- Silent-corruption injection -------------------------------- *)

(* The k-th live entry of a label table, in its (stable, unseeded)
   iteration order — deterministic for a fixed mutation history, so a
   seeded index draw picks the same victim on every run. *)
let nth_label_entry t k =
  let i = ref 0 and found = ref None in
  Mbox.Label_table.iter
    (fun key entry ->
      if !i = k then found := Some (key, entry);
      incr i)
    t;
  Option.get !found

(* Rewrite one label entry's steering field to some *other* middlebox
   address — the bit-flip that silently mis-steers every later packet
   of the path.  Degenerate single-middlebox deployments have no wrong
   address to point at, so the event no-ops there. *)
let inject_label_corrupt w cs id =
  let t = w.mbox_labels.(id) in
  let n = Mbox.Label_table.length t in
  if (not (mbox_is_down w id)) && n > 0 then begin
    let key, entry = nth_label_entry t (Stdx.Rng.int cs.crng n) in
    let mboxes = w.dep.Sdm.Deployment.middleboxes in
    let current =
      match (entry.Mbox.Label_table.next, entry.Mbox.Label_table.final_dst) with
      | Some a, _ | None, Some a -> a
      | None, None -> assert false (* Label_table.insert forbids *)
    in
    let pick = Stdx.Rng.int cs.crng (Array.length mboxes) in
    let redirect =
      let a = mboxes.(pick).Mbox.Middlebox.addr in
      if a <> current then a
      else mboxes.((pick + 1) mod Array.length mboxes).Mbox.Middlebox.addr
    in
    if redirect <> current && Mbox.Label_table.unsafe_corrupt t key ~redirect
    then
      register_corruption w cs ~dev:(dev_of_mbox w id)
        ~kind:Audit.Event.Wrong_steer
        ~site:
          (Audit.Event.Label_site
             { mbox = id; src = key.Mbox.Label_table.src;
               label = key.Mbox.Label_table.label })
  end

let inject_label_drop w cs id =
  let t = w.mbox_labels.(id) in
  let n = Mbox.Label_table.length t in
  if (not (mbox_is_down w id)) && n > 0 then begin
    let key, _ = nth_label_entry t (Stdx.Rng.int cs.crng n) in
    if Mbox.Label_table.unsafe_drop t key then
      register_corruption w cs ~dev:(dev_of_mbox w id)
        ~kind:Audit.Event.Lost_entry
        ~site:
          (Audit.Event.Label_site
             { mbox = id; src = key.Mbox.Label_table.src;
               label = key.Mbox.Label_table.label })
  end

(* Poison one proxy cache entry.  Only chained (positive, non-permit)
   entries make observable victims: half the draws flip the entry to a
   bogus negative, half to an unconditional permit — either way later
   packets of the flow skip the chain their policy demands. *)
let inject_cache_poison w cs id =
  let c = w.proxy_caches.(id) in
  let victims = ref [] and n = ref 0 in
  Policy.Flow_cache.iter
    (fun flow e ->
      match e.Policy.Flow_cache.actions with
      | Some a when not (Policy.Action.is_permit a) ->
        victims := flow :: !victims;
        incr n
      | Some _ | None -> ())
    c;
  if !n > 0 then begin
    let flow = List.nth (List.rev !victims) (Stdx.Rng.int cs.crng !n) in
    let poisoned =
      if Stdx.Rng.int cs.crng 2 = 0 then
        Policy.Flow_cache.unsafe_poison_negative c flow
      else
        Policy.Flow_cache.unsafe_poison_actions c flow
          ~actions:Policy.Action.permit
    in
    if poisoned then
      register_corruption w cs ~dev:id ~kind:Audit.Event.Poisoned
        ~site:(Audit.Event.Cache_site { proxy = id; flow })
  end

(* Silently regress a device's installed version by one: the device
   keeps acking the lost version, so the ack-driven reconciliation
   loop can never notice — only the sweep's version report can.  A
   device still at version 0, or one already carrying an unrepaired
   loss, has nothing further inside the certified staged window to
   take back, so the event no-ops. *)
let inject_config_lose w cs dev =
  match w.live with
  | None -> ()
  | Some ls ->
    if ls.device_version.(dev) > 0 && not (Hashtbl.mem cs.config_sites dev)
    then begin
      ls.device_version.(dev) <- ls.device_version.(dev) - 1;
      register_corruption w cs ~dev ~kind:Audit.Event.Lost_config
        ~site:(Audit.Event.Config_site { dev })
    end

(* Re-install one entry a past config install had purged (recorded in
   the graveyard at purge time): stale steering state coming back from
   the dead after the partition heals.  If the key is live again the
   resurrection loses the race and no-ops. *)
let inject_stale_resurrect w cs id =
  if not (mbox_is_down w id) then
    match cs.graveyard.(id) with
    | [] -> ()
    | g ->
      let k = Stdx.Rng.int cs.crng (List.length g) in
      let key, entry = List.nth g k in
      cs.graveyard.(id) <- List.filteri (fun i _ -> i <> k) g;
      if Mbox.Label_table.unsafe_resurrect w.mbox_labels.(id) key entry then
        register_corruption w cs ~dev:(dev_of_mbox w id)
          ~kind:Audit.Event.Resurrected
          ~site:
            (Audit.Event.Label_site
               { mbox = id; src = key.Mbox.Label_table.src;
                 label = key.Mbox.Label_table.label })

let apply_fault w f what =
  let now = Dess.Engine.now w.engine in
  match what with
  | Fault.Schedule.Mbox_crash id ->
    Fault.Detector.crash f.detector ~now id;
    (* A crash loses the box's soft state: its flow cache and label
       table come back empty if the box ever recovers.  Any injected
       soft-state corruption living there dies with it — repair by
       destruction, which the registry must record or the Repair
       invariant would demand fixing state that no longer exists. *)
    w.mbox_caches.(id) <-
      Policy.Flow_cache.create ~timeout:w.cfg.cache_timeout
        ?capacity:w.cfg.cache_capacity ();
    w.mbox_labels.(id) <-
      Mbox.Label_table.create ~timeout:w.cfg.label_timeout ();
    w.busy_until.(id) <- now;
    (match f.corrupt with
    | None -> ()
    | Some cs ->
      let dev = dev_of_mbox w id in
      Hashtbl.iter
        (fun _ r ->
          match r.cr_site with
          | Audit.Event.Label_site { mbox; _ }
            when mbox = id && not r.cr_repaired ->
            resolve_corruption w cs ~dev ~action:Audit.Event.Purged r
          | _ -> ())
        cs.records)
  | Fault.Schedule.Mbox_recover id -> Fault.Detector.recover f.detector ~now id
  | Fault.Schedule.Link_fail (u, v) -> (
    match f.session with
    | Some s ->
      Ospf.Session.fail_link s u v;
      refresh_tables w s
    | None -> assert false (* session exists iff the schedule has link events *))
  | Fault.Schedule.Link_restore (u, v) -> (
    match f.session with
    | Some s ->
      Ospf.Session.recover_link s u v;
      refresh_tables w s
    | None -> assert false)
  | Fault.Schedule.Ctrl_crash id -> (
    (* The replica's in-flight chains die via their [replica_up] and
       leadership guards; its acceptor state is durable.  Re-election
       happens one detection delay later (scheduled alongside the
       fault), not here. *)
    match w.live with
    | Some ls when id < Array.length ls.replica_up ->
      ls.replica_up.(id) <- false
    | _ -> ())
  | Fault.Schedule.Ctrl_recover id -> (
    (* Recovery is quiet: the replica rejoins as a standby (stable
       leadership — no failback) and resumes voting from its durable
       acceptor state. *)
    match w.live with
    | Some ls when id < Array.length ls.replica_up ->
      ls.replica_up.(id) <- true
    | _ -> ())
  (* Silent state corruption: each event draws its victim from the
     corruption RNG (a derived child of the loss stream, so the loss
     draws are unperturbed) and registers the ground truth with the
     auditor.  Without a [corrupt] state (no corruption events in the
     schedule) these arms are unreachable. *)
  | Fault.Schedule.Label_corrupt id -> (
    match f.corrupt with
    | Some cs -> inject_label_corrupt w cs id
    | None -> ())
  | Fault.Schedule.Label_drop id -> (
    match f.corrupt with
    | Some cs -> inject_label_drop w cs id
    | None -> ())
  | Fault.Schedule.Cache_poison id -> (
    match f.corrupt with
    | Some cs -> inject_cache_poison w cs id
    | None -> ())
  | Fault.Schedule.Config_lose dev -> (
    match f.corrupt with
    | Some cs -> inject_config_lose w cs dev
    | None -> ())
  | Fault.Schedule.Stale_resurrect id -> (
    match f.corrupt with
    | Some cs -> inject_stale_resurrect w cs id
    | None -> ())

(* ---- Live control plane ----------------------------------------- *)

(* Hop count from the controller's attachment router to a device,
   walking the *current* routing tables (so a partition shows up as
   None, and a reconverged detour is priced at its real length).
   Control traffic rides shortest paths even under ECMP — per-packet
   spraying buys nothing for a unicast config push. *)
let route_hops w ~from ~target =
  if from = target then Some 0
  else begin
    let n = Array.length w.tables in
    let rec go r acc =
      if r = target then Some acc
      else if acc > n then None (* routing loop guard *)
      else
        match Netgraph.Routing.next_hop w.tables.(r) target with
        | None -> None
        | Some h -> go h (acc + 1)
    in
    go from 0
  end

(* A device installs a configuration version: monotone, idempotent
   (duplicate deliveries from retried pushes are harmless).  The
   config store survives crashes — unlike the soft flow state — so a
   recovering box resumes from whatever version it last installed.
   On install, a middlebox purges label entries more than one version
   old: only the adjacent version stays staged, which is exactly the
   mix Verify.check_mixed certified before the push went out. *)
let install_config w ls ~dev ~version =
  if version > ls.device_version.(dev) then begin
    ls.device_version.(dev) <- version;
    audit_emit w (fun () ->
        Audit.Event.Config_install
          { dev; time = Dess.Engine.now w.engine; version });
    (match dev_entity w dev with
    | Mbox.Entity.Middlebox id ->
      (* When the schedule can resurrect stale entries, remember what
         this install is about to purge — the resurrection pool is
         exactly the state that legitimately died here. *)
      (match corrupt_of w with
      | Some cs when cs.want_graveyard ->
        Mbox.Label_table.iter
          (fun key e ->
            if e.Mbox.Label_table.version < version - 1 then
              cs.graveyard.(id) <- (key, e) :: cs.graveyard.(id))
          w.mbox_labels.(id)
      | _ -> ());
      ignore
        (Mbox.Label_table.purge_versions_below w.mbox_labels.(id)
           ~version:(version - 1))
    | Mbox.Entity.Proxy _ -> ());
    (* A fresh install heals a silently regressed device: the device
       is back on a published version at least as new as the one the
       loss took back. *)
    match corrupt_of w with
    | Some cs -> (
      match Hashtbl.find_opt cs.config_sites dev with
      | Some cid ->
        resolve_cid w cs ~cid ~dev ~action:(Audit.Event.Reinstalled version)
      | None -> ())
    | None -> ()
  end

(* Push one version to one device: per-device ack/retry with
   exponential backoff over the lossy control channel.  Like the label
   control machinery, the retransmission timer is modelled as firing
   only when a transmission (config or ack leg) was actually lost —
   receivers are idempotent, so suppressing the redundant duplicates a
   real timer would also generate is observationally equivalent.  A
   chain whose version has been superseded, or whose device has
   meanwhile acked, dies silently; the reconciliation loop is the
   backstop once retries are exhausted. *)
let rec push_config w ls ~dev ~version ~attempt =
  if
    version = ls.latest
    && ls.device_acked.(dev) < version
    && ls.replica_up.(ls.leader)
  then begin
    let entity = dev_entity w dev in
    let target = Sdm.Deployment.entity_router w.dep entity in
    match route_hops w ~from:ls.replica_router.(ls.leader) ~target with
    | None ->
      (* The controller is partitioned from the device: no retry timer
         helps until routing heals.  The device keeps its last-known-
         good configuration; reconciliation re-pushes later. *)
      w.counters.cfg_degraded <- w.counters.cfg_degraded + 1
    | Some h ->
      w.counters.cfg_pushes <- w.counters.cfg_pushes + 1;
      w.counters.cfg_bytes <-
        w.counters.cfg_bytes
        + Controlplane.entity_bytes ls.configs.(version) entity;
      let one_way = float_of_int (h + 1) *. w.cfg.link_delay in
      let retry () =
        if attempt < ls.lcfg.push_max_retries then begin
          w.entity_ctrl_retries.(dev) <- w.entity_ctrl_retries.(dev) + 1;
          let delay = push_backoff_delay ls.lcfg ~attempt in
          ignore
            (Dess.Engine.schedule w.engine ~delay (fun _ ->
                 push_config w ls ~dev ~version ~attempt:(attempt + 1)))
        end
      in
      let fwd_lost = control_loss_draw w in
      let target_down =
        match entity with
        | Mbox.Entity.Middlebox id -> mbox_is_down w id
        | Mbox.Entity.Proxy _ -> false
      in
      if fwd_lost || target_down then begin
        w.counters.cfg_lost <- w.counters.cfg_lost + 1;
        w.entity_ctrl_lost.(dev) <- w.entity_ctrl_lost.(dev) + 1;
        retry ()
      end
      else begin
        ignore
          (Dess.Engine.schedule w.engine ~delay:one_way (fun _ ->
               install_config w ls ~dev ~version));
        let ack_lost = control_loss_draw w in
        if ack_lost then begin
          w.counters.cfg_lost <- w.counters.cfg_lost + 1;
          w.entity_ctrl_lost.(dev) <- w.entity_ctrl_lost.(dev) + 1;
          retry ()
        end
        else
          ignore
            (Dess.Engine.schedule w.engine ~delay:(2.0 *. one_way) (fun _ ->
                 if version > ls.device_acked.(dev) then begin
                   ls.device_acked.(dev) <- version;
                   w.counters.cfg_acks <- w.counters.cfg_acks + 1
                 end))
      end
  end

(* ---- Anti-entropy sweep ------------------------------------------ *)

(* Wire cost of the sweep protocol: an 8-byte digest query down, a
   24-byte report back (digest, installed version, entry count). *)
let sweep_query_bytes = 8
let sweep_reply_bytes = 24

(* The device-side half of a sweep visit: compare the incrementally
   maintained digest against a fresh walk of the table.  On mismatch,
   scrub — purge entries whose checksum disagrees with their payload
   (bit flips, poisonings) or whose version fell out of the staged
   window (resurrections), and rebase the digest so silently dropped
   entries stop haunting it.  Each purged site's corruption is
   resolved; whatever registered corruption remains at this device
   afterwards no longer has any state to find (expired, evicted, or
   crashed away) and is retired as rebased. *)
let sweep_check w ~dev =
  match corrupt_of w with
  | None -> ()
  | Some cs ->
    let detect () =
      w.counters.corrupt_detected <- w.counters.corrupt_detected + 1;
      audit_emit w (fun () ->
          Audit.Event.Corrupt_detect { time = Dess.Engine.now w.engine; dev })
    in
    (match dev_entity w dev with
    | Mbox.Entity.Proxy i ->
      let c = w.proxy_caches.(i) in
      if
        not
          (Int64.equal (Policy.Flow_cache.digest c)
             (Policy.Flow_cache.recompute_digest c))
      then begin
        detect ();
        List.iter
          (fun flow ->
            match Hashtbl.find_opt cs.cache_sites (i, flow) with
            | Some cid ->
              resolve_cid w cs ~cid ~dev ~action:Audit.Event.Purged
            | None -> ())
          (Policy.Flow_cache.scrub c)
      end
    | Mbox.Entity.Middlebox id ->
      if not (mbox_is_down w id) then begin
        let t = w.mbox_labels.(id) in
        if
          not
            (Int64.equal (Mbox.Label_table.digest t)
               (Mbox.Label_table.recompute_digest t))
        then begin
          detect ();
          let floor =
            match w.live with
            | Some ls -> ls.device_version.(dev) - 1
            | None -> 0
          in
          List.iter
            (fun (key : Mbox.Label_table.key) ->
              match
                Hashtbl.find_opt cs.label_sites (id, key.src, key.label)
              with
              | Some cid ->
                resolve_cid w cs ~cid ~dev ~action:Audit.Event.Purged
              | None -> ())
            (Mbox.Label_table.scrub t ~version_floor:floor)
        end
      end);
    Hashtbl.iter
      (fun _ r ->
        if r.cr_dev = dev && not r.cr_repaired then
          match r.cr_site with
          | Audit.Event.Config_site _ -> () (* repaired by re-install only *)
          | Audit.Event.Label_site { mbox; src; label } ->
            Mbox.Label_table.remove w.mbox_labels.(mbox)
              { Mbox.Label_table.src; label };
            resolve_corruption w cs ~dev ~action:Audit.Event.Rebased r
          | Audit.Event.Cache_site _ ->
            resolve_corruption w cs ~dev ~action:Audit.Event.Rebased r)
      cs.records

(* The report half of a sweep visit, back at the controller: a device
   whose installed version trails the latest published one is re-pushed
   — crucially *resetting its ack watermark first*, because a silently
   lost install left the stale ack in place and the ack-driven
   reconciliation loop trusts it. *)
let sweep_reply w ls ~dev =
  let v = ls.device_version.(dev) in
  if v < ls.latest && ls.replica_up.(ls.leader) then begin
    if ls.device_acked.(dev) > v then ls.device_acked.(dev) <- v;
    push_config w ls ~dev ~version:ls.latest ~attempt:0
  end

(* Visit one device: query and report ride the same lossy control
   channel as config pushes, with the same capped-backoff retry
   ladder.  The query reaching the device is what triggers the local
   scrub; losing only the report costs the version check, not the
   repair of soft state. *)
let rec sweep_device w ls ~dev ~attempt =
  if ls.replica_up.(ls.leader) then begin
    let entity = dev_entity w dev in
    let target = Sdm.Deployment.entity_router w.dep entity in
    match route_hops w ~from:ls.replica_router.(ls.leader) ~target with
    | None ->
      (* Partitioned: no retry timer helps until routing heals; the
         next round revisits. *)
      w.counters.cfg_degraded <- w.counters.cfg_degraded + 1
    | Some h ->
      let one_way = float_of_int (h + 1) *. w.cfg.link_delay in
      let retry () =
        if attempt < ls.lcfg.push_max_retries then begin
          w.entity_ctrl_retries.(dev) <- w.entity_ctrl_retries.(dev) + 1;
          ignore
            (Dess.Engine.schedule w.engine
               ~delay:(push_backoff_delay ls.lcfg ~attempt) (fun _ ->
                 sweep_device w ls ~dev ~attempt:(attempt + 1)))
        end
      in
      w.counters.sweep_msgs <- w.counters.sweep_msgs + 1;
      w.counters.sweep_bytes <- w.counters.sweep_bytes + sweep_query_bytes;
      let target_down =
        match entity with
        | Mbox.Entity.Middlebox id -> mbox_is_down w id
        | Mbox.Entity.Proxy _ -> false
      in
      if control_loss_draw w || target_down then begin
        w.counters.sweep_lost <- w.counters.sweep_lost + 1;
        w.entity_ctrl_lost.(dev) <- w.entity_ctrl_lost.(dev) + 1;
        retry ()
      end
      else begin
        ignore
          (Dess.Engine.schedule w.engine ~delay:one_way (fun _ ->
               sweep_check w ~dev));
        w.counters.sweep_msgs <- w.counters.sweep_msgs + 1;
        w.counters.sweep_bytes <- w.counters.sweep_bytes + sweep_reply_bytes;
        if control_loss_draw w then begin
          w.counters.sweep_lost <- w.counters.sweep_lost + 1;
          w.entity_ctrl_lost.(dev) <- w.entity_ctrl_lost.(dev) + 1;
          retry ()
        end
        else
          ignore
            (Dess.Engine.schedule w.engine ~delay:(2.0 *. one_way) (fun _ ->
                 sweep_reply w ls ~dev))
      end
  end

(* One anti-entropy round: visit every device, then re-arm.  The loop
   keeps ticking through the traffic window and until every registered
   corruption is repaired, with the same generous round cap the
   reconciliation loop uses as its safety valve. *)
let rec sweep_round w ls ~period =
  if ls.replica_up.(ls.leader) then begin
    w.counters.sweep_rounds <- w.counters.sweep_rounds + 1;
    for dev = 0 to n_devices w - 1 do
      sweep_device w ls ~dev ~attempt:0
    done
  end;
  let outstanding =
    match corrupt_of w with
    | None -> false
    | Some cs ->
      Hashtbl.fold
        (fun _ r acc -> acc || not r.cr_repaired)
        cs.records false
  in
  let now = Dess.Engine.now w.engine in
  if (now < ls.horizon || outstanding) && w.counters.sweep_rounds < 10_000 then
    ignore
      (Dess.Engine.schedule w.engine ~delay:period (fun _ ->
           sweep_round w ls ~period))

(* ---- Quorum rounds (replicated controller) ----------------------- *)

let quorum_n ls = Array.length ls.replica_up

(* Publish a committed configuration: append it to the staged window,
   bump the shared version, emit the audit events, and push to every
   device from the leader's router.  Only [maybe_commit] calls this —
   the quorum commit is the single gate into the staged window. *)
let publish_committed w ls next =
  ls.configs <- Array.append ls.configs [| next |];
  ls.latest <- ls.latest + 1;
  w.counters.reopts <- w.counters.reopts + 1;
  (match w.audit with
  | None -> ()
  | Some a ->
    Audit.Checker.register_config a ~version:ls.latest next;
    Audit.Checker.record a
      (Audit.Event.Config_publish
         { time = Dess.Engine.now w.engine; version = ls.latest }));
  for dev = 0 to n_devices w - 1 do
    push_config w ls ~dev ~version:ls.latest ~attempt:0
  done

(* Spread a commit to one standby replica over the same lossy control
   channel the config pushes ride, with the same capped-backoff retry
   ladder.  [Acceptor.commit] is idempotent, so duplicates from retries
   are harmless; a partitioned or crashed standby simply stays at its
   last-known-good commit until the reconciliation of a later round
   reaches it. *)
let rec commit_notice w ls ~replica ~version ~digest ~attempt =
  if
    ls.replica_up.(ls.leader)
    && Quorum.Acceptor.committed ls.acceptors.(replica) < version
  then begin
    match
      route_hops w ~from:ls.replica_router.(ls.leader)
        ~target:ls.replica_router.(replica)
    with
    | None -> () (* partitioned: no retry timer helps until routing heals *)
    | Some h ->
      w.counters.q_msgs <- w.counters.q_msgs + 1;
      let one_way = float_of_int (h + 1) *. w.cfg.link_delay in
      let retry () =
        if attempt < ls.lcfg.push_max_retries then
          ignore
            (Dess.Engine.schedule w.engine
               ~delay:(push_backoff_delay ls.lcfg ~attempt) (fun _ ->
                 commit_notice w ls ~replica ~version ~digest
                   ~attempt:(attempt + 1)))
      in
      if control_loss_draw w || not ls.replica_up.(replica) then begin
        w.counters.q_lost <- w.counters.q_lost + 1;
        retry ()
      end
      else
        ignore
          (Dess.Engine.schedule w.engine ~delay:one_way (fun _ ->
               if
                 ls.replica_up.(replica)
                 && Quorum.Acceptor.committed ls.acceptors.(replica) < version
               then
                 match
                   Quorum.Acceptor.commit ls.acceptors.(replica) ~version
                     ~digest
                 with
                 | Ok () ->
                   audit_emit w (fun () ->
                       Audit.Event.Quorum_commit
                         {
                           time = Dess.Engine.now w.engine;
                           version;
                           replica;
                           digest;
                         })
                 | Error _ -> ()))
  end

(* Commit as soon as the votes form a quorum: the leader commits its
   own acceptor, publishes the pending candidate, and spreads the
   commit to the standbys.  With one replica this runs synchronously
   inside the proposal — no quorum traffic ever hits the wire. *)
let maybe_commit w ls r =
  if Quorum.Round.outcome r = Quorum.Round.Pending && Quorum.Round.has_quorum r
  then begin
    Quorum.Round.mark_committed r;
    let version = Quorum.Round.version r in
    let digest = Quorum.Round.digest r in
    w.counters.q_commits <- w.counters.q_commits + 1;
    ignore (Quorum.Acceptor.commit ls.acceptors.(ls.leader) ~version ~digest);
    audit_emit w (fun () ->
        Audit.Event.Quorum_commit
          { time = Dess.Engine.now w.engine; version; replica = ls.leader; digest });
    (match ls.pending with
    | Some next ->
      ls.pending <- None;
      publish_committed w ls next
    | None -> ());
    for i = 0 to quorum_n ls - 1 do
      if i <> ls.leader then
        commit_notice w ls ~replica:i ~version ~digest ~attempt:0
    done
  end

(* The minority-side rule: once the reachable votes can no longer form
   a quorum, the round is dead and the candidate is discarded — the
   control plane refuses to publish and degrades to last-known-good. *)
let abandon_if_dead w ls r =
  if
    Quorum.Round.outcome r = Quorum.Round.Pending
    && not (Quorum.Round.can_reach_quorum r)
  then begin
    Quorum.Round.mark_abandoned r;
    w.counters.q_aborts <- w.counters.q_aborts + 1;
    w.counters.cfg_degraded <- w.counters.cfg_degraded + 1;
    ls.pending <- None
  end

(* Propose the round's candidate to one standby acceptor: proposal out,
   vote back, both legs over the lossy control channel with the capped
   retry ladder (mirrors [push_config]'s fwd/ack structure).  A refusal
   or exhausted retries loses this acceptor's vote for the round; a
   partition loses it immediately. *)
let rec propose_to w ls r ~replica ~attempt =
  if Quorum.Round.outcome r = Quorum.Round.Pending && ls.replica_up.(ls.leader)
  then begin
    let version = Quorum.Round.version r in
    let digest = Quorum.Round.digest r in
    let retry () =
      if attempt < ls.lcfg.push_max_retries then
        ignore
          (Dess.Engine.schedule w.engine
             ~delay:(push_backoff_delay ls.lcfg ~attempt) (fun _ ->
               propose_to w ls r ~replica ~attempt:(attempt + 1)))
      else begin
        Quorum.Round.fail r ~acceptor:replica;
        abandon_if_dead w ls r
      end
    in
    match
      route_hops w ~from:ls.replica_router.(ls.leader)
        ~target:ls.replica_router.(replica)
    with
    | None ->
      (* Partitioned from this acceptor: its vote is lost to the round
         (no retry timer helps until routing heals, and the round will
         long be superseded by then). *)
      Quorum.Round.fail r ~acceptor:replica;
      abandon_if_dead w ls r
    | Some h ->
      w.counters.q_msgs <- w.counters.q_msgs + 1;
      let one_way = float_of_int (h + 1) *. w.cfg.link_delay in
      let fwd_lost = control_loss_draw w in
      if fwd_lost || not ls.replica_up.(replica) then begin
        w.counters.q_lost <- w.counters.q_lost + 1;
        retry ()
      end
      else begin
        (* The proposal arrives after one_way; the acceptor's verdict
           rides back over the same lossy channel. *)
        let verdict = ref None in
        ignore
          (Dess.Engine.schedule w.engine ~delay:one_way (fun _ ->
               if ls.replica_up.(replica) then begin
                 let v =
                   Quorum.Acceptor.receive ls.acceptors.(replica) ~version
                     ~digest
                 in
                 (match v with
                 | Quorum.Acceptor.Accept ->
                   audit_emit w (fun () ->
                       Audit.Event.Quorum_accept
                         {
                           time = Dess.Engine.now w.engine;
                           version;
                           replica;
                           digest;
                         })
                 | Repeat | Stale | Conflict -> ());
                 verdict := Some v
               end));
        w.counters.q_msgs <- w.counters.q_msgs + 1;
        let vote_lost = control_loss_draw w in
        if vote_lost then begin
          w.counters.q_lost <- w.counters.q_lost + 1;
          (* The leader re-sends the whole proposal; acceptance is
             idempotent, so the duplicate is harmless. *)
          retry ()
        end
        else
          ignore
            (Dess.Engine.schedule w.engine ~delay:(2.0 *. one_way) (fun _ ->
                 match !verdict with
                 | Some (Quorum.Acceptor.Accept | Quorum.Acceptor.Repeat)
                   when Quorum.Round.outcome r = Quorum.Round.Pending ->
                   Quorum.Round.accept r ~acceptor:replica;
                   maybe_commit w ls r
                 | Some (Quorum.Acceptor.Stale | Quorum.Acceptor.Conflict) ->
                   Quorum.Round.fail r ~acceptor:replica;
                   abandon_if_dead w ls r
                 | None ->
                   (* the replica crashed while the proposal was in
                      flight — no vote will come; keep retrying *)
                   retry ()
                 | Some _ -> ()))
      end
  end

(* Re-optimize from what the run has measured: rebuild candidate sets
   around the believed-failed boxes, re-solve the LP over the in-run
   traffic matrix, and submit the result to a quorum round — the
   candidate is published as a new version only once a quorum of
   replicas accepted it, and only after Verify certified both the new
   configuration alone and every reachable version mix with the
   still-installed previous one.  A failed solve, a verification veto,
   or a dead round keeps the last-known-good configuration (graceful
   degradation, counted). *)
let reoptimize w ls =
  let now = Dess.Engine.now w.engine in
  if ls.replica_up.(ls.leader) then begin
    let failed =
      match w.fault with
      | Some f -> Fault.Detector.believed_failed f.detector ~now
      | None -> []
    in
    let current = ls.configs.(ls.latest) in
    match
      Sdm.Controller.reoptimize current ~failed
        ~use_warm:ls.lcfg.warm_start ~traffic:ls.meas ()
    with
    | Error _ -> w.counters.cfg_degraded <- w.counters.cfg_degraded + 1
    | Ok next -> (
      (* Solver-work accounting happens whether or not verification or
         the quorum later vetoes the plan — the pivots were spent. *)
      (match next.Sdm.Controller.lp with
      | Some lp ->
        w.counters.reopt_pivots <-
          w.counters.reopt_pivots + lp.Sdm.Lp_formulation.lp_pivots;
        w.counters.reopt_phase1 <-
          w.counters.reopt_phase1 + lp.Sdm.Lp_formulation.lp_phase1_pivots;
        if lp.Sdm.Lp_formulation.lp_warm_used then
          w.counters.reopt_warm <- w.counters.reopt_warm + 1;
        if lp.Sdm.Lp_formulation.lp_fallback then
          w.counters.reopt_fallback <- w.counters.reopt_fallback + 1
      | None -> ());
      match
        match Sdm.Verify.check next with
        | Error _ as e -> e
        | Ok () -> Sdm.Verify.check_window [ current; next ]
      with
      | Error _ -> w.counters.cfg_degraded <- w.counters.cfg_degraded + 1
      | Ok () ->
        (* A fresher candidate supersedes any round still in flight. *)
        (match ls.round with
        | Some r when Quorum.Round.outcome r = Quorum.Round.Pending ->
          Quorum.Round.mark_abandoned r;
          w.counters.q_aborts <- w.counters.q_aborts + 1
        | _ -> ());
        let version = ls.latest + 1 in
        (* Structural digest of the candidate, salted with the version
           so re-proposals of distinct candidates under one version
           number stay distinguishable to the auditor. *)
        let digest =
          Int64.logxor
            (Sdm.Controller.fingerprint next)
            (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int version))
        in
        let r =
          Quorum.Round.start ls.lcfg.quorum ~n:(quorum_n ls) ~version ~digest
        in
        ls.round <- Some r;
        ls.pending <- Some next;
        w.counters.q_rounds <- w.counters.q_rounds + 1;
        audit_emit w (fun () ->
            Audit.Event.Quorum_propose
              { time = now; version; replica = ls.leader; digest });
        (* The leader votes for its own proposal locally — no message,
           no loss draw. *)
        (match
           Quorum.Acceptor.receive ls.acceptors.(ls.leader) ~version ~digest
         with
        | Quorum.Acceptor.Accept ->
          Quorum.Round.accept r ~acceptor:ls.leader;
          audit_emit w (fun () ->
              Audit.Event.Quorum_accept
                { time = now; version; replica = ls.leader; digest })
        | Repeat -> Quorum.Round.accept r ~acceptor:ls.leader
        | Stale | Conflict -> Quorum.Round.fail r ~acceptor:ls.leader);
        maybe_commit w ls r;
        if Quorum.Round.outcome r = Quorum.Round.Pending then
          for i = 0 to quorum_n ls - 1 do
            if i <> ls.leader then propose_to w ls r ~replica:i ~attempt:0
          done)
  end

(* A detection delay after a controller crash: if the dead replica led,
   the lowest-id live replica takes over — deterministic re-election —
   and immediately re-optimizes, re-doing whatever in-flight work died
   with the old leader. *)
let handle_ctrl_crash w ls crashed =
  if ls.leader = crashed && not ls.replica_up.(crashed) then begin
    let n = quorum_n ls in
    let rec first i =
      if i >= n then None
      else if ls.replica_up.(i) then Some i
      else first (i + 1)
    in
    match first 0 with
    | None -> () (* total control-plane outage: devices keep running *)
    | Some nl ->
      let prev = ls.leader in
      ls.leader <- nl;
      w.counters.elections <- w.counters.elections + 1;
      audit_emit w (fun () ->
          Audit.Event.Leader_elect
            { time = Dess.Engine.now w.engine; replica = nl; previous = prev });
      if Sdm.Measurement.total ls.meas > 0.0 then reoptimize w ls
  end

(* The reconciliation loop: periodically re-push the latest version to
   every device whose ack is missing, however its retry chain died
   (loss burst, crash window, partition).  Keeps ticking through the
   traffic window and until every device has acked, with a generous
   round cap as the safety valve against a permanently partitioned
   device. *)
let rec reconcile w ls =
  ls.reconcile_rounds <- ls.reconcile_rounds + 1;
  let stale = ref false in
  Array.iteri
    (fun dev acked ->
      if acked < ls.latest then begin
        stale := true;
        push_config w ls ~dev ~version:ls.latest ~attempt:0
      end)
    ls.device_acked;
  let now = Dess.Engine.now w.engine in
  if (!stale || now < ls.horizon) && ls.reconcile_rounds < 10_000 then
    ignore
      (Dess.Engine.schedule w.engine ~delay:ls.lcfg.reconcile_interval
         (fun _ -> reconcile w ls))

let run ?(config = default_config) ~controller ~workload () =
  let dep = controller.Sdm.Controller.deployment in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let n_mboxes = Array.length dep.Sdm.Deployment.middleboxes in
  (* Reject a schedule that does not fit this deployment up front,
     instead of letting it silently no-op or blow up mid-run. *)
  (match config.faults with
  | None -> ()
  | Some schedule -> (
    let g = dep.Sdm.Deployment.topo.Netgraph.Topology.graph in
    match
      Fault.Schedule.validate
        ~n_controllers:
          (match config.live with Some l -> l.replicas | None -> 0)
        ~n_proxies ~n_mboxes
        ~link_exists:(fun u v -> Netgraph.Graph.has_edge g u v)
        schedule
    with
    | Ok () -> ()
    | Error e -> invalid_arg ("Pktsim.run: invalid fault schedule: " ^ e)));
  (match config.live with
  | None -> ()
  | Some l ->
    (* NaN-safe: [finite_pos] rejects non-finite intervals outright
       ([<= 0.0] would let a NaN through).  The cap may be [infinity]
       (an uncapped ladder) but never NaN or below the base. *)
    let finite_pos x = Float.is_finite x && x > 0.0 in
    if
      (not (finite_pos l.epoch_interval))
      || (not (finite_pos l.reconcile_interval))
      || (not (finite_pos l.push_backoff))
      || Float.is_nan l.push_backoff_cap
      || l.push_backoff_cap < l.push_backoff
      || l.push_max_retries < 0
      || (match l.sweep_period with
         | Some p -> not (finite_pos p)
         | None -> false)
    then invalid_arg "Pktsim.run: invalid live-control-plane config";
    if l.replicas < 1 then
      invalid_arg "Pktsim.run: replicas must be >= 1";
    (match Quorum.validate l.quorum ~n:l.replicas with
    | Ok () -> ()
    | Error e -> invalid_arg ("Pktsim.run: invalid quorum family: " ^ e));
    match l.replica_routers with
    | None -> ()
    | Some rs ->
      let n_routers =
        Netgraph.Graph.node_count
          dep.Sdm.Deployment.topo.Netgraph.Topology.graph
      in
      if
        List.length rs <> l.replicas
        || List.exists (fun r -> r < 0 || r >= n_routers) rs
        || List.length (List.sort_uniq compare rs) <> l.replicas
      then invalid_arg "Pktsim.run: invalid replica routers");
  if config.shards < 1 then invalid_arg "Pktsim.run: shards must be >= 1";
  let engine = Dess.Engine.create () in
  let n_flows = Array.length workload.Workload.flows in
  (* Capacity hints from the deployment and flow counts instead of a
     blanket 64: the tables reach these sizes on every large run, so
     sizing them up front removes the rehash churn on the hot path.
     A hint never changes behaviour, only when Hashtbl grows. *)
  let mbox_index = Hashtbl.create (max 16 n_mboxes) in
  Array.iter
    (fun (m : Mbox.Middlebox.t) -> Hashtbl.replace mbox_index m.addr m.id)
    dep.Sdm.Deployment.middleboxes;
  let rule_by_id =
    Hashtbl.create (max 16 (List.length controller.Sdm.Controller.rules))
  in
  List.iter
    (fun r -> Hashtbl.replace rule_by_id r.Policy.Rule.id r)
    controller.Sdm.Controller.rules;
  (* Expected live entries per flow table: flows spread across the
     proxies (plus chain fan-in on middleboxes, where each flow visits
     two or three boxes). *)
  let proxy_flow_hint = max 64 (n_flows / max 1 n_proxies) in
  let mbox_flow_hint = max 64 (3 * n_flows / max 1 n_mboxes) in
  let entity_table entity =
    Policy.Trie.build (Sdm.Controller.policy_table_for controller entity)
  in
  (* The shardable setup phases: per-entity policy-trie builds and the
     per-source routing tables are pure functions of the immutable
     controller/topology, so [config.shards > 1] evaluates them on the
     domain pool.  Results are positional ({!Stdx.Domain_pool.map}),
     so the constructed state — and therefore the whole run, whose
     event loop is inherently sequential — is bit-identical for every
     shard count. *)
  let setup_init n f =
    if config.shards = 1 then Array.init n f
    else
      Stdx.Domain_pool.map
        ~jobs:(min config.shards (Stdx.Domain_pool.default_jobs ()))
        f
        (Array.init n Fun.id)
  in
  let fault =
    match config.faults with
    | None -> None
    | Some schedule ->
      let session =
        (* Only pay for a live OSPF session when links actually change
           mid-run; pure middlebox faults leave routing alone. *)
        if Fault.Schedule.has_link_events schedule then
          Some (Ospf.Session.start dep.Sdm.Deployment.topo)
        else None
      in
      (* The corruption RNG is a *derived child* of the loss stream's
         seed: drawing victims never advances the loss RNG, so the
         loss/ack draw sequence — and with it every schedule without
         corruption events — is bit-identical to before. *)
      let corrupt =
        if Fault.Schedule.has_corruption_events schedule then
          Some
            {
              crng =
                Stdx.Rng.derive
                  (Stdx.Rng.create schedule.Fault.Schedule.loss_seed)
                  1;
              next_cid = 0;
              records = Hashtbl.create 64;
              label_sites = Hashtbl.create 64;
              cache_sites = Hashtbl.create 64;
              config_sites = Hashtbl.create 16;
              graveyard = Array.make n_mboxes [];
              want_graveyard =
                List.exists
                  (fun { Fault.Schedule.what; _ } ->
                    match what with
                    | Fault.Schedule.Stale_resurrect _ -> true
                    | _ -> false)
                  schedule.Fault.Schedule.events;
            }
        else None
      in
      Some
        {
          detector =
            Fault.Detector.create ~n:n_mboxes ~delay:config.detection_delay;
          schedule;
          loss_rng = Stdx.Rng.create schedule.Fault.Schedule.loss_seed;
          session;
          corrupt;
        }
  in
  let w =
    {
      cfg = config;
      controller;
      dep;
      engine;
      tables =
        (* One Dijkstra per source router, sharded like the trie builds;
           live link failures reconverge through [fault.session]. *)
        (let g = dep.Sdm.Deployment.topo.Netgraph.Topology.graph in
         setup_init (Netgraph.Graph.node_count g) (fun u ->
             Netgraph.Routing.table_for g u));
      ecmp_tables =
        (if config.ecmp then
           Some
             (Netgraph.Routing.build_all_ecmp
                dep.Sdm.Deployment.topo.Netgraph.Topology.graph)
         else None);
      counters =
        {
          injected = 0;
          delivered = 0;
          dropped = 0;
          control = 0;
          lookups = 0;
          cache_hits = 0;
          cache_negative_hits = 0;
          tunneled = 0;
          label_switched = 0;
          fragments = 0;
          hops = 0;
          label_misses = 0;
          teardowns = 0;
          wp_served = 0;
          violations = 0;
          fault_dropped = 0;
          retries = 0;
          ctrl_lost = 0;
          last_violation = 0.0;
          cfg_pushes = 0;
          cfg_acks = 0;
          cfg_lost = 0;
          cfg_bytes = 0;
          reopts = 0;
          cfg_degraded = 0;
          q_rounds = 0;
          q_commits = 0;
          q_aborts = 0;
          q_msgs = 0;
          q_lost = 0;
          elections = 0;
          corrupt_injected = 0;
          corrupt_manifested = 0;
          corrupt_detected = 0;
          corrupt_repaired = 0;
          sweep_rounds = 0;
          sweep_msgs = 0;
          sweep_lost = 0;
          sweep_bytes = 0;
          repair_sum = 0.0;
          repair_max = 0.0;
          reopt_pivots = 0;
          reopt_phase1 = 0;
          reopt_warm = 0;
          reopt_fallback = 0;
        };
      entity_ctrl_retries = Array.make (n_proxies + n_mboxes) 0;
      entity_ctrl_lost = Array.make (n_proxies + n_mboxes) 0;
      latencies = Stdx.Fvec.create ();
      busy_until = Array.make n_mboxes 0.0;
      loads = Array.make n_mboxes 0.0;
      proxy_caches =
        Array.init n_proxies (fun _ ->
            Policy.Flow_cache.create ~timeout:config.cache_timeout
              ?capacity:config.cache_capacity ~expected:proxy_flow_hint ());
      proxy_match = setup_init n_proxies (fun i -> entity_table (Mbox.Entity.Proxy i));
      mutable_label = Array.make n_proxies 0;
      mbox_caches =
        Array.init n_mboxes (fun _ ->
            Policy.Flow_cache.create ~timeout:config.cache_timeout
              ?capacity:config.cache_capacity ~expected:mbox_flow_hint ());
      mbox_match =
        setup_init n_mboxes (fun i -> entity_table (Mbox.Entity.Middlebox i));
      mbox_labels =
        Array.init n_mboxes (fun _ ->
            Mbox.Label_table.create ~timeout:config.label_timeout ());
      proxy_label_index =
        Array.init n_proxies (fun _ ->
            Stdx.Flat_table.create ~initial:proxy_flow_hint ());
      mbox_index;
      rule_by_id;
      fault;
      audit =
        (if config.audit then Some (Audit.Checker.create ~controller ())
         else None);
      live =
        (match config.live with
        | None -> None
        | Some lcfg ->
          let primary =
            match lcfg.controller_router with
            | Some r -> r
            | None -> Controlplane.default_router dep
          in
          Some
            {
              lcfg;
              ctrl_router = primary;
              configs = [| controller |];
              latest = 0;
              device_version = Array.make (n_proxies + n_mboxes) 0;
              device_acked = Array.make (n_proxies + n_mboxes) 0;
              meas = Sdm.Measurement.create ();
              horizon = 0.0;
              reconcile_rounds = 0;
              leader = 0;
              replica_router =
                (match lcfg.replica_routers with
                | Some rs -> Array.of_list rs
                | None ->
                  if lcfg.replicas = 1 then [| primary |]
                  else
                    Array.of_list
                      (Controlplane.replica_routers dep ~primary
                         ~n:lcfg.replicas));
              replica_up = Array.make lcfg.replicas true;
              acceptors =
                Array.init lcfg.replicas (fun _ -> Quorum.Acceptor.create ());
              round = None;
              pending = None;
            });
    }
  in
  (* Schedule the fault events before the traffic so that a fault tied
     with a packet injection applies first (the engine breaks time ties
     in FIFO order). *)
  (match w.fault with
  | None -> ()
  | Some f ->
    List.iter
      (fun { Fault.Schedule.at; what } ->
        ignore
          (Dess.Engine.schedule_at w.engine ~time:at (fun _ ->
               apply_fault w f what));
        (* The live controller reacts to middlebox transitions as soon
           as its detector reports them — one detection delay after
           the ground-truth event. *)
        match (what, w.live) with
        | (Fault.Schedule.Mbox_crash _ | Fault.Schedule.Mbox_recover _), Some ls
          ->
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(at +. config.detection_delay) (fun _ ->
                 reoptimize w ls))
        (* A controller crash is detected by the surviving replicas one
           detection delay after the fact; re-election (if the dead
           replica led) happens then. *)
        | Fault.Schedule.Ctrl_crash id, Some ls ->
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(at +. config.detection_delay) (fun _ ->
                 handle_ctrl_crash w ls id))
        | _, _ -> ())
      f.schedule.Fault.Schedule.events);
  (* Inject flows: first packet at a jittered start, each subsequent
     packet scheduled by its predecessor (keeps the heap small). *)
  let rng = Stdx.Rng.create config.seed in
  let horizon = ref 0.0 in
  Array.iter
    (fun (fs : Workload.flow_spec) ->
      let start = Stdx.Rng.float rng config.start_window in
      let last =
        start
        +. (float_of_int (Stdlib.max 0 (fs.Workload.packets - 1))
            *. config.packet_interval)
      in
      if last > !horizon then horizon := last;
      let rec packet_at i =
        if i < fs.Workload.packets then
          ignore
            (Dess.Engine.schedule_at w.engine
               ~time:(start +. (float_of_int i *. config.packet_interval))
               (fun _ ->
                 let aid = w.counters.injected in
                 w.counters.injected <- aid + 1;
                 proxy_emit w fs ~aid;
                 packet_at (i + 1)))
      in
      packet_at 0)
    workload.Workload.flows;
  (* Arm the live control plane: epoch re-optimizations across the
     traffic window, and the reconciliation heartbeat. *)
  (match w.live with
  | None -> ()
  | Some ls ->
    ls.horizon <- !horizon;
    let rec epochs k =
      let t = float_of_int k *. ls.lcfg.epoch_interval in
      if t <= ls.horizon then begin
        ignore
          (Dess.Engine.schedule_at w.engine ~time:t (fun _ ->
               (* Nothing measured yet means nothing to re-optimize
                  from; failure reactions have their own trigger. *)
               if Sdm.Measurement.total ls.meas > 0.0 then reoptimize w ls));
        epochs (k + 1)
      end
    in
    epochs 1;
    ignore
      (Dess.Engine.schedule_at w.engine ~time:ls.lcfg.reconcile_interval
         (fun _ -> reconcile w ls));
    (* The anti-entropy sweep: digest-audit every device each period.
       [None] arms nothing — no events, no draws, bit-identical. *)
    match ls.lcfg.sweep_period with
    | None -> ()
    | Some p ->
      ignore
        (Dess.Engine.schedule_at w.engine ~time:p (fun _ ->
             sweep_round w ls ~period:p)));
  Dess.Engine.run engine;
  let audit_report =
    match w.audit with
    | None -> None
    | Some a ->
      Some
        (Audit.Checker.finalize
           ~expect:
             {
               Audit.Checker.injected = w.counters.injected;
               delivered = w.counters.delivered;
               dropped = w.counters.dropped;
               wp_served = w.counters.wp_served;
               fragments = w.counters.fragments;
               loads = w.loads;
             }
           a)
  in
  let latency_mean, latency_p50, latency_p99 =
    let n = Stdx.Fvec.length w.latencies in
    if n = 0 then (0.0, 0.0, 0.0)
    else begin
      (* Sum newest delivery first: float addition is order-sensitive
         in the last ulp, and the regression oracles pin the mean this
         historical cons-list accumulation produced. *)
      let total = ref 0.0 in
      for i = n - 1 downto 0 do
        total := !total +. Stdx.Fvec.get w.latencies i
      done;
      match
        Stdx.Stats.percentiles (Stdx.Fvec.to_array w.latencies) [ 0.5; 0.99 ]
      with
      | [ p50; p99 ] -> (!total /. float_of_int n, p50, p99)
      | _ -> assert false
    end
  in
  {
    loads = w.loads;
    injected_packets = w.counters.injected;
    delivered_packets = w.counters.delivered;
    dropped_packets = w.counters.dropped;
    control_packets = w.counters.control;
    multi_field_lookups = w.counters.lookups;
    cache_hits = w.counters.cache_hits;
    cache_negative_hits = w.counters.cache_negative_hits;
    tunneled_packets = w.counters.tunneled;
    label_switched_packets = w.counters.label_switched;
    fragments_created = w.counters.fragments;
    router_hops = w.counters.hops;
    sim_time = Dess.Engine.now engine;
    latency_mean;
    latency_p50;
    latency_p99;
    label_misses = w.counters.label_misses;
    teardowns = w.counters.teardowns;
    wp_cache_served = w.counters.wp_served;
    cache_evictions =
      (let sum caches =
         Array.fold_left
           (fun acc c -> acc + (Policy.Flow_cache.stats c).Policy.Flow_cache.evictions)
           0 caches
       in
       sum w.proxy_caches + sum w.mbox_caches);
    events_scheduled = Dess.Engine.events_scheduled engine;
    events_processed = Dess.Engine.events_processed engine;
    policy_violations = w.counters.violations;
    fault_dropped = w.counters.fault_dropped;
    control_retries = w.counters.retries;
    control_lost = w.counters.ctrl_lost;
    last_violation_time = w.counters.last_violation;
    config_pushes = w.counters.cfg_pushes;
    config_acks = w.counters.cfg_acks;
    config_lost = w.counters.cfg_lost;
    config_bytes = w.counters.cfg_bytes;
    reoptimizations = w.counters.reopts;
    config_degraded = w.counters.cfg_degraded;
    final_config_version =
      (match w.live with None -> 0 | Some ls -> ls.latest);
    stale_devices =
      (match w.live with
      | None -> 0
      | Some ls ->
        Array.fold_left
          (fun acc v -> if v < ls.latest then acc + 1 else acc)
          0 ls.device_version);
    entity_control_retries = w.entity_ctrl_retries;
    entity_control_lost = w.entity_ctrl_lost;
    entity_config_version =
      (match w.live with
      | None -> Array.make (n_proxies + n_mboxes) 0
      | Some ls -> Array.copy ls.device_version);
    quorum_rounds = w.counters.q_rounds;
    quorum_commits = w.counters.q_commits;
    quorum_aborts = w.counters.q_aborts;
    quorum_msgs = w.counters.q_msgs;
    quorum_lost = w.counters.q_lost;
    leader_changes = w.counters.elections;
    replica_versions =
      (match w.live with
      | None -> [||]
      | Some ls -> Array.map Quorum.Acceptor.committed ls.acceptors);
    corruptions_injected = w.counters.corrupt_injected;
    corruptions_manifested = w.counters.corrupt_manifested;
    corruptions_detected = w.counters.corrupt_detected;
    corruptions_repaired = w.counters.corrupt_repaired;
    sweep_rounds = w.counters.sweep_rounds;
    sweep_msgs = w.counters.sweep_msgs;
    sweep_lost = w.counters.sweep_lost;
    sweep_bytes = w.counters.sweep_bytes;
    repair_window_mean =
      (if w.counters.corrupt_repaired = 0 then 0.0
       else w.counters.repair_sum /. float_of_int w.counters.corrupt_repaired);
    repair_window_max = w.counters.repair_max;
    reopt_pivots = w.counters.reopt_pivots;
    reopt_phase1_pivots = w.counters.reopt_phase1;
    reopt_warm_used = w.counters.reopt_warm;
    reopt_fallback = w.counters.reopt_fallback;
    audit_report;
  }
