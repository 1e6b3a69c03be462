(** Control-plane cost model.

    The paper's architectural argument is that the SDM controller is
    cheap to operate: it talks only to proxies and middleboxes (not to
    every switch), only at configuration time (never per flow), and —
    with Eq. (2)'s aggregated variables — ships small weight tables.
    This module prices that traffic over the real topology: each
    entity's configuration travels hop-by-hop from the controller's
    attachment router, and each proxy's measurement report travels
    back.

    Sizes are modelled with fixed per-item byte costs (policy row
    16 B, candidate entry 4 B, weight cell 12 B, measurement cell
    12 B) — crude, but uniform across the formulations being
    compared. *)

type report = {
  controller_router : int;
  devices_managed : int;     (** proxies + middleboxes *)
  routers_total : int;       (** what an SDN controller would manage *)
  config_messages : int;     (** one per managed device *)
  config_bytes : int;
  config_byte_hops : int;    (** Σ bytes x hop count — network cost *)
  time_to_configure : float; (** max hops, one time unit each *)
  report_bytes_per_epoch : int; (** proxies' measurement reports *)
}

val device_count : Sdm.Deployment.t -> int
(** Proxies plus middleboxes — everything the controller configures. *)

val device_of_entity : Sdm.Deployment.t -> Mbox.Entity.t -> int
(** Flat device index: proxies first (by id), then middleboxes.  The
    convention shared by {!Pktsim}'s per-device statistics and the
    audit layer's [Config_install] events. *)

val entity_of_device : Sdm.Deployment.t -> int -> Mbox.Entity.t
(** Inverse of {!device_of_entity}.  Raises [Invalid_argument] out of
    range. *)

val default_router : Sdm.Deployment.t -> int
(** The controller's attachment router: the first gateway, falling
    back to the first core router. *)

val replica_routers : Sdm.Deployment.t -> primary:int -> n:int -> int list
(** Deterministic attachment routers for [n] controller replicas:
    [primary] first, then the remaining gateways in topology order,
    then the cores.  Raises [Invalid_argument] when [n < 1] or the
    topology lacks [n] distinct transit routers. *)

val entity_bytes : Sdm.Controller.t -> Mbox.Entity.t -> int
(** Size of one entity's configuration under the byte model above —
    also what {!Pktsim}'s live control plane charges per config-push
    message. *)

val price : Sdm.Controller.t -> traffic:Sdm.Measurement.t -> report
(** The cost of configuring every device from {!default_router}, one
    time unit per hop. *)

val pp_report : Format.formatter -> report -> unit
