let nf_salt nf = Stdx.Xhash.string (Policy.Action.nf_to_string nf)

(* The salt of each built-in function is a constant; recomputing the
   string FNV on every steering decision would allocate on the
   per-packet fast path.  [Custom] stays on the slow path. *)
let fw_salt = Int64.to_int (nf_salt Policy.Action.FW)
let ids_salt = Int64.to_int (nf_salt Policy.Action.IDS)
let wp_salt = Int64.to_int (nf_salt Policy.Action.WP)
let tm_salt = Int64.to_int (nf_salt Policy.Action.TM)

let nf_salt_int = function
  | Policy.Action.FW -> fw_salt
  | Policy.Action.IDS -> ids_salt
  | Policy.Action.WP -> wp_salt
  | Policy.Action.TM -> tm_salt
  | Policy.Action.Custom s -> Int64.to_int (Stdx.Xhash.string s)

(* One non-allocating fold over the 5-tuple, the entity key and the
   salt — bit-identical to hashing the flow and folding the two salts
   with boxed [Int64] arithmetic, which is what this did before. *)
let flow_point flow ~entity ~nf =
  Stdx.Xhash.combine7_unit flow.Netpkt.Flow.src flow.Netpkt.Flow.dst
    flow.Netpkt.Flow.proto flow.Netpkt.Flow.sport flow.Netpkt.Flow.dport
    (Mbox.Entity.hash_key entity) (nf_salt_int nf)

(* Loops over indices, not [Array.fold_left]/[Array.iter]: the
   polymorphic fold boxes the float accumulator on every element and
   the callbacks capture refs, which costs ~25 minor words per steering
   decision on the per-packet fast path.  Local float refs compile to
   unboxed mutable stack slots; the additions happen in the same order
   with the same early-stop, so every choice is bit-identical. *)
let rec last_positive row i =
  if i < 0 then None
  else
    let id, w = row.(i) in
    if w > 0.0 then Some id else last_positive row (i - 1)

let pick row ~u =
  if u < 0.0 || u >= 1.0 then invalid_arg "Selector.pick: u out of [0,1)";
  let n = Array.length row in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let _, w = row.(i) in
    if w < 0.0 then invalid_arg "Selector.pick: negative weight";
    total := !total +. w
  done;
  if !total <= 0.0 then None
  else begin
    let target = u *. !total in
    let acc = ref 0.0 in
    let found = ref false in
    let chosen = ref 0 in
    let i = ref 0 in
    while (not !found) && !i < n do
      let id, w = row.(!i) in
      acc := !acc +. w;
      if target < !acc then begin
        found := true;
        chosen := id
      end;
      incr i
    done;
    if !found then Some !chosen
      (* Floating-point slack can leave the last bucket unmatched. *)
    else last_positive row (n - 1)
  end

let pick_uniform candidates ~u =
  let n = List.length candidates in
  if n = 0 then invalid_arg "Selector.pick_uniform: empty candidates";
  let i = int_of_float (u *. float_of_int n) in
  let i = if i >= n then n - 1 else i in
  List.nth candidates i
