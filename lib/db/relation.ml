module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type partition = {
  pos : int;
  shards : Tuple.t array array;
}

type t = {
  uid : int;
  (* Unique per relation object: [create], [copy] and [of_columnar] each
     draw a fresh one, so (uid, version) names one state of one relation. *)
  mutable version : int;
  (* Bumped by every content change (an insert that adds a row, a
     substitution that rewrites one). *)
  arity : int;
  rows : unit Tuple.Table.t;
  indexes : Tuple.t list Vtbl.t option array; (* one optional index per column *)
  mutable partition : partition option;
  mutable columnar : Columnar.t option;
  (* The last sealed block. [Some _] with an empty [pending] means the block
     mirrors [rows] exactly; with a non-empty [pending] the block covers a
     prefix and the next seal extends it ({!Columnar.extend}) instead of
     re-encoding everything. *)
  mutable pending : Tuple.t list;
  (* Tuples inserted since the block was built, newest first. Only grows
     while [columnar] is [Some _]. *)
  mutable columnar_failed : bool;
  (* An uncodable value was seen: stop re-attempting the encode on every
     seal. Reset by insert (the offending tuple may be gone... it is not —
     inserts only add — but the flag is cheap to keep precise per snapshot). *)
  mutable unboxed : Columnar.t option;
  (* [Some block]: the relation was adopted from a snapshot block and the
     row hashtable has not been materialized yet ([rows] is empty, [pending]
     too, [columnar = Some block]). Pure columnar readers never pay for the
     boxing; the first boxed-side consumer triggers it via [ensure_rows]. *)
}

let next_uid = Atomic.make 0

let create ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  {
    uid = Atomic.fetch_and_add next_uid 1;
    version = 0;
    arity;
    rows = Tuple.Table.create 64;
    indexes = Array.make (max arity 1) None;
    partition = None;
    columnar = None;
    pending = [];
    columnar_failed = false;
    unboxed = None;
  }

(* Copy-on-write duplication: the hashtable and index tables are duplicated
   (cheap structural copies — keys and the tuples themselves are shared and
   never mutated), while the frozen snapshots (columnar block, partition
   shards, pending tail) are shared outright. Either side can keep
   inserting without the other observing it. *)
let copy r =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    version = 0;
    arity = r.arity;
    rows = Tuple.Table.copy r.rows;
    indexes = Array.map (Option.map Vtbl.copy) r.indexes;
    partition = r.partition;
    columnar = r.columnar;
    pending = r.pending;
    columnar_failed = r.columnar_failed;
    unboxed = r.unboxed;
  }

let arity r = r.arity
let uid r = r.uid
let version r = r.version

(* Materialize the deferred row hashtable of a snapshot-adopted relation:
   decode each block row once. Idempotent; a no-op everywhere else. *)
let ensure_rows r =
  match r.unboxed with
  | None -> ()
  | Some block ->
    r.unboxed <- None;
    Columnar.iter_rows (fun t -> Tuple.Table.replace r.rows t ()) block

let cardinality r =
  match r.unboxed with
  | Some block -> Columnar.nrows block
  | None -> Tuple.Table.length r.rows

let mem r t =
  ensure_rows r;
  Tuple.Table.mem r.rows t

let index_insert idx t pos =
  let key = t.(pos) in
  let existing = Option.value ~default:[] (Vtbl.find_opt idx key) in
  Vtbl.replace idx key (t :: existing)

let insert r t =
  if Array.length t <> r.arity then invalid_arg "Relation.insert: arity mismatch";
  ensure_rows r;
  if Tuple.Table.mem r.rows t then false
  else begin
    Tuple.Table.add r.rows t ();
    r.version <- r.version + 1;
    Array.iteri
      (fun pos idx -> match idx with None -> () | Some idx -> index_insert idx t pos)
      r.indexes;
    (* Shards are frozen snapshots of the rows; a grown relation must not
       serve stale ones to the parallel evaluator. The columnar block is
       kept alongside a pending tail so the next seal can extend it in
       place of a full re-encode. *)
    r.partition <- None;
    (match r.columnar with
    | Some _ -> r.pending <- t :: r.pending
    | None -> r.columnar_failed <- false);
    true
  end

let iter f r =
  ensure_rows r;
  Tuple.Table.iter (fun t () -> f t) r.rows

let fold f r init =
  ensure_rows r;
  Tuple.Table.fold (fun t () acc -> f t acc) r.rows init
let to_list r = fold (fun t acc -> t :: acc) r []

let build_index r pos =
  let idx = Vtbl.create (max 64 (cardinality r)) in
  iter (fun t -> index_insert idx t pos) r;
  r.indexes.(pos) <- Some idx;
  idx

let build_all_indexes r =
  for pos = 0 to r.arity - 1 do
    match r.indexes.(pos) with Some _ -> () | None -> ignore (build_index r pos)
  done

let lookup r ~pos v =
  if pos < 0 || pos >= r.arity then invalid_arg "Relation.lookup: position out of range";
  let idx = match r.indexes.(pos) with Some idx -> idx | None -> build_index r pos in
  Option.value ~default:[] (Vtbl.find_opt idx v)

(* ------------------------------------------------------------------ *)
(* Hash partitioning                                                   *)

(* The partition position is the column with the most distinct values: its
   hash spreads the rows most evenly, so the shards — the scan units handed
   to parallel workers — stay balanced. *)
let partition_position r =
  if r.arity = 0 then 0
  else begin
    let best = ref 0 and best_distinct = ref (-1) in
    for pos = 0 to r.arity - 1 do
      let distinct =
        match r.indexes.(pos) with Some idx -> Vtbl.length idx | None -> -1
      in
      if distinct > !best_distinct then begin
        best := pos;
        best_distinct := distinct
      end
    done;
    !best
  end

let build_partition r ~parts =
  if parts <= 0 then invalid_arg "Relation.seal: partitions must be positive";
  let parts = max 1 (min parts (max 1 (cardinality r))) in
  let pos = partition_position r in
  let shard_of t =
    if r.arity = 0 then 0 else (Value.hash t.(pos) land max_int) mod parts
  in
  let counts = Array.make parts 0 in
  iter (fun t -> counts.(shard_of t) <- counts.(shard_of t) + 1) r;
  let shards = Array.init parts (fun i -> Array.make counts.(i) [||]) in
  let fill = Array.make parts 0 in
  iter
    (fun t ->
      let s = shard_of t in
      shards.(s).(fill.(s)) <- t;
      fill.(s) <- fill.(s) + 1)
    r;
  r.partition <- Some { pos; shards }

let build_columnar r =
  match r.columnar with
  | Some block when r.pending <> [] -> (
    (* Sealed-instance append path: code only the tail, blit the rest. *)
    let tail = Array.of_list (List.rev r.pending) in
    r.pending <- [];
    match Columnar.extend block tail with
    | Some block -> r.columnar <- Some block
    | None ->
      r.columnar <- None;
      r.columnar_failed <- true)
  | Some _ -> ()
  | None ->
    if not r.columnar_failed then begin
      let tuples = Array.make (cardinality r) [||] in
      let i = ref 0 in
      iter
        (fun t ->
          tuples.(!i) <- t;
          incr i)
        r;
      match Columnar.build ~arity:r.arity tuples with
      | Some block -> r.columnar <- Some block
      | None -> r.columnar_failed <- true
    end

let seal ?partitions r =
  build_columnar r;
  (* With a block covering every row, scans and joins run columnar and the
     boxed per-column indexes stay lazy (built on the first fallback
     lookup) — this is what makes adopting a snapshot block a bulk load.
     Relations without a block are served boxed and keep eager indexes. *)
  if r.columnar = None then build_all_indexes r;
  match partitions with
  | None -> ()
  | Some parts -> (
    match r.partition with
    | Some p when Array.length p.shards = max 1 (min parts (max 1 (cardinality r))) -> ()
    | Some _ | None ->
      (* partition_position picks the most selective column from the
         indexes, so build them before sharding. *)
      build_all_indexes r;
      build_partition r ~parts)

let partition r = Option.map (fun p -> (p.pos, p.shards)) r.partition

let columnar r =
  (* A block with a pending tail is stale: readers get [None] until the
     next seal extends it. *)
  match r.pending with [] -> r.columnar | _ :: _ -> None

let sealed_parts r =
  match r.columnar with
  | Some _ as block -> (block, List.rev r.pending)
  | None -> (None, to_list r)

let of_columnar block =
  let r = create ~arity:(Columnar.arity block) in
  (* Adopt the block outright: no value re-coding, no CSR re-grouping, and
     even the row hashtable stays deferred ([ensure_rows]) until a boxed
     consumer — membership, insert, iteration — actually needs it. *)
  r.columnar <- Some block;
  r.unboxed <- Some block;
  r

(* ------------------------------------------------------------------ *)
(* Value substitution (EGD merges)                                     *)

let index_remove idx t pos =
  let key = t.(pos) in
  match Vtbl.find_opt idx key with
  | None -> ()
  | Some l -> (
    match List.filter (fun u -> not (Tuple.equal u t)) l with
    | [] -> Vtbl.remove idx key
    | l' -> Vtbl.replace idx key l')

let substitute r ~from_ ~to_ =
  let affected = Tuple.Table.create 8 in
  for pos = 0 to r.arity - 1 do
    List.iter (fun t -> Tuple.Table.replace affected t ()) (lookup r ~pos from_)
  done;
  if Tuple.Table.length affected = 0 then []
  else begin
    r.version <- r.version + 1;
    (* Remove every affected row first, then insert the rewritten rows:
       a replacement may collide with another affected original. *)
    Tuple.Table.iter
      (fun old () ->
        Tuple.Table.remove r.rows old;
        Array.iteri
          (fun pos idx ->
            match idx with None -> () | Some idx -> index_remove idx old pos)
          r.indexes)
      affected;
    let fresh = ref [] in
    Tuple.Table.iter
      (fun old () ->
        let nw = Array.map (fun v -> if Value.equal v from_ then to_ else v) old in
        if not (Tuple.Table.mem r.rows nw) then begin
          Tuple.Table.add r.rows nw ();
          Array.iteri
            (fun pos idx ->
              match idx with None -> () | Some idx -> index_insert idx nw pos)
            r.indexes;
          fresh := nw :: !fresh
        end)
      affected;
    (* Substitution rewrites sealed rows, so the extend path is invalid:
       drop every frozen snapshot. *)
    r.partition <- None;
    r.columnar <- None;
    r.pending <- [];
    r.columnar_failed <- false;
    !fresh
  end
