(* The traced in-process replay.

   Replays a workload's requests without a network, calling each layer's
   public function in the order [Server.handle] calls them and timing every
   call from here — nothing inside lib/ is instrumented:

     Protocol.parse -> Parser.parse_string -> Canon.of_cq -> Prepared.find
       -> (miss: Target.prepare -> Plan.choose -> Prepared.add)
       -> Par_eval.ucq | Target.datalog_answers -> answer Json tree
       -> Protocol.response_ok

   and for writes Registry.load_csv_string (which runs Registry.add_facts
   and, under a live materialization, Delta_chase.apply) -> Store.log.
   Set-up and snapshot requests go through [Server.handle] itself, and
   recovery through [Server.create ~store].

   In lockstep, an untraced oracle server answers the same requests through
   [Server.handle]. Every replayed response must equal the oracle's (minus
   [wall_s]); the oracle's per-request time is the in-process handle time
   the stage times must cover. *)

open Tgd_logic
module P = Tgd_serve.Protocol
module Server = Tgd_serve.Server
module Registry = Tgd_serve.Registry
module Prepared = Tgd_serve.Prepared
module Canon = Tgd_serve.Canon
module Json = Tgd_serve.Json
module Telemetry = Tgd_exec.Telemetry
module Governor = Tgd_exec.Governor
module Budget = Tgd_exec.Budget
module Target = Tgd_obda.Target

(* ------------------------------------------------------------------ *)
(* Response lines                                                      *)

(* The part of a response line that must match byte for byte: everything
   after the id, up to the trailing [wall_s] field. *)
let body_span line =
  let a =
    match String.index_opt line ',' with
    | Some i -> i + 1
    | None -> 0
  in
  let pat = {|,"wall_s":|} in
  let np = String.length pat in
  let rec back j =
    if j < a then String.length line
    else if String.sub line j np = pat then j
    else back (j - 1)
  in
  let b = back (String.length line - np) in
  (a, b - a)

let body line =
  let a, n = body_span line in
  String.sub line a n

let digest line =
  let a, n = body_span line in
  Digest.substring line a n

let is_ok line =
  let a, n = body_span line in
  n >= 9 && String.sub line a 9 = {|"ok":true|}

(* One line through the untraced in-process path. *)
let handle srv line =
  match P.parse line with
  | Error (id, msg) -> P.response_error ~id ~kind:"bad_request" msg
  | Ok env -> (
    match Server.handle srv env.P.request with
    | Ok fields -> P.response_ok ~id:env.P.id fields
    | Error (kind, msg) -> P.response_error ~id:env.P.id ~kind msg)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type trace = {
  times : (string, float list) Hashtbl.t;  (* span name -> seconds per call *)
  counts : (string, float) Hashtbl.t;  (* counter -> total over the replay *)
  mutable op_spans : (string * float) list;  (* stage spans of the op being replayed *)
  mutable op_extra_s : float;  (* work the replay adds to the op, not part of the request *)
}

let create () =
  { times = Hashtbl.create 32; counts = Hashtbl.create 32; op_spans = []; op_extra_s = 0.0 }

let count tr name n =
  Hashtbl.replace tr.counts name (n +. Option.value ~default:0.0 (Hashtbl.find_opt tr.counts name))

let record tr name dt =
  Hashtbl.replace tr.times name (dt :: Option.value ~default:[] (Hashtbl.find_opt tr.times name))

let times tr name = Option.value ~default:[] (Hashtbl.find_opt tr.times name)
let total tr name = Option.value ~default:0.0 (Hashtbl.find_opt tr.counts name)

(* A stage span: timed, recorded under [name], and — when [alloc] — its
   allocation charged to the [name ^ ".alloc_w"] counter. Stage spans tile
   the request; [child] spans (timed work nested in a stage) are recorded
   but kept out of the tiling. *)
let span ?(alloc = false) ?(child = false) tr name f =
  let w0 = if alloc then Stat.words () else 0.0 in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if alloc then count tr (name ^ ".alloc_w") (Stat.words () -. w0);
  record tr name dt;
  if not child then tr.op_spans <- (name, dt) :: tr.op_spans;
  r

(* ------------------------------------------------------------------ *)
(* The staged request path                                             *)

(* [obda serve]'s defaults, which the staged path must reproduce for its
   responses to match: the server's base budget, its rewriting
   configuration (minimization pinned to one domain), the UCQ target, and
   the chase caps data mutations run under. *)
let base_budget =
  { Budget.unlimited with Budget.deadline_s = Some 8.0; rewrite_cqs = Some 200_000 }

let ucq_config = { Tgd_rewrite.Rewrite.default_config with Tgd_rewrite.Rewrite.domains = Some 1 }

let mutation_budget =
  { base_budget with Budget.chase_rounds = Some 1000; chase_facts = Some 1_000_000 }

type state = {
  srv : Server.t;  (* registry, prepared cache and telemetry of the staged path *)
  store : Tgd_store.Store.t option;  (* [srv]'s store, which the staged writes log to *)
}

let fail fmt = Printf.ksprintf failwith fmt

let parse_query src =
  match Tgd_parser.Parser.parse_string ~filename:"query" src with
  | Ok { Tgd_parser.Parser.queries = [ q ]; rules = []; _ } -> q
  | Ok _ | Error _ -> fail "replay: unexpected query text %S" src

let json_tuple tup =
  Json.List (Array.to_list (Array.map (fun v -> Json.String (Tgd_db.Value.to_string v)) tup))

let hit_serves target (p : Prepared.entry) =
  match target, p.Prepared.artifact with
  | Target.Auto, _ | Target.Ucq, Prepared.Ucq _ | Target.Datalog, Prepared.Datalog _ -> true
  | (Target.Ucq | Target.Datalog), _ -> false

let execute tr st ~ontology ~query ~target =
  let reg = Server.registry st.srv and cache = Server.cache st.srv in
  let entry =
    match Registry.find reg ontology with
    | Some e -> e
    | None -> fail "replay: unknown ontology %s" ontology
  in
  let q = span tr "parser.query" (fun () -> parse_query query) in
  let target =
    match target with
    | None -> Target.Ucq
    | Some s -> Result.get_ok (Target.of_string s)
  in
  let t_req = Unix.gettimeofday () in
  let canon = span tr "canon" (fun () -> Canon.of_cq q) in
  let request_tele = Telemetry.create () in
  let fresh () = Governor.create ~budget:base_budget ~telemetry:request_tele () in
  let gov = ref (fresh ()) and first = ref true in
  let gov_of () =
    if !first then begin
      first := false;
      !gov
    end
    else begin
      gov := fresh ();
      !gov
    end
  in
  let found =
    span tr "prepared.find" (fun () ->
        Prepared.find cache ~ontology:entry.Registry.name ~epoch:entry.Registry.epoch ~canon)
  in
  count tr "prepared.finds" 1.0;
  let prepared, cached =
    match found with
    | Some p when hit_serves target p ->
      count tr "prepared.hits" 1.0;
      (p, true)
    | found ->
      if Option.is_some found then
        ignore (Telemetry.add (Server.telemetry st.srv) "serve.cache.kind_misses" 1);
      let t0 = Unix.gettimeofday () in
      let artifact =
        span tr "rewrite" (fun () ->
            Target.prepare ~ucq_config ~gov:gov_of target entry.Registry.program canon.Canon.cq)
      in
      let artifact, complete =
        match artifact with
        | Target.Ucq_rewriting r ->
          let s = r.Tgd_rewrite.Rewrite.stats in
          count tr "rewrite.generated" (float_of_int s.Tgd_rewrite.Rewrite.generated);
          count tr "rewrite.kept" (float_of_int s.Tgd_rewrite.Rewrite.kept);
          count tr "containment.checks" (float_of_int s.Tgd_rewrite.Rewrite.containment_checks);
          let ucq = r.Tgd_rewrite.Rewrite.ucq in
          let plans =
            span tr "plan" (fun () -> List.map (Tgd_db.Plan.choose entry.Registry.instance) ucq)
          in
          ( Prepared.Ucq { ucq; plans },
            r.Tgd_rewrite.Rewrite.outcome = Tgd_rewrite.Rewrite.Complete )
        | Target.Datalog_rewriting r ->
          ( Prepared.Datalog r,
            match r.Tgd_rewrite.Datalog_rw.outcome with
            | Tgd_rewrite.Datalog_rw.Complete -> true
            | Tgd_rewrite.Datalog_rw.Truncated _ -> false )
      in
      let p =
        {
          Prepared.ontology = entry.Registry.name;
          epoch = entry.Registry.epoch;
          canon;
          artifact;
          complete;
          prepare_s = Unix.gettimeofday () -. t0;
        }
      in
      if complete then span tr "prepared.add" (fun () -> Prepared.add cache p);
      (p, false)
  in
  let gov = !gov in
  let artifact_fields =
    match prepared.Prepared.artifact with
    | Prepared.Ucq { ucq; _ } -> [ ("disjuncts", Json.Int (List.length ucq)) ]
    | Prepared.Datalog r ->
      let s = r.Tgd_rewrite.Datalog_rw.stats in
      [
        ("patterns", Json.Int s.Tgd_rewrite.Datalog_rw.patterns);
        ("rules", Json.Int s.Tgd_rewrite.Datalog_rw.rules);
        ("nonrecursive", Json.Bool r.Tgd_rewrite.Datalog_rw.nonrecursive);
      ]
  in
  let answers =
    match prepared.Prepared.artifact with
    | Prepared.Ucq { ucq; _ } ->
      let a =
        span ~alloc:true tr "par_eval" (fun () ->
            Tgd_db.Par_eval.ucq ~gov ~workers:1 entry.Registry.instance ucq
            |> List.filter (fun tup -> not (Tgd_db.Tuple.has_null tup)))
      in
      count tr "par_eval.answers" (float_of_int (List.length a));
      a
    | Prepared.Datalog r ->
      span ~alloc:true tr "datalog_exec" (fun () ->
          Target.datalog_answers ~gov r entry.Registry.instance)
  in
  (* The response's Json fields: the answer tuples and the metadata
     around them, the canonical query text among it. *)
  let fields =
    span ~alloc:true tr "encode.build" (fun () ->
        let exact = prepared.Prepared.complete && Governor.stopped gov = None in
        [
          ("ontology", Json.String entry.Registry.name);
          ("epoch", Json.Int entry.Registry.epoch);
          ("cached", Json.Bool cached);
          ("artifact", Json.String (Prepared.artifact_kind prepared.Prepared.artifact));
          ("complete", Json.Bool prepared.Prepared.complete);
        ]
        @ artifact_fields
        @ [ ("canonical", Json.String (Cq.to_string canon.Canon.cq)) ]
        @ [ ("answers", Json.List (List.map json_tuple answers)); ("exact", Json.Bool exact) ]
        @ (match Governor.stopped gov with
          | None -> []
          | Some reason -> [ ("truncated", Json.String (Governor.stop_reason_to_string reason)) ])
        @ [ ("wall_s", Json.Float (Unix.gettimeofday () -. t_req)) ])
  in
  count tr "eval.steps" (float_of_int (Telemetry.get request_tele "eval.steps"));
  Telemetry.merge_into ~into:(Server.telemetry st.srv) request_tele;
  ignore (Telemetry.add (Server.telemetry st.srv) "serve.requests" 1);
  fields

let registered_fields (entry : Registry.entry) =
  [
    ("name", Json.String entry.Registry.name);
    ("epoch", Json.Int entry.Registry.epoch);
    ("delta_epoch", Json.Int entry.Registry.delta_epoch);
    ("rules", Json.Int (Program.size entry.Registry.program));
    ("facts", Json.Int (Tgd_db.Instance.cardinality entry.Registry.instance));
  ]

let add_facts tr st ~name ~csv =
  let reg = Server.registry st.srv and tele = Server.telemetry st.srv in
  let before =
    match Registry.find reg name with
    | Some e -> e
    | None -> fail "replay: unknown ontology %s" name
  in
  (* Delta_chase.apply runs inside Registry.add_facts; it is timed on a
     copy of the same model with the same batch, as a child span, and its
     statistics must equal the ones the registry reports. The copy is the
     replay's own work, so it is taken out of the op's traced time. *)
  let t_shadow = Unix.gettimeofday () in
  let shadow =
    match before.Registry.materialization with
    | None -> None
    | Some m ->
      let batch = Tgd_db.Instance.facts (Result.get_ok (Tgd_db.Csv_io.load_string csv)) in
      let model = Tgd_db.Instance.copy m.Registry.model in
      let gov = Governor.create ~budget:mutation_budget ~telemetry:(Telemetry.create ()) () in
      Some
        (span ~child:true tr "delta_chase.apply" (fun () ->
             Tgd_chase.Delta_chase.apply ~gov ~null_floor:m.Registry.floor before.Registry.program
               model batch))
  in
  tr.op_extra_s <- tr.op_extra_s +. (Unix.gettimeofday () -. t_shadow);
  let t0 = Unix.gettimeofday () in
  let request_tele = Telemetry.create () in
  let gov = Governor.create ~budget:mutation_budget ~telemetry:request_tele () in
  let m =
    match span tr "registry.add_facts" (fun () -> Registry.load_csv_string ~gov reg ~name csv) with
    | Ok m -> m
    | Error msg -> fail "replay: add-facts failed: %s" msg
  in
  Telemetry.merge_into ~into:tele request_tele;
  Telemetry.add_span tele "serve.delta.apply" (Unix.gettimeofday () -. t0);
  (match st.store with
  | None -> ()
  | Some store ->
    let bytes =
      span tr "store.log" (fun () -> Tgd_store.Store.log store ~name (Tgd_store.Wal.Add_facts { csv }))
    in
    count tr "store.wal_records" 1.0;
    count tr "store.wal_bytes" (float_of_int bytes));
  ignore (Telemetry.add tele "serve.delta.batches" 1);
  ignore (Telemetry.add tele "serve.delta.facts" m.Registry.added);
  let fields = registered_fields m.Registry.entry @ [ ("added", Json.Int m.Registry.added) ] in
  match m.Registry.delta, shadow with
  | None, None -> fields
  | Some d, Some s ->
    let open Tgd_chase.Delta_chase in
    if d.derived <> s.derived || d.triggers_fired <> s.triggers_fired then
      fail "replay: delta chase copy disagrees with the registry (derived %d vs %d)" s.derived
        d.derived;
    count tr "delta_chase.triggers" (float_of_int d.triggers_fired);
    count tr "delta_chase.derived" (float_of_int d.derived);
    ignore (Telemetry.add tele "serve.delta.triggers" d.triggers_fired);
    ignore (Telemetry.add tele "serve.delta.derived" d.derived);
    fields
    @ [
        ("materialized", Json.Bool true);
        ("derived", Json.Int d.derived);
        ("delta_complete", Json.Bool (d.outcome = Tgd_chase.Chase.Terminated));
      ]
  | _ -> fail "replay: materialization appeared or vanished"

(* The snapshot op is [Server.handle]'s own: it checkpoints every entry
   of the store the staged server holds. *)
let snapshot tr st request =
  match span tr "server.snapshot" (fun () -> Server.handle st.srv request) with
  | Ok fields -> fields
  | Error (_, msg) -> fail "replay: snapshot failed: %s" msg

(* One request line through the staged path; returns the response line. *)
let staged tr st line =
  let env =
    match span tr "protocol.parse" (fun () -> P.parse line) with
    | Ok env -> env
    | Error (_, msg) -> fail "replay: unparseable request: %s" msg
  in
  let fields =
    match env.P.request with
    | P.Execute { ontology; query; budget = None; target } -> execute tr st ~ontology ~query ~target
    | P.Add_facts { name; source = P.Inline csv } -> add_facts tr st ~name ~csv
    | P.Snapshot { name = None } as request -> snapshot tr st request
    | _ -> fail "replay: request kind outside the workloads: %s" line
  in
  span tr "protocol.encode" (fun () -> P.response_ok ~id:env.P.id fields)

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)

type op_kind =
  | Read of int  (** the request's oracle key *)
  | Write
  | Snapshot

type op = {
  line : string;
  kind : op_kind;
}

type result = {
  tr : trace;
  mismatches : int;
  first_mismatch : string option;
  exec_handle_s : float list;  (* untraced in-process time per execute *)
  write_handle_s : float list;  (* per add-facts *)
  uncovered : float list;  (* per op: 1 - stage spans / untraced time *)
  slowdown : float list;  (* per op: traced time / untraced time *)
  q5_spans_s : float list;  (* per q5 round: eval+build+encode spans *)
  q5_handle_s : float list;  (* per q5 round: untraced time *)
  recover_s : float list;  (* Store.recover per recovery *)
  replay_s : float list;  (* the rest of Server.create ~store per recovery *)
}

let run_dir = Filename.concat "perfbench" "_run"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let open_store dir =
  match Tgd_store.Store.open_dir dir with
  | Ok s -> s
  | Error msg -> fail "replay: cannot open store %s: %s" dir msg

(* One recovery of the store in [dir]: [Store.recover] alone, then
   [Server.create ~store] on a fresh handle, which recovers again and
   restores the snapshot and re-applies the WAL tail. Returns the recover
   time, the rest of the create time, and the recovered entry's
   (delta_epoch, facts). *)
let recover dir ~name =
  let store = open_store dir in
  let t0 = Unix.gettimeofday () in
  ignore (Tgd_store.Store.recover store);
  let recover_s = Unix.gettimeofday () -. t0 in
  Tgd_store.Store.close store;
  let store = open_store dir in
  let t1 = Unix.gettimeofday () in
  let srv = Server.create ~store () in
  let create_s = Unix.gettimeofday () -. t1 in
  let entry =
    match Registry.find (Server.registry srv) name with
    | Some e -> e
    | None -> fail "replay: %s was not recovered" name
  in
  let got = (entry.Registry.delta_epoch, Tgd_db.Instance.cardinality entry.Registry.instance) in
  Server.shutdown srv;
  (recover_s, create_s -. recover_s, got)

let replay_block = 32
let q5_rounds = 60

let run (w : Gen.t) ~ops ~q5 =
  let dir tag = Filename.concat run_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  let staged_dir = dir "replay-store" and oracle_dir = dir "oracle-store" in
  rm_rf staged_dir;
  rm_rf oracle_dir;
  let store = if w.Gen.durable then Some (open_store staged_dir) else None in
  let st = { srv = Server.create ?store (); store } in
  (* The oracle logs to a store of its own, as the server would. *)
  let oracle =
    if w.Gen.durable then Server.create ~store:(open_store oracle_dir) () else Server.create ()
  in
  (* Set-up through the plain path on both sides. *)
  List.iteri
    (fun i tail ->
      let line = Gen.line ~id:(-1 - i) tail in
      let a = handle st.srv line and b = handle oracle line in
      if not (is_ok a && body a = body b) then fail "replay: set-up request failed: %s" a)
    (Gen.setup_tails w);
  let tr = create () in
  let evictions0 = Telemetry.get (Server.telemetry st.srv) "serve.cache.evictions" in
  let mismatches = ref 0 and first_mismatch = ref None in
  let exec_h = ref [] and write_h = ref [] in
  let uncovered = ref [] and slowdown = ref [] in
  let run_staged op =
    tr.op_spans <- [];
    tr.op_extra_s <- 0.0;
    let t0 = Unix.gettimeofday () in
    let l = staged tr st op.line in
    (l, Unix.gettimeofday () -. t0 -. tr.op_extra_s)
  in
  let run_oracle op =
    let t0 = Unix.gettimeofday () in
    let l = handle oracle op.line in
    (l, Unix.gettimeofday () -. t0)
  in
  let compare_op op (ol, odt) =
    let sl, sdt = run_staged op in
    if body sl <> body ol then begin
      incr mismatches;
      if !first_mismatch = None then
        let cut l = String.sub l 0 (min 300 (String.length l)) in
        first_mismatch := Some (Printf.sprintf "staged %s\noracle %s" (cut sl) (cut ol))
    end;
    let spans = Stat.sum (List.map snd tr.op_spans) in
    (match op.kind with
    | Read _ -> exec_h := odt :: !exec_h
    | Write -> write_h := odt :: !write_h
    | Snapshot -> ());
    (* Shares of the untraced time, per op: a stall lands on one side
       only, so the metrics are medians over ops. *)
    if odt > 0.0 then begin
      uncovered := (1.0 -. (spans /. odt)) :: !uncovered;
      slowdown := (sdt /. odt) :: !slowdown
    end;
    (* Response bytes up to the variable-width wall_s field, so the
       count repeats exactly. *)
    let a, n = body_span sl in
    count tr "protocol.bytes_out" (float_of_int (a + n))
  in
  (* The two sides take turns by blocks of requests, so each request
     follows the previous one on the same side. Run back to back, the
     second run of a request found its code paths warm and took up to 25%
     less time, which skewed every per-op share. *)
  let rec blocks = function
    | [] -> ()
    | ops ->
      let block = List.filteri (fun i _ -> i < replay_block) ops in
      List.iter2 compare_op block (List.map run_oracle block);
      blocks (List.filteri (fun i _ -> i >= replay_block) ops)
  in
  blocks ops;
  count tr "prepared.evictions"
    (float_of_int (Telemetry.get (Server.telemetry st.srv) "serve.cache.evictions" - evictions0));
  (* q5's split, measured apart on the final state: the request again and
     again on both sides, taking turns, under a trace of its own so the
     replay's counts stay as they are. Within the replay each q5 paid for
     the garbage of whatever ran before it, and the two sides moved apart
     by up to 7% from run to run. *)
  let q5_spans, q5_handle =
    match List.find_opt (fun op -> Some op.kind = Option.map (fun k -> Read k) q5) ops with
    | None -> ([], [])
    | Some op ->
      let q5_tr = create () in
      let staged_run () =
        q5_tr.op_spans <- [];
        ignore (staged q5_tr st op.line);
        let get n = Option.value ~default:0.0 (List.assoc_opt n q5_tr.op_spans) in
        get "par_eval" +. get "encode.build" +. get "protocol.encode"
      in
      let oracle_run () = snd (run_oracle op) in
      List.split
        (List.init q5_rounds (fun i ->
             if i land 1 = 0 then
               let s = staged_run () in
               (s, oracle_run ())
             else
               let o = oracle_run () in
               (staged_run (), o)))
  in
  let entry = Option.get (Registry.find (Server.registry st.srv) w.Gen.ontology) in
  let want = (entry.Registry.delta_epoch, Tgd_db.Instance.cardinality entry.Registry.instance) in
  Server.shutdown st.srv;
  Server.shutdown oracle;
  let recover_s, replay_s =
    if not w.Gen.durable then ([], [])
    else
      let runs =
        List.init 3 (fun _ ->
            let r, p, got = recover staged_dir ~name:w.Gen.ontology in
            if got <> want then fail "replay: recovered entry differs from the staged registry";
            (r, p))
      in
      (List.map fst runs, List.map snd runs)
  in
  rm_rf staged_dir;
  rm_rf oracle_dir;
  {
    tr;
    mismatches = !mismatches;
    first_mismatch = !first_mismatch;
    exec_handle_s = !exec_h;
    write_handle_s = !write_h;
    uncovered = !uncovered;
    slowdown = !slowdown;
    q5_spans_s = q5_spans;
    q5_handle_s = q5_handle;
    recover_s;
    replay_s;
  }

(* The replayed op sequence: the first [replay_reads] requests of the
   stream, with the write batches spread evenly between them and the
   snapshot after the middle write — the order the write-mix run sends. *)
let ops (w : Gen.t) =
  let n = w.Gen.replay_reads and nw = Array.length w.Gen.writes in
  let read i =
    let r = w.Gen.stream.(i mod Array.length w.Gen.stream) in
    { line = Gen.line ~id:i r.Gen.tail; kind = Read r.Gen.key }
  in
  let writes_before i = if nw = 0 then 0 else i * nw / n in
  List.concat
    (List.init n (fun i ->
         let ws =
           List.init
             (writes_before (i + 1) - writes_before i)
             (fun j ->
               let k = writes_before i + j in
               let tail = Gen.add_facts_tail w w.Gen.writes.(k) in
               let wr = { line = Gen.line ~id:(100_000 + k) tail; kind = Write } in
               if k = (nw / 2) - 1 then
                 [ wr; { line = Gen.line ~id:200_000 Gen.snapshot_tail; kind = Snapshot } ]
               else [ wr ])
         in
         read i :: List.concat ws))
