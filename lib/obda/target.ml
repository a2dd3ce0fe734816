open Tgd_logic
open Tgd_db
open Tgd_rewrite

type t =
  | Ucq
  | Datalog
  | Auto

let of_string = function
  | "ucq" -> Ok Ucq
  | "datalog" -> Ok Datalog
  | "auto" -> Ok Auto
  | s -> Error (Printf.sprintf "unknown rewriting target %S (expected ucq, datalog or auto)" s)

let to_string = function Ucq -> "ucq" | Datalog -> "datalog" | Auto -> "auto"

type artifact =
  | Ucq_rewriting of Rewrite.result
  | Datalog_rewriting of Datalog_rw.result

let artifact_kind = function Ucq_rewriting _ -> "ucq" | Datalog_rewriting _ -> "datalog"

let complete = function
  | Ucq_rewriting r -> (match r.Rewrite.outcome with Rewrite.Complete -> true | _ -> false)
  | Datalog_rewriting r -> (
    match r.Datalog_rw.outcome with Datalog_rw.Complete -> true | _ -> false)

let choose (report : Tgd_core.Classifier.report) =
  (* Existential-free rule sets are plain Datalog: the UCQ rewriter unfolds
     recursion into an unbounded union while the Datalog target captures it
     finitely, so they dispatch to Datalog. Everything else starts on the
     UCQ path — when it truncates, [prepare] falls back to Datalog. *)
  if report.Tgd_core.Classifier.datalog then Datalog else Ucq

let resolve target program =
  match target with
  | Ucq -> Ucq
  | Datalog -> Datalog
  | Auto -> choose (Tgd_core.Classifier.classify program)

let prepare ?ucq_config ?datalog_config ~gov target program q =
  let run_ucq () = Ucq_rewriting (Rewrite.ucq ?config:ucq_config ~gov:(gov ()) program q) in
  let run_datalog () =
    Datalog_rewriting (Datalog_rw.rewrite ?config:datalog_config ~gov:(gov ()) program q)
  in
  match target with
  | Ucq -> run_ucq ()
  | Datalog -> run_datalog ()
  | Auto ->
    let first, second =
      match resolve Auto program with
      | Ucq -> (run_ucq, run_datalog)
      | Datalog | Auto -> (run_datalog, run_ucq)
    in
    let a = first () in
    if complete a then a
    else
      let b = second () in
      if complete b then b else a

let null_free = List.filter (fun t -> not (Tuple.has_null t))

(* The Datalog execute memo: per artifact, the answers of its last
   completed run and the stamp of the data they were computed from. Keyed
   on the physical artifact through an ephemeron, so an entry lives only
   as long as the artifact (a prepared-cache entry, a CLI run). *)
module Memo = Ephemeron.K1.Make (struct
  type t = Datalog_rw.result

  let equal = ( == )

  (* The goal is a fresh symbol, unique to its artifact. *)
  let hash (r : t) = Symbol.hash r.Datalog_rw.goal
end)

type memo_entry = {
  reads : Symbol.t array;
      (* every predicate the program or its goal mentions: the relations
         saturation and the goal read depend on *)
  mutable last : (Instance.stamp * Tuple.t list) option;
}

let memo : memo_entry Memo.t = Memo.create 16
let memo_lock = Mutex.create ()

let memo_entry (r : Datalog_rw.result) =
  Mutex.protect memo_lock (fun () ->
      match Memo.find_opt memo r with
      | Some e -> e
      | None ->
        (* The goal is listed on its own too: a program whose goal rule
           was dropped still reads the goal relation. *)
        let preds = List.map fst (Program.predicates r.Datalog_rw.program) in
        let e = { reads = Array.of_list (r.Datalog_rw.goal :: preds); last = None } in
        Memo.replace memo r e;
        e)

let datalog_answers ?gov (r : Datalog_rw.result) inst =
  let e = memo_entry r in
  let stamp = Instance.stamp inst e.reads in
  let count key =
    Option.iter (fun g -> ignore (Tgd_exec.Telemetry.add (Tgd_exec.Governor.telemetry g) key 1)) gov
  in
  match Mutex.protect memo_lock (fun () -> e.last) with
  | Some (s, answers) when Instance.stamp_equal s stamp ->
    count "exec.datalog.memo_hits";
    answers
  | Some _ | None ->
    count "exec.datalog.memo_misses";
    let work = Instance.copy inst in
    let _stats = Datalog.saturate ?gov r.Datalog_rw.program work in
    let answers = null_free (Eval.cq ?gov work (Datalog_rw.goal_query r)) in
    (* A stopped governor leaves a sound subset: never serve it again. *)
    let complete =
      match gov with None -> true | Some g -> Tgd_exec.Governor.stopped g = None
    in
    if complete then Mutex.protect memo_lock (fun () -> e.last <- Some (stamp, answers));
    answers

let answers ?gov artifact inst =
  match artifact with
  | Ucq_rewriting r -> null_free (Eval.ucq ?gov inst r.Rewrite.ucq)
  | Datalog_rewriting r -> datalog_answers ?gov r inst
