(* The serving subsystem: canonical CQ forms, the prepared-query LRU,
   domain-safe telemetry, and the server brain (warm-cache behavior,
   epoch invalidation, concurrent execution), plus end-to-end runs of the
   real `obda serve` binary over stdin/stdout and over --socket. *)

open Tgd_logic
module Json = Tgd_serve.Json
module Canon = Tgd_serve.Canon
module Prepared = Tgd_serve.Prepared
module Protocol = Tgd_serve.Protocol
module Server = Tgd_serve.Server
module Telemetry = Tgd_exec.Telemetry

let v = Term.var
let c = Term.const

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let src = {|{"a":[1,-2.5,"xé\n",true,null],"b":{"c":"","d":[[]]}}|} in
  match Json.parse src with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok j -> (
    let printed = Json.to_string j in
    Alcotest.(check bool) "no raw newline" false (String.contains printed '\n');
    match Json.parse printed with
    | Error msg -> Alcotest.fail ("reparse failed: " ^ msg)
    | Ok j2 -> Alcotest.(check string) "print is stable" printed (Json.to_string j2))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Canonical forms: deterministic cases *)

let canon_key cq = (Canon.of_cq cq).Canon.key

let test_canon_alpha_equal () =
  let q1 =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ Atom.of_strings "p" [ v "X"; v "Y" ]; Atom.of_strings "p" [ v "Y"; v "Z" ] ]
  in
  let q2 =
    Cq.make ~name:"other" ~answer:[ v "A" ]
      ~body:[ Atom.of_strings "p" [ v "B"; v "C" ]; Atom.of_strings "p" [ v "A"; v "B" ] ]
  in
  Alcotest.(check string) "renamed + reordered same key" (canon_key q1) (canon_key q2);
  Alcotest.(check bool) "exact" true (Canon.of_cq q1).Canon.exact

let test_canon_distinguishes () =
  let p x y = Atom.of_strings "p" [ x; y ] in
  let q_xy = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ p (v "X") (v "Y") ] in
  let q_yx = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ p (v "Y") (v "X") ] in
  Alcotest.(check bool) "answer order matters" false (canon_key q_xy = canon_key q_yx);
  let q_const = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ p (v "X") (c "c3") ] in
  let q_var = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ p (v "X") (v "Y") ] in
  Alcotest.(check bool) "constants are not variables" false (canon_key q_const = canon_key q_var)

(* ------------------------------------------------------------------ *)
(* Canonical forms: properties. The generator keeps the variable pool at
   five, well under {!Canon.max_exact_existentials}, so the exhaustive
   labeling always applies and invariance is guaranteed, not best-effort. *)

let signature = [ ("p", 2); ("q", 1); ("r", 3) ]
let gen_pred = QCheck.Gen.oneofl signature
let gen_var = QCheck.Gen.map (fun i -> v (Printf.sprintf "X%d" i)) (QCheck.Gen.int_bound 4)
let gen_const = QCheck.Gen.map (fun i -> c (Printf.sprintf "c%d" i)) (QCheck.Gen.int_bound 3)
let gen_term = QCheck.Gen.frequency [ (3, gen_var); (1, gen_const) ]

let gen_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_term >>= fun args -> return (Atom.of_strings name args))

let gen_cq =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    list_repeat n gen_atom >>= fun body ->
    let vars =
      Symbol.Set.elements
        (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
    in
    (if vars = [] then return []
     else
       int_bound (min 2 (List.length vars - 1)) >>= fun k ->
       return (List.filteri (fun i _ -> i <= k) vars))
    >>= fun answer_vars ->
    return (Cq.make ~name:"q" ~answer:(List.map (fun x -> Term.Var x) answer_vars) ~body))

let arb_cq_seeded =
  QCheck.make
    ~print:(fun (cq, seed) -> Printf.sprintf "%s [seed %d]" (Cq.to_string cq) seed)
    QCheck.Gen.(pair gen_cq (int_bound 1_000_000))

(* An injective renaming to fresh variable names plus a seed-driven shuffle
   of the body: the canonical key must not move. *)
let scramble seed cq =
  let rng = Random.State.make [| seed |] in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty
         cq.Cq.body)
  in
  let renaming =
    Subst.of_list
      (List.mapi
         (fun i x -> (x, v (Printf.sprintf "Z%d_%d" (Random.State.int rng 1000) i)))
         vars)
  in
  let body =
    List.map (fun a -> (Random.State.bits rng, Subst.apply_atom renaming a)) cq.Cq.body
    |> List.sort compare |> List.map snd
  in
  Cq.make ~name:"scrambled" ~answer:(Subst.apply_terms renaming cq.Cq.answer) ~body

let prop_canon_invariant =
  QCheck.Test.make ~name:"canon key invariant under renaming + reordering" ~count:400
    arb_cq_seeded (fun (cq, seed) ->
      let cq' = scramble seed cq in
      canon_key cq = canon_key cq')

let prop_canon_equivalent =
  QCheck.Test.make ~name:"canonical form is homomorphically equivalent to the query" ~count:400
    arb_cq_seeded (fun (cq, seed) ->
      let canon = Canon.of_cq cq in
      Containment.equivalent cq canon.Canon.cq
      && Containment.equivalent cq (scramble seed cq))

let prop_canon_collision_sound =
  QCheck.Test.make ~name:"equal keys imply containment-equivalent queries" ~count:600
    (QCheck.make
       ~print:(fun (a, b) -> Cq.to_string a ^ " vs " ^ Cq.to_string b)
       QCheck.Gen.(pair gen_cq gen_cq))
    (fun (cq1, cq2) ->
      List.length cq1.Cq.answer <> List.length cq2.Cq.answer
      || canon_key cq1 <> canon_key cq2
      || Containment.equivalent cq1 cq2)

(* ------------------------------------------------------------------ *)
(* Telemetry under domains: counters must be exact, not approximate. *)

let test_telemetry_domain_stress () =
  let t = Telemetry.create () in
  let per_domain = 100_000 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              ignore (Telemetry.add t "stress.count" 1);
              Telemetry.gauge t "stress.peak" ((d * per_domain) + i)
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "exact total over 4 domains" (4 * per_domain)
    (Telemetry.get t "stress.count");
  Alcotest.(check int) "exact peak" (4 * per_domain) (Telemetry.peak t "stress.peak")

let test_telemetry_merge () =
  let a = Telemetry.create () and b = Telemetry.create () in
  ignore (Telemetry.add a "x" 3);
  Telemetry.gauge a "g" 7;
  ignore (Telemetry.add b "x" 4);
  ignore (Telemetry.add b "y" 1);
  Telemetry.gauge b "g" 5;
  Telemetry.add_span b "phase" 0.25;
  Telemetry.merge_into ~into:a b;
  Alcotest.(check int) "summed counter" 7 (Telemetry.get a "x");
  Alcotest.(check int) "new counter" 1 (Telemetry.get a "y");
  Alcotest.(check int) "peak is max" 7 (Telemetry.peak a "g");
  Alcotest.(check bool) "phase carried" true (List.mem_assoc "phase" (Telemetry.phases a))

(* ------------------------------------------------------------------ *)
(* Prepared-query LRU *)

let mk_entry tel_ignored ~ontology ~epoch pred =
  ignore tel_ignored;
  let cq = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ Atom.of_strings pred [ v "X" ] ] in
  let canon = Canon.of_cq cq in
  {
    Prepared.ontology;
    epoch;
    canon;
    artifact = Prepared.Ucq { ucq = [ canon.Canon.cq ]; plans = [] };
    complete = true;
    prepare_s = 0.0;
  }

let test_prepared_lru () =
  let tel = Telemetry.create () in
  let cache = Prepared.create ~capacity:2 ~telemetry:tel () in
  let e1 = mk_entry tel ~ontology:"o" ~epoch:1 "p1"
  and e2 = mk_entry tel ~ontology:"o" ~epoch:1 "p2"
  and e3 = mk_entry tel ~ontology:"o" ~epoch:1 "p3" in
  Prepared.add cache e1;
  Prepared.add cache e2;
  (* touch e1 so that e2 is the LRU victim *)
  Alcotest.(check bool) "e1 hit" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e1.Prepared.canon <> None);
  Prepared.add cache e3;
  Alcotest.(check int) "capacity held" 2 (Prepared.length cache);
  Alcotest.(check bool) "LRU victim evicted" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e2.Prepared.canon = None);
  Alcotest.(check bool) "recent survivor" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e1.Prepared.canon <> None);
  Alcotest.(check bool) "new entry present" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e3.Prepared.canon <> None);
  Alcotest.(check int) "evictions" 1 (Telemetry.get tel "serve.cache.evictions");
  Alcotest.(check int) "hits" 3 (Telemetry.get tel "serve.cache.hits");
  Alcotest.(check int) "misses" 1 (Telemetry.get tel "serve.cache.misses")

let test_prepared_purge () =
  let tel = Telemetry.create () in
  let cache = Prepared.create ~capacity:8 ~telemetry:tel () in
  Prepared.add cache (mk_entry tel ~ontology:"o" ~epoch:1 "p1");
  Prepared.add cache (mk_entry tel ~ontology:"o" ~epoch:2 "p1");
  Prepared.add cache (mk_entry tel ~ontology:"other" ~epoch:1 "p1");
  Alcotest.(check int) "one stale entry dropped" 1 (Prepared.purge cache ~ontology:"o" ~keep_epoch:2);
  Alcotest.(check int) "others kept" 2 (Prepared.length cache);
  Alcotest.(check int) "purges are not evictions" 0 (Telemetry.get tel "serve.cache.evictions")

(* ------------------------------------------------------------------ *)
(* Server brain: warm cache, epoch invalidation, concurrency *)

let uni_src = "professor(X) -> person(X). advises(X,Y) -> professor(X)."

let ok_fields = function
  | Ok fields -> fields
  | Error (kind, msg) -> Alcotest.fail (Printf.sprintf "request failed: %s: %s" kind msg)

let answers fields =
  match List.assoc_opt "answers" fields with
  | Some (Json.List rows) ->
    List.map
      (function
        | Json.List cells ->
          List.map (function Json.String s -> s | j -> Json.to_string j) cells
        | j -> [ Json.to_string j ])
      rows
    |> List.sort compare
  | _ -> Alcotest.fail "no answers field"

let bool_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail (Printf.sprintf "no boolean %S field" name)

let boot_server ?cache_capacity csv =
  let srv = Server.create ?cache_capacity () in
  ignore
    (ok_fields
       (Server.handle srv (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  ignore
    (ok_fields (Server.handle srv (Protocol.Load_csv { name = "uni"; source = Protocol.Inline csv })));
  srv

let execute srv query =
  ok_fields (Server.handle srv (Protocol.Execute { ontology = "uni"; query; budget = None; target = None }))

let test_server_warm_cache () =
  let srv = boot_server "professor,alice\nprofessor,bob" in
  let tel = Server.telemetry srv in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "first run is a miss" false (bool_field "cached" r1);
  Alcotest.(check int) "one miss" 1 (Telemetry.get tel "serve.cache.misses");
  let cqs_after_cold = Telemetry.get tel "rewrite.cqs" in
  Alcotest.(check bool) "cold run did rewrite" true (cqs_after_cold > 0);
  (* α-renamed resubmission: must hit the cache and skip rewriting. *)
  let r2 = execute srv "q(W) :- person(W)." in
  Alcotest.(check bool) "renamed rerun is cached" true (bool_field "cached" r2);
  Alcotest.(check int) "one hit" 1 (Telemetry.get tel "serve.cache.hits");
  Alcotest.(check int) "warm run skipped rewriting" cqs_after_cold (Telemetry.get tel "rewrite.cqs");
  Alcotest.(check (list (list string))) "same answers" (answers r1) (answers r2);
  Alcotest.(check (list (list string))) "ontology answers" [ [ "alice" ]; [ "bob" ] ] (answers r1)

(* A data-only mutation bumps the delta epoch but not the full epoch: the
   prepared rewriting survives (0 rewrites on the next execute), yet the
   answers come from the new instance — cached plans are never stale,
   because a rewriting depends on the TGDs alone. *)
let test_server_data_delta_keeps_cache_warm () =
  let srv = boot_server "professor,alice" in
  let tel = Server.telemetry srv in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check (list (list string))) "initial answers" [ [ "alice" ] ] (answers r1);
  Alcotest.(check int) "entry cached" 1 (Prepared.length (Server.cache srv));
  let cqs_after_cold = Telemetry.get tel "rewrite.cqs" in
  let batches_before = Telemetry.get tel "serve.delta.batches" in
  let mut =
    ok_fields
      (Server.handle srv
         (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,carol,dan" }))
  in
  (match List.assoc_opt "delta_epoch" mut with
  | Some (Json.Int d) -> Alcotest.(check bool) "delta epoch bumped" true (d > 1)
  | _ -> Alcotest.fail "add-facts response carries no delta_epoch");
  Alcotest.(check int) "prepared entry survives the data delta" 1
    (Prepared.length (Server.cache srv));
  let r2 = execute srv "q(Y) :- person(Y)." in
  Alcotest.(check bool) "post-delta run is a cache hit" true (bool_field "cached" r2);
  Alcotest.(check int) "0 rewrites after add-facts" cqs_after_cold
    (Telemetry.get tel "rewrite.cqs");
  Alcotest.(check (list (list string))) "no stale answers" [ [ "alice" ]; [ "carol" ] ] (answers r2);
  Alcotest.(check int) "delta batch counted" (batches_before + 1)
    (Telemetry.get tel "serve.delta.batches")

(* The Datalog execute memo behind the wire: a warm read returns the
   stored answers without evaluating (so a tiny budget still gets the full
   set, exact), and an add-facts moves the answers at the new delta epoch;
   a truncated run there is not stored. *)
let test_server_datalog_memo () =
  let srv = boot_server "professor,alice" in
  let tel = Server.telemetry srv in
  let run ?budget () =
    ok_fields
      (Server.handle srv
         (Protocol.Execute
            { ontology = "uni"; query = "q(X) :- person(X)."; budget; target = Some "datalog" }))
  in
  let memo () =
    (Telemetry.get tel "exec.datalog.memo_hits", Telemetry.get tel "exec.datalog.memo_misses")
  in
  let r1 = run () in
  Alcotest.(check string) "datalog artifact" "datalog"
    (match List.assoc_opt "artifact" r1 with Some (Json.String s) -> s | _ -> "");
  Alcotest.(check (list (list string))) "first read" [ [ "alice" ] ] (answers r1);
  Alcotest.(check (pair int int)) "first read misses" (0, 1) (memo ());
  let r2 = run ~budget:"eval.steps=1" () in
  Alcotest.(check (pair int int)) "warm read hits" (1, 1) (memo ());
  Alcotest.(check (list (list string))) "hit under a tiny budget: full set" [ [ "alice" ] ]
    (answers r2);
  Alcotest.(check bool) "hit under a tiny budget: exact" true (bool_field "exact" r2);
  Alcotest.(check bool) "hit under a tiny budget: not truncated" true
    (List.assoc_opt "truncated" r2 = None);
  let mut =
    ok_fields
      (Server.handle srv
         (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,carol,dan" }))
  in
  Alcotest.(check bool) "delta epoch bumped" true
    (match List.assoc_opt "delta_epoch" mut with Some (Json.Int d) -> d > 1 | _ -> false);
  let r3 = run ~budget:"eval.steps=1" () in
  Alcotest.(check (pair int int)) "new delta epoch misses" (1, 2) (memo ());
  Alcotest.(check bool) "truncated miss: inexact" false (bool_field "exact" r3);
  let r4 = run () in
  Alcotest.(check (pair int int)) "the truncated run was not stored" (1, 3) (memo ());
  Alcotest.(check (list (list string))) "answers moved with the data"
    [ [ "alice" ]; [ "carol" ] ] (answers r4);
  Alcotest.(check bool) "exact" true (bool_field "exact" r4);
  let r5 = run ~budget:"eval.steps=1" () in
  Alcotest.(check (pair int int)) "memoised at the new delta epoch" (2, 3) (memo ());
  Alcotest.(check (list (list string))) "memoised answers" (answers r4) (answers r5);
  Alcotest.(check bool) "memoised answers exact" true (bool_field "exact" r5);
  let counters =
    match List.assoc_opt "counters" (ok_fields (Server.handle srv Protocol.Stats)) with
    | Some (Json.Obj cs) -> cs
    | _ -> Alcotest.fail "stats carries no counters"
  in
  Alcotest.(check bool) "stats reports the memo counters" true
    (List.assoc_opt "exec.datalog.memo_hits" counters = Some (Json.Int 2)
    && List.assoc_opt "exec.datalog.memo_misses" counters = Some (Json.Int 3))

(* An ontology edit is a full-epoch bump: stale prepared entries are purged
   eagerly and the next execute re-prepares. *)
let test_server_ontology_edit_invalidates () =
  let srv = boot_server "professor,alice" in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "cold run is a miss" false (bool_field "cached" r1);
  let r2 = execute srv "q(W) :- person(W)." in
  Alcotest.(check bool) "resubmission hits" true (bool_field "cached" r2);
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  Alcotest.(check int) "stale entries purged on re-register" 0
    (Prepared.length (Server.cache srv));
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Load_csv { name = "uni"; source = Protocol.Inline "professor,alice" })));
  let r3 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "post-edit run is a fresh preparation" false (bool_field "cached" r3);
  Alcotest.(check (list (list string))) "answers after the edit" [ [ "alice" ] ] (answers r3)

(* A materialization built by the materialize op stays alive across
   add-facts: the response reports the incremental statistics instead of a
   cold re-chase. *)
let test_server_materialize_delta () =
  let srv = boot_server "professor,alice" in
  let m = ok_fields (Server.handle srv (Protocol.Materialize { name = "uni" })) in
  Alcotest.(check bool) "chase completed" true (bool_field "chase_complete" m);
  (match List.assoc_opt "model_facts" m with
  | Some (Json.Int n) -> Alcotest.(check bool) "model holds the closure" true (n >= 2)
  | _ -> Alcotest.fail "materialize response carries no model_facts");
  let mut =
    ok_fields
      (Server.handle srv
         (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,carol,dan" }))
  in
  Alcotest.(check bool) "delta maintained the materialization" true
    (bool_field "materialized" mut);
  Alcotest.(check bool) "delta apply completed" true (bool_field "delta_complete" mut);
  (match List.assoc_opt "derived" mut with
  | Some (Json.Int d) ->
    (* advises(carol,dan) derives professor(carol) and person(carol). *)
    Alcotest.(check int) "derived facts" 2 d
  | _ -> Alcotest.fail "add-facts response carries no derived count");
  let tel = Server.telemetry srv in
  Alcotest.(check int) "derived counted under serve.delta.derived" 2
    (Telemetry.get tel "serve.delta.derived")

let test_server_concurrent_execute () =
  let srv = boot_server "professor,alice\nadvises,bob,carol" in
  let expected = [ [ "alice" ]; [ "bob" ] ] in
  let errors = Atomic.make 0 in
  let per_domain = 25 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              let var = Printf.sprintf "V%d_%d" d i in
              let q = Printf.sprintf "q(%s) :- person(%s)." var var in
              match Server.handle srv (Protocol.Execute { ontology = "uni"; query = q; budget = None; target = None }) with
              | Ok fields when answers fields = expected -> ()
              | _ -> ignore (Atomic.fetch_and_add errors 1)
            done))
  in
  Array.iter Domain.join domains;
  let tel = Server.telemetry srv in
  Alcotest.(check int) "no corrupted responses" 0 (Atomic.get errors);
  Alcotest.(check int) "every request accounted" (4 * per_domain)
    (Telemetry.get tel "serve.requests");
  Alcotest.(check int) "every lookup accounted" (4 * per_domain)
    (Telemetry.get tel "serve.cache.hits" + Telemetry.get tel "serve.cache.misses")

(* No stale answers under concurrent load across BOTH bump kinds: after a
   data delta (add-facts) or an ontology edit (re-register), every execute
   from every domain must see exactly the current fact set — never a
   snapshot from before the mutation quiesced. *)
let test_server_no_stale_across_bumps () =
  let srv = boot_server "professor,p0" in
  let errors = Atomic.make 0 in
  let expected = ref [ [ "p0" ] ] in
  let verify_round round =
    let domains =
      Array.init 4 (fun d ->
          Domain.spawn (fun () ->
              for i = 1 to 5 do
                let var = Printf.sprintf "V%d_%d_%d" round d i in
                let q = Printf.sprintf "q(%s) :- person(%s)." var var in
                match
                  Server.handle srv
                    (Protocol.Execute { ontology = "uni"; query = q; budget = None; target = None })
                with
                | Ok fields when answers fields = !expected -> ()
                | _ -> ignore (Atomic.fetch_and_add errors 1)
              done))
    in
    Array.iter Domain.join domains
  in
  verify_round 0;
  (* Data-delta bumps. *)
  for i = 1 to 3 do
    ignore
      (ok_fields
         (Server.handle srv
            (Protocol.Add_facts
               { name = "uni"; source = Protocol.Inline (Printf.sprintf "professor,p%d" i) })));
    expected := List.sort compare (List.init (i + 1) (fun j -> [ Printf.sprintf "p%d" j ]));
    verify_round i
  done;
  (* A full bump mid-stream: re-register (which resets the instance) and
     reload the accumulated facts; answers must reflect the reload, not a
     prepared entry from the old epoch. *)
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  let csv = String.concat "\n" (List.init 4 (fun j -> Printf.sprintf "professor,p%d" j)) in
  ignore
    (ok_fields
       (Server.handle srv (Protocol.Load_csv { name = "uni"; source = Protocol.Inline csv })));
  verify_round 4;
  Alcotest.(check int) "no stale or corrupted responses" 0 (Atomic.get errors)

let test_server_errors () =
  let srv = Server.create () in
  (match Server.handle srv (Protocol.Execute { ontology = "ghost"; query = "q(X) :- p(X)."; budget = None; target = None }) with
  | Error ("unknown_ontology", _) -> ()
  | _ -> Alcotest.fail "expected unknown_ontology");
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  (match Server.handle srv (Protocol.Execute { ontology = "uni"; query = "not a query"; budget = None; target = None }) with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "expected bad_request on an unparsable query");
  (* A "file" source naming a directory opens but cannot be read. *)
  let dir = Protocol.File (Filename.get_temp_dir_name ()) in
  List.iter
    (fun (what, request) ->
      match Server.handle srv request with
      | Error ("bad_request", _) -> ()
      | Ok _ -> Alcotest.fail (what ^ " from a directory succeeded")
      | Error (kind, msg) ->
        Alcotest.fail (Printf.sprintf "%s from a directory: %s: %s" what kind msg))
    [
      ("register-ontology", Protocol.Register_ontology { name = "dir"; source = dir });
      ("load-csv", Protocol.Load_csv { name = "uni"; source = dir });
      ("add-facts", Protocol.Add_facts { name = "uni"; source = dir });
    ];
  match Protocol.parse {|{"id":42,"op":"execute","ontology":"uni"}|} with
  | Error (Json.Int 42, _) -> ()
  | _ -> Alcotest.fail "protocol error must carry the request id"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* Protocol-level fault injection: every abused line must come back as a
   typed error that recovers the request id whenever one is present. *)
let test_protocol_fault_injection () =
  let expect_error ?id what line =
    match Protocol.parse line with
    | Error (got_id, msg) ->
      Alcotest.(check bool) (what ^ ": non-empty message") true (String.length msg > 0);
      (match id with
      | Some i -> (
        match got_id with
        | Json.Int j -> Alcotest.(check int) (what ^ ": id recovered") i j
        | _ -> Alcotest.fail (what ^ ": expected recovered id"))
      | None -> ())
    | Ok _ -> Alcotest.fail (what ^ ": expected a parse error")
  in
  expect_error "empty object" "{}";
  expect_error "not json" "complete garbage";
  expect_error "binary garbage" "\x00\x01\xfe\xff{\x80}";
  expect_error "truncated json" {|{"op":"execute","ontology|};
  expect_error "non-object json" {|[1,2,3]|};
  expect_error "missing op" ~id:9 {|{"id":9,"ontology":"uni"}|};
  expect_error "unknown op" ~id:10 {|{"id":10,"op":"frobnicate"}|};
  expect_error "op not a string" ~id:11 {|{"id":11,"op":17}|};
  expect_error "missing required field" ~id:12 {|{"id":12,"op":"execute","query":"q(X) :- p(X)."}|};
  expect_error "tenant must be a string" ~id:13
    {|{"id":13,"op":"ping","tenant":{"org":"acme"}}|};
  (* A well-typed tenant rides along on any request. *)
  match Protocol.parse {|{"id":14,"op":"ping","tenant":"acme"}|} with
  | Ok { Protocol.tenant = Some "acme"; _ } -> ()
  | Ok _ -> Alcotest.fail "tenant field lost"
  | Error (_, msg) -> Alcotest.fail ("tenant parse failed: " ^ msg)

(* ------------------------------------------------------------------ *)
(* End-to-end: the real binary over stdin/stdout JSONL *)

let obda =
  let candidates = [ "../bin/obda.exe"; "_build/default/bin/obda.exe"; "bin/obda.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> "../bin/obda.exe"

let test_cli_serve_smoke () =
  let script = Filename.temp_file "serve_in" ".jsonl" in
  let out = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out script in
  output_string oc
    ({|{"op":"ping","id":1}
{"op":"register-ontology","id":2,"name":"uni","source":"professor(X) -> person(X)."}
{"op":"load-csv","id":3,"name":"uni","source":"professor,ada"}
{"op":"prepare","id":4,"ontology":"uni","query":"q(X) :- person(X)."}
{"op":"execute","id":5,"ontology":"uni","query":"q(Y) :- person(Y)."}
{"op":"stats","id":6}
{"op":"nonsense","id":7}
{"op":"shutdown","id":8}
|}
    : string);
  close_out oc;
  let code = Sys.command (Printf.sprintf "%s serve --workers 1 < %s > %s 2>/dev/null" obda script out) in
  let ic = open_in out in
  let len = in_channel_length ic in
  let output = really_input_string ic len in
  close_in ic;
  Sys.remove script;
  Sys.remove out;
  Alcotest.(check int) "exit 0" 0 code;
  let lines = String.split_on_char '\n' (String.trim output) in
  Alcotest.(check int) "one response per request" 8 (List.length lines);
  Alcotest.(check bool) "pong" true (contains output {|"pong":true|});
  Alcotest.(check bool) "answers served" true (contains output {|"answers":[["ada"]]|});
  Alcotest.(check bool) "prepared entry reused" true (contains output {|"cached":true|});
  Alcotest.(check bool) "unknown op rejected" true (contains output {|"kind":"bad_request"|});
  Alcotest.(check bool) "clean stop" true (contains output {|"stopping":true|})

(* Run [obda serve --workers 1] with [lines] on stdin; the exit code and
   stdout. *)
let serve_stdio lines =
  let script = Filename.temp_file "serve_in" ".jsonl" in
  let out = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out_bin script in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let code = Sys.command (Printf.sprintf "%s serve --workers 1 < %s > %s 2>/dev/null" obda script out) in
  let ic = open_in_bin out in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove script;
  Sys.remove out;
  (code, output)

(* The id each response line echoes, as its JSON text. *)
let response_id line =
  let prefix = {|{"id":|} in
  let n = String.length prefix in
  if String.length line < n || String.sub line 0 n <> prefix then "?"
  else
    match String.index_from_opt line n ',' with
    | Some j -> String.sub line n (j - n)
    | None -> "?"

(* The stdin/stdout connection survives a hostile stream: malformed JSON,
   binary garbage, half-finished requests and an unreadable "file" source
   interleaved with real work — one typed response per line, in request
   order, and the process ends cleanly both at EOF and on shutdown. *)
let test_server_run_fault_stream () =
  let script =
    [
      {|{"id":1,"op":"register-ontology","name":"uni","source":"professor(X) -> person(X). professor(ada)."}|};
      "not json at all";
      "\x00\x01\xfe\xffbinary\x00";
      {|{"op":|};
      {|{"id":2,"op":"execute","ontology":"uni","query":"q(X) :- person(X)."}|};
      {|{"id":3,"op":"execute","ontology":"uni","query":"syntactically broken"}|};
      Printf.sprintf {|{"id":4,"op":"register-ontology","name":"x","file":%S}|}
        (Filename.get_temp_dir_name ());
      {|{"id":5,"op":"execute","ontology":"uni","query":"q(Y) :- professor(Y)."}|};
      {|{"id":6,"op":"ping"}|};
    ]
  in
  let check_stream what code output ~ids =
    Alcotest.(check int) (what ^ ": exit 0, not a crash") 0 code;
    let lines = String.split_on_char '\n' (String.trim output) in
    Alcotest.(check int) (what ^ ": one response per line, even the garbage ones")
      (List.length ids) (List.length lines);
    Alcotest.(check (list string)) (what ^ ": responses in request order") ids
      (List.map response_id lines);
    Alcotest.(check bool) (what ^ ": garbage answered with typed errors") true
      (contains output {|"kind":"bad_request"|});
    Alcotest.(check bool) (what ^ ": real work still served") true (contains output {|[["ada"]]|});
    Alcotest.(check bool) (what ^ ": broken query typed, not fatal") true
      (contains output {|"id":3,"ok":false|});
    Alcotest.(check bool) (what ^ ": unreadable file typed, not fatal") true
      (contains output {|"id":4,"ok":false,"kind":"bad_request"|});
    Alcotest.(check bool) (what ^ ": work after it still served") true
      (contains output {|"id":5,"ok":true|});
    Alcotest.(check bool) (what ^ ": trailing ping answered") true (contains output {|"pong":true|})
  in
  let ids = [ "1"; "null"; "null"; "null"; "2"; "3"; "4"; "5"; "6" ] in
  let code, output = serve_stdio script in
  check_stream "eof" code output ~ids;
  let code, output =
    serve_stdio
      (script
      @ [
          {|{"id":7,"op":"shutdown"}|};
          {|{"id":8,"op":"register-ontology","name":"late","source":"p(X) -> q(X)."}|};
        ])
  in
  check_stream "shutdown" code output ~ids:(ids @ [ "7"; "8" ]);
  Alcotest.(check bool) "clean stop" true (contains output {|"stopping":true|});
  Alcotest.(check bool) "no mutation after the stop" true
    (contains output {|"id":8,"ok":false,"kind":"overloaded"|})

(* A closed stdin is an empty one: nothing to serve, a clean exit (the
   loop's own fds must not take fd 0 and be read as stdin). *)
let test_cli_closed_stdin () =
  let code = Sys.command (Printf.sprintf "timeout 10 %s serve --workers 1 <&- >/dev/null 2>&1" obda) in
  Alcotest.(check int) "exit 0" 0 code

(* Blocking socket client helpers for the --socket test. *)
let connect_retry path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let send_line fd s =
  let s = s ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* One response line, read byte by byte; fails after 10 s. *)
let recv_line fd =
  let b = Buffer.create 128 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then Alcotest.fail "timed out waiting for a response";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd byte 0 1 with
      | 0 -> Alcotest.fail "server closed the connection"
      | _ when Bytes.get byte 0 = '\n' -> Buffer.contents b
      | _ ->
        Buffer.add_char b (Bytes.get byte 0);
        go ())
  in
  go ()

(* --socket PATH is --listen unix:PATH: two clients connected at once are
   both served (a second client is not queued behind the first), and a
   shutdown stops the server and unlinks PATH. *)
let test_cli_socket_alias () =
  let path = Filename.temp_file "obda_serve" ".sock" in
  Sys.remove path;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process obda
      [| obda; "serve"; "--workers"; "2"; "--socket"; path |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  let a = connect_retry path in
  let b = connect_retry path in
  send_line a {|{"id":1,"op":"register-ontology","name":"uni","source":"professor(X) -> person(X). professor(ada)."}|};
  Alcotest.(check bool) "a: registered" true (contains (recv_line a) {|"id":1,"ok":true|});
  send_line b {|{"id":2,"op":"execute","ontology":"uni","query":"q(X) :- person(X)."}|};
  Alcotest.(check bool) "b served while a is open" true
    (contains (recv_line b) {|"answers":[["ada"]]|});
  send_line a {|{"id":3,"op":"ping"}|};
  Alcotest.(check bool) "a still served" true (contains (recv_line a) {|"pong":true|});
  send_line b {|{"id":4,"op":"shutdown"}|};
  Alcotest.(check bool) "b: stopping" true (contains (recv_line b) {|"stopping":true|});
  Unix.close a;
  Unix.close b;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while !status = None && Unix.gettimeofday () < deadline do
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> Unix.sleepf 0.02
    | _, st -> status := Some st
  done;
  Alcotest.(check bool) "exit 0 within 10 s of shutdown" true (!status = Some (Unix.WEXITED 0));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "serve"
    [
      ("json", [
        Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "malformed inputs" `Quick test_json_errors;
      ]);
      ("canon", [
        Alcotest.test_case "alpha-equivalent queries share a key" `Quick test_canon_alpha_equal;
        Alcotest.test_case "inequivalent queries are distinguished" `Quick test_canon_distinguishes;
      ]);
      qsuite "canon-props" [ prop_canon_invariant; prop_canon_equivalent; prop_canon_collision_sound ];
      ("telemetry", [
        Alcotest.test_case "4-domain exact totals" `Quick test_telemetry_domain_stress;
        Alcotest.test_case "merge_into" `Quick test_telemetry_merge;
      ]);
      ("prepared", [
        Alcotest.test_case "LRU eviction and counters" `Quick test_prepared_lru;
        Alcotest.test_case "epoch purge" `Quick test_prepared_purge;
      ]);
      ("server", [
        Alcotest.test_case "warm cache skips rewriting" `Quick test_server_warm_cache;
        Alcotest.test_case "data delta keeps the cache warm" `Quick
          test_server_data_delta_keeps_cache_warm;
        Alcotest.test_case "ontology edit invalidates prepared entries" `Quick
          test_server_ontology_edit_invalidates;
        Alcotest.test_case "materialization maintained across add-facts" `Quick
          test_server_materialize_delta;
        Alcotest.test_case "concurrent executes stay consistent" `Quick test_server_concurrent_execute;
        Alcotest.test_case "no stale answers across delta and full bumps" `Quick
          test_server_no_stale_across_bumps;
        Alcotest.test_case "datalog execute memo" `Quick test_server_datalog_memo;
        Alcotest.test_case "typed errors" `Quick test_server_errors;
      ]);
      ("faults", [
        Alcotest.test_case "protocol fault injection" `Quick test_protocol_fault_injection;
        Alcotest.test_case "serving loop survives a hostile stream" `Quick
          test_server_run_fault_stream;
      ]);
      ("cli", [
        Alcotest.test_case "obda serve JSONL smoke" `Quick test_cli_serve_smoke;
        Alcotest.test_case "--socket serves concurrent clients" `Quick test_cli_socket_alias;
        Alcotest.test_case "closed stdin exits cleanly" `Quick test_cli_closed_stdin;
      ]);
    ]
