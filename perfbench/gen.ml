(* Workload generation: everything the server receives, derived from the
   workload name and the seed.

   The data and the ontology of a workload are fixed per workload (the
   university instance of E16v2, a DL-Lite TBox from a fixed structure seed),
   so numbers stay comparable across commits; the seed drives the request
   stream — which query, which alpha-renamed variant, which constant, which
   write batch. The same (workload, seed) pair always yields the same
   requests, byte for byte. *)

open Tgd_logic
module Json = Tgd_serve.Json

type kind =
  | Read_ucq
  | Read_datalog
  | Prepare_miss
  | Write_mix

let kinds = [ Read_ucq; Read_datalog; Prepare_miss; Write_mix ]

let name = function
  | Read_ucq -> "read-ucq"
  | Read_datalog -> "read-datalog"
  | Prepare_miss -> "prepare-miss"
  | Write_mix -> "write-mix"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* One timed request: the line after its id ([,"op":...}]) and the oracle
   key — the identity of its expected response. Every alpha-renamed variant
   of one query gets the same response (the canonical form, not the
   submitted text, is echoed), so read keys are query indices; on
   prepare-miss every request is its own key. *)
type req = {
  tail : string;
  key : int;
}

type t = {
  kind : kind;
  ontology : string;  (* registry name *)
  program_src : string;  (* register-ontology source: rules only *)
  csv : string;  (* load-csv payload *)
  materialize : bool;
  durable : bool;  (* the server runs with --data-dir *)
  warm : string list;  (* tails sent once during set-up, untimed *)
  stream : req array;  (* the timed read stream, consumed in order, wrapping *)
  probes : req array;  (* one request per key, for the restart checks *)
  writes : string array;  (* add-facts CSV batches (write-mix only) *)
  replay_reads : int;  (* length of the traced in-process replay *)
}

let line ~id tail = Printf.sprintf {|{"id":%d|} id ^ tail

let execute_tail ?target ~ontology query =
  Printf.sprintf {|,"op":"execute","ontology":%s,"query":%s%s}|}
    (Json.to_string (Json.String ontology))
    (Json.to_string (Json.String query))
    (match target with
    | None -> ""
    | Some t -> Printf.sprintf {|,"target":%s|} (Json.to_string (Json.String t)))

let register_tail w =
  Printf.sprintf {|,"op":"register-ontology","name":%s,"source":%s}|}
    (Json.to_string (Json.String w.ontology))
    (Json.to_string (Json.String w.program_src))

let load_tail w =
  Printf.sprintf {|,"op":"load-csv","name":%s,"source":%s}|}
    (Json.to_string (Json.String w.ontology))
    (Json.to_string (Json.String w.csv))

let materialize_tail w =
  Printf.sprintf {|,"op":"materialize","name":%s}|} (Json.to_string (Json.String w.ontology))

let add_facts_tail w csv =
  Printf.sprintf {|,"op":"add-facts","name":%s,"source":%s}|}
    (Json.to_string (Json.String w.ontology))
    (Json.to_string (Json.String csv))

let snapshot_tail = {|,"op":"snapshot"}|}

(* The set-up requests in the order the server gets them. *)
let setup_tails w =
  [ register_tail w; load_tail w ] @ (if w.materialize then [ materialize_tail w ] else []) @ w.warm

(* ------------------------------------------------------------------ *)
(* University workloads (read-ucq, read-datalog, write-mix)            *)

let university_scale = 300
let variants = 7

(* Rename every variable of [q] apart per tag, as E16 does: the server
   must hit the cache through the canonical key, never string identity. *)
let renamed ~tag q =
  let renaming =
    Subst.of_list
      (Symbol.Set.elements (Cq.vars q)
      |> List.map (fun x -> (x, Term.var (Printf.sprintf "%s_%d" (Symbol.name x) tag))))
  in
  Cq.make ~name:q.Cq.name
    ~answer:(Subst.apply_terms renaming q.Cq.answer)
    ~body:(Subst.apply_atoms renaming q.Cq.body)
  |> Format.asprintf "%a" Tgd_parser.Printer.query

(* [blocks] blocks of [block] ranks in 0..n-1 with Zipf(s=1) frequencies,
   stratified: each block holds every rank exactly its share (largest
   remainder), in seeded order. A window of the stream then has the same
   mix for every seed, up to one partial block, and only the order depends
   on the seed; with independent draws the share of the heaviest query,
   and with it the whole run, moved by several percent from seed to seed. *)
let zipf_stream rng ~n ~block ~blocks =
  let h = List.fold_left (fun acc i -> acc +. (1.0 /. float_of_int i)) 0.0 (List.init n succ) in
  let exact = Array.init n (fun i -> float_of_int block /. (float_of_int (i + 1) *. h)) in
  let counts = Array.map truncate exact in
  let missing = block - Array.fold_left ( + ) 0 counts in
  List.init n Fun.id
  |> List.sort (fun i j -> compare (exact.(j) -. floor exact.(j)) (exact.(i) -. floor exact.(i)))
  |> List.iteri (fun k i -> if k < missing then counts.(i) <- counts.(i) + 1);
  let one_block = List.concat (List.mapi (fun i c -> List.init c (fun _ -> i)) (Array.to_list counts)) in
  List.concat (List.init blocks (fun _ -> Tgd_gen.Rng.shuffle rng one_block))

let university ~kind ~seed =
  let ontology = "uni" in
  let target = if kind = Read_datalog then Some "datalog" else None in
  let queries = Array.of_list Tgd_gen.University.queries in
  let nq = Array.length queries in
  let tails =
    Array.map
      (fun q -> Array.init variants (fun tag -> execute_tail ?target ~ontology (renamed ~tag q)))
      queries
  in
  let data = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 0xE16) ~scale:university_scale in
  let rng = Tgd_gen.Rng.create seed in
  let stream =
    zipf_stream rng ~n:nq ~block:272 ~blocks:64
    |> List.map (fun qi -> { tail = tails.(qi).(Tgd_gen.Rng.int rng variants); key = qi })
    |> Array.of_list
  in
  let writes =
    if kind <> Write_mix then [||]
    else
      (* Each batch enrols one new student: tag, department, 1-3 courses and,
         sometimes, an advisor — facts that move q1, q2, q3 and q5. *)
      Array.init 200 (fun i ->
          let s = Printf.sprintf "ws%d" i in
          let pick prefix n = Printf.sprintf "%s%d" prefix (Tgd_gen.Rng.int rng n) in
          let buf = Buffer.create 128 in
          Printf.bprintf buf "%s,%s\n"
            (if Tgd_gen.Rng.bool rng 0.7 then "undergraduate" else "graduate")
            s;
          Printf.bprintf buf "member_of,%s,%s\n" s (pick "dept" (university_scale / 20));
          for _ = 0 to Tgd_gen.Rng.int rng 3 do
            Printf.bprintf buf "takes_course,%s,%s\n" s (pick "course" (university_scale / 3))
          done;
          if Tgd_gen.Rng.bool rng 0.4 then
            Printf.bprintf buf "advisor,%s,%s\n" s (pick "fac" (university_scale / 5));
          Buffer.contents buf)
  in
  {
    kind;
    ontology;
    program_src = Tgd_parser.Printer.program_to_string Tgd_gen.University.ontology;
    csv = Tgd_db.Csv_io.save_string data;
    materialize = kind = Write_mix;
    durable = kind = Write_mix;
    warm = List.concat_map Array.to_list (Array.to_list tails);
    stream;
    probes = Array.mapi (fun qi v -> { tail = v.(0); key = qi }) tails;
    writes;
    replay_reads =
      (match kind with
      | Read_datalog -> 600
      | Read_ucq | Prepare_miss | Write_mix -> 1500);
  }

(* ------------------------------------------------------------------ *)
(* prepare-miss                                                        *)

(* Constants are drawn from a domain far larger than the prepared cache's
   1024 entries and never repeat within the stream, so every timed request
   has its own canonical key; the stream is long enough that a wrapped
   repeat was evicted long before it comes round again. *)
let miss_constants = 1_000_000
let miss_blocks = 43

(* Templates per block: light ones with a UCQ rewriting of 10-100
   disjuncts, and a few heavy ones of 101-400. *)
let light_templates = 44
let heavy_templates = 4

let prepare_miss ~seed =
  let ontology = "dl" in
  let n_concepts = 100 and n_roles = 50 in
  let structure = Tgd_gen.Rng.create 0x1ead in
  let program =
    Tgd_gen.Dl_lite.to_program ~name:"dl"
      (Tgd_gen.Dl_lite.random_tbox structure ~n_concepts ~n_roles ~n_axioms:150)
  in
  let data =
    Tgd_gen.Gen_db.random_instance (Tgd_gen.Rng.create 0xda7a) program ~facts_per_predicate:40
      ~domain_size:2000
  in
  (* Query templates: 1-3 connected atoms, one answer variable and one
     constant slot [%s]. They are fixed per workload and sized by their UCQ
     rewriting: light ones (10-100 disjuncts, about 0.1-2 ms to rewrite)
     make up most of the mix, heavy ones (101-400 disjuncts, 2-15 ms) keep
     large rewritings in it. Larger ones are left out: one template of
     2350 disjuncts took 265 ms and would decide the run alone. *)
  let concept () = Printf.sprintf "a%d" (Tgd_gen.Rng.int structure n_concepts) in
  let role a b =
    let r = Printf.sprintf "s%d" (Tgd_gen.Rng.int structure n_roles) in
    if Tgd_gen.Rng.bool structure 0.5 then Printf.sprintf "%s(%s, %s)" r a b
    else Printf.sprintf "%s(%s, %s)" r b a
  in
  let candidate () =
    let body =
      match Tgd_gen.Rng.int structure 4 with
      | 0 -> [ role "X" "%s" ]
      | 1 -> [ role "X" "%s"; concept () ^ "(X)" ]
      | 2 -> [ role "X" "Y"; role "Y" "%s" ]
      | _ -> [ concept () ^ "(X)"; role "X" "Y"; role "Y" "%s" ]
    in
    Printf.sprintf "q(X) :- %s." (String.concat ", " body)
  in
  let disjuncts template =
    let q = Printf.sprintf (Scanf.format_from_string template "%s") "c" in
    match Tgd_parser.Parser.parse_string q with
    | Ok { Tgd_parser.Parser.queries = [ q ]; _ } ->
      (* The generation budget stops the few huge rewritings early; a
         truncated one counts as too large. *)
      let config =
        { Tgd_rewrite.Rewrite.default_config with Tgd_rewrite.Rewrite.domains = Some 1; max_cqs = 5000 }
      in
      let r = Tgd_rewrite.Rewrite.ucq ~config program q in
      if r.Tgd_rewrite.Rewrite.outcome = Tgd_rewrite.Rewrite.Complete then
        List.length r.Tgd_rewrite.Rewrite.ucq
      else max_int
    | Ok _ | Error _ -> 0
  in
  let rec pick light heavy =
    if List.length light = light_templates && List.length heavy = heavy_templates then
      Array.of_list (List.rev_append light (List.rev heavy))
    else
      let t = candidate () in
      let d = disjuncts t in
      if d >= 10 && d <= 100 && List.length light < light_templates then pick (t :: light) heavy
      else if d > 100 && d <= 400 && List.length heavy < heavy_templates then pick light (t :: heavy)
      else pick light heavy
  in
  let templates = pick [] [] in
  let rng = Tgd_gen.Rng.create seed in
  let used = Hashtbl.create 4096 in
  let rec fresh_constant () =
    let c = Tgd_gen.Rng.int rng miss_constants in
    if Hashtbl.mem used c then fresh_constant ()
    else begin
      Hashtbl.add used c ();
      Printf.sprintf "d%d" c
    end
  in
  (* Stratified like the university streams: each block holds every
     template once, in seeded order, so a window's mix of light and heavy
     rewrites is the same for every seed. *)
  let block () =
    Tgd_gen.Rng.shuffle rng (Array.to_list templates)
    |> List.map (fun t -> Printf.sprintf (Scanf.format_from_string t "%s") (fresh_constant ()))
  in
  let warm = List.map (execute_tail ~ontology) (block ()) in
  let stream =
    List.concat (List.init miss_blocks (fun _ -> block ()))
    |> List.mapi (fun i q -> { tail = execute_tail ~ontology q; key = i })
    |> Array.of_list
  in
  {
    kind = Prepare_miss;
    ontology;
    program_src = Tgd_parser.Printer.program_to_string program;
    csv = Tgd_db.Csv_io.save_string data;
    materialize = false;
    durable = false;
    warm;
    stream;
    probes = [||];
    writes = [||];
    replay_reads = 1500;
  }

let make kind ~seed =
  match kind with
  | Prepare_miss -> prepare_miss ~seed
  | Read_ucq | Read_datalog | Write_mix -> university ~kind ~seed
