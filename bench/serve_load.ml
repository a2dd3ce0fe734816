(* E16v2: closed-loop load bench for the multi-client network front end.

   Forks the server (Net.serve over a Unix-domain socket) into a child
   process, then drives >= 100 concurrent client connections from a
   select-based closed loop in the parent: every connection keeps exactly
   one request outstanding, sampling Zipf(s=1) over the university query
   mix with alpha-renamed variants (so cache hits go through the canonical
   key, never string identity). Reports p50/p95/p99 latency and saturation
   rps per worker-count leg into BENCH_serve.json (schema bench_serve/v2),
   and verifies on every single response that (a) the id is the one this
   connection is owed — no lost, duplicated or reordered responses — and
   (b) the answer bytes are identical to the sequential in-process path.

   The legs double as the CI scaling gate for the 4-domain regression:
   with the minor heap left at its 256k-word default, every minor
   collection is a stop-the-world barrier across all worker domains and
   4-worker throughput collapses to ~20% of 1-worker; the server fix
   (minor heap scaled with worker count, here and in bin/obda.ml) is what
   the final check holds in place.

   Run: dune exec bench/serve_load.exe            (120 conns, 3s/leg)
        dune exec bench/serve_load.exe -- --conns 32 --duration 1.0 *)

open Tgd_logic
module P = Tgd_serve.Protocol
module Server = Tgd_serve.Server
module Net = Tgd_serve.Net
module Json = Tgd_serve.Json

let scale = 300
let tags = [| 1; 2; 3; 4; 5; 6; 7 |]

let mk_server () =
  let srv = Server.create () in
  let data = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 0xE16) ~scale in
  ignore
    (Tgd_serve.Registry.register (Server.registry srv) ~name:"uni" ~facts:data
       Tgd_gen.University.ontology);
  srv

(* Alpha-rename per tag, exactly as E16 does. *)
let qstr ~tag q =
  let renaming =
    Subst.of_list
      (Symbol.Set.elements (Cq.vars q)
      |> List.map (fun x -> (x, Term.var (Printf.sprintf "%s_%d" (Symbol.name x) tag))))
  in
  let q' =
    Cq.make ~name:q.Cq.name
      ~answer:(Subst.apply_terms renaming q.Cq.answer)
      ~body:(Subst.apply_atoms renaming q.Cq.body)
  in
  Format.asprintf "%a" Tgd_parser.Printer.query q'

(* ------------------------------------------------------------------ *)
(* Workload table: one entry per (query, tag) variant.                  *)

type variant = {
  line_suffix : string;  (* ,"op":"execute",... }\n  — prepend {"id":N *)
  expected_answers : string;  (* "answers":[...],"exact"  — must appear in the response *)
}

let build_variants () =
  (* The sequential oracle: the same registration, queried through
     Server.handle on this thread. Whatever it answers is, by definition,
     the sequential path the concurrent server must match byte-for-byte. *)
  let oracle = mk_server () in
  let queries = Array.of_list Tgd_gen.University.queries in
  let variants =
    Array.map
      (fun q ->
        Array.map
          (fun tag ->
            let s = qstr ~tag q in
            let fields =
              match Server.handle oracle (P.Execute { ontology = "uni"; query = s; budget = None; target = None })
              with
              | Ok fields -> fields
              | Error (kind, msg) -> failwith ("oracle: " ^ kind ^ ": " ^ msg)
            in
            let answers =
              match List.assoc_opt "answers" fields with
              | Some j -> Json.to_string j
              | None -> failwith "oracle: no answers field"
            in
            {
              line_suffix =
                Printf.sprintf {|,"op":"execute","ontology":"uni","query":%s}|}
                  (Json.to_string (Json.String s))
                ^ "\n";
              expected_answers = Printf.sprintf {|"answers":%s,"exact"|} answers;
            })
          tags)
      queries
  in
  Server.shutdown oracle;
  (Array.length queries, variants)

(* Zipf(s=1) over query indices, deterministic per leg. *)
let zipf_sampler ~n_queries ~seed =
  let weights = Array.init n_queries (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let rng = Tgd_gen.Rng.create seed in
  fun () ->
    let x = Tgd_gen.Rng.float rng *. total in
    let rec go i acc =
      if i = n_queries - 1 then i
      else if acc +. weights.(i) >= x then i
      else go (i + 1) (acc +. weights.(i))
    in
    go 0 0.0

(* ------------------------------------------------------------------ *)
(* Client driver.                                                      *)

type conn = {
  fd : Unix.file_descr;
  mutable outbuf : string;
  mutable outpos : int;
  inbuf : Buffer.t;
  mutable outstanding : (int * string * float) option;
      (* id, expected answers fragment, send time *)
}

type leg_result = {
  workers : int;
  completed : int;
  elapsed_s : float;
  rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  shed : int;
  mismatches : int;
  minor_heap_words : int;
}

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = if i + nn > nh then -1 else if at i 0 then i else go (i + 1) in
  go 0

let minor_words_for workers = min (16 * 1024 * 1024) (1024 * 1024 * max 1 workers)

let connect_retry path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.02);
      go ()
  in
  go ()

let run_leg ~workers ~conns:n_conns ~duration ~n_queries ~variants =
  let sockpath =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_load_%d_w%d.sock" (Unix.getpid ()) workers)
  in
  (* The child inherits the stdout buffer; flush so it can't replay it. *)
  flush stdout;
  match Unix.fork () with
  | 0 ->
    (* Server child: its own process, its own GC tuning — exactly what
       `obda serve --listen` does at startup. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_words_for workers };
    let srv = mk_server () in
    let listeners = [ Net.listen (Net.Unix_path sockpath) ] in
    Net.serve ~workers
      ~max_inflight:(n_conns + 32)
      ~max_clients:(n_conns + 8)
      srv ~listeners;
    Server.shutdown srv;
    Unix._exit 0
  | pid ->
    let sample = zipf_sampler ~n_queries ~seed:0x5317 in
    let conns =
      Array.init n_conns (fun _ ->
          let fd = connect_retry sockpath in
          Unix.set_nonblock fd;
          { fd; outbuf = ""; outpos = 0; inbuf = Buffer.create 512; outstanding = None })
    in
    let by_fd = Hashtbl.create (2 * n_conns) in
    Array.iter (fun c -> Hashtbl.replace by_fd c.fd c) conns;
    let next_id = ref 0 in
    let completed = ref 0 in
    let shed = ref 0 in
    let mismatches = ref 0 in
    let mismatch_example = ref None in
    let lats = ref (Array.make 4096 0.0) in
    let n_lats = ref 0 in
    let record_lat l =
      if !n_lats = Array.length !lats then begin
        let bigger = Array.make (2 * !n_lats) 0.0 in
        Array.blit !lats 0 bigger 0 !n_lats;
        lats := bigger
      end;
      !lats.(!n_lats) <- l;
      incr n_lats
    in
    let issue ~timed c =
      let qi = sample () in
      let tag_i = !next_id mod Array.length tags in
      let v = variants.(qi).(tag_i) in
      let id = !next_id in
      incr next_id;
      let line = Printf.sprintf {|{"id":%d|} id ^ v.line_suffix in
      c.outbuf <- line;
      c.outpos <- 0;
      c.outstanding <- Some (id, v.expected_answers, if timed then Unix.gettimeofday () else 0.0)
    in
    let mismatch line note =
      incr mismatches;
      if !mismatch_example = None then mismatch_example := Some (note ^ ": " ^ line)
    in
    let on_line ~timed c line =
      match c.outstanding with
      | None -> mismatch line "unexpected response (nothing outstanding)"
      | Some (id, expected, t0) ->
        c.outstanding <- None;
        if timed then begin
          record_lat (Unix.gettimeofday () -. t0);
          incr completed
        end;
        let idp = Printf.sprintf {|{"id":%d,|} id in
        if String.length line < String.length idp || String.sub line 0 (String.length idp) <> idp
        then mismatch line (Printf.sprintf "response id mismatch (wanted %d)" id)
        else if
          find_sub line {|"kind":"overloaded"|} >= 0
          || find_sub line {|"kind":"quota_exceeded"|} >= 0
        then incr shed
        else if find_sub line expected < 0 then mismatch line "answers differ from sequential path"
    in
    let read_buf = Bytes.create 65536 in
    let drain_lines ~timed c =
      (* Split complete lines out of the connection's accumulator. *)
      let s = Buffer.contents c.inbuf in
      let n = String.length s in
      let start = ref 0 in
      (try
         while true do
           let i = String.index_from s !start '\n' in
           on_line ~timed c (String.sub s !start (i - !start));
           start := i + 1
         done
       with Not_found -> ());
      if !start > 0 then begin
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf s !start (n - !start)
      end
    in
    (* One driver pass: write what's writable, read what's readable. *)
    let step ~timed () =
      let rds = ref [] and wrs = ref [] in
      Array.iter
        (fun c ->
          if c.outstanding <> None then begin
            rds := c.fd :: !rds;
            if c.outpos < String.length c.outbuf then wrs := c.fd :: !wrs
          end)
        conns;
      if !rds = [] && !wrs = [] then false
      else begin
        let r, w, _ = Unix.select !rds !wrs [] 1.0 in
        List.iter
          (fun fd ->
            let c = Hashtbl.find by_fd fd in
            match
              Unix.write_substring c.fd c.outbuf c.outpos (String.length c.outbuf - c.outpos)
            with
            | n -> c.outpos <- c.outpos + n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
          w;
        List.iter
          (fun fd ->
            let c = Hashtbl.find by_fd fd in
            match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
            | 0 ->
              c.outstanding <- None;
              mismatch "" "server closed connection mid-request"
            | n ->
              Buffer.add_subbytes c.inbuf read_buf 0 n;
              drain_lines ~timed c
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
          r;
        true
      end
    in
    let drain ~timed ~hard_deadline =
      while
        Array.exists (fun c -> c.outstanding <> None) conns
        && Unix.gettimeofday () < hard_deadline
        && step ~timed ()
      do
        ()
      done
    in
    (* Warmup round (untimed): every connection completes one request, which
       also warms the server's prepared cache through the canonical key. *)
    Array.iter (fun c -> issue ~timed:false c) conns;
    drain ~timed:false ~hard_deadline:(Unix.gettimeofday () +. 60.0);
    (* Timed closed loop. *)
    let t_start = Unix.gettimeofday () in
    let deadline = t_start +. duration in
    Array.iter (fun c -> issue ~timed:true c) conns;
    let rec loop () =
      let now = Unix.gettimeofday () in
      if now < deadline then begin
        ignore (step ~timed:true ());
        Array.iter (fun c -> if c.outstanding = None then issue ~timed:true c) conns;
        loop ()
      end
    in
    loop ();
    drain ~timed:true ~hard_deadline:(deadline +. 60.0);
    let t_end = Unix.gettimeofday () in
    if Array.exists (fun c -> c.outstanding <> None) conns then
      mismatch "" "timed out waiting for outstanding responses";
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
    (* Stop the server over a fresh connection; reap the child. *)
    (let fd = connect_retry sockpath in
     let msg = {|{"id":0,"op":"shutdown"}|} ^ "\n" in
     ignore (Unix.write_substring fd msg 0 (String.length msg));
     ignore (Unix.read fd read_buf 0 (Bytes.length read_buf));
     Unix.close fd);
    ignore (Unix.waitpid [] pid);
    (match !mismatch_example with
    | Some ex ->
      Printf.printf "  first mismatch: %s\n" (String.sub ex 0 (min 200 (String.length ex)))
    | None -> ());
    let lats = Array.sub !lats 0 !n_lats in
    Array.sort compare lats;
    let pct p =
      if !n_lats = 0 then 0.0
      else lats.(min (!n_lats - 1) (int_of_float (p *. float_of_int !n_lats)))
    in
    let elapsed = t_end -. t_start in
    {
      workers;
      completed = !completed;
      elapsed_s = elapsed;
      rps = (if elapsed > 0.0 then float_of_int !completed /. elapsed else 0.0);
      p50_ms = pct 0.5 *. 1000.0;
      p95_ms = pct 0.95 *. 1000.0;
      p99_ms = pct 0.99 *. 1000.0;
      shed = !shed;
      mismatches = !mismatches;
      minor_heap_words = minor_words_for workers;
    }

(* ------------------------------------------------------------------ *)

let check label ~expected ~got =
  Printf.printf "  %-58s expected: %-8s measured: %-8s %s\n" label expected got
    (if expected = got then "[ok]" else "[MISMATCH]");
  flush stdout

let () =
  let conns = ref 120 in
  let duration = ref 3.0 in
  let out = ref "BENCH_serve.json" in
  let workers = ref "1,4" in
  Arg.parse
    [
      ("--conns", Arg.Set_int conns, "N  concurrent client connections (default 120)");
      ("--duration", Arg.Set_float duration, "S  timed window per leg in seconds (default 3.0)");
      ("--out", Arg.Set_string out, "FILE  bench JSON output (default BENCH_serve.json)");
      ("--workers", Arg.Set_string workers, "LIST  comma-separated worker counts (default 1,4)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serve_load: closed-loop load bench for the network front end";
  let worker_legs =
    String.split_on_char ',' !workers |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map int_of_string
  in
  Printf.printf
    "E16v2 (serve_load): closed-loop net front end, %d connections, Zipf(s=1), %gs/leg\n" !conns
    !duration;
  let n_queries, variants = build_variants () in
  let results =
    List.map
      (fun w ->
        let r = run_leg ~workers:w ~conns:!conns ~duration:!duration ~n_queries ~variants in
        Printf.printf
          "  workers=%d: %d req in %.2fs -> %.0f rps   p50=%.2fms p95=%.2fms p99=%.2fms   (%d \
           shed, %d mismatches)\n"
          r.workers r.completed r.elapsed_s r.rps r.p50_ms r.p95_ms r.p99_ms r.shed r.mismatches;
        flush stdout;
        r)
      worker_legs
  in
  let total_mismatches = List.fold_left (fun a r -> a + r.mismatches) 0 results in
  let total_shed = List.fold_left (fun a r -> a + r.shed) 0 results in
  check "answers byte-identical to the sequential path" ~expected:"yes"
    ~got:(if total_mismatches = 0 then "yes" else "no");
  check "no responses shed (admission sized to the fleet)" ~expected:"yes"
    ~got:(if total_shed = 0 then "yes" else "no");
  (match
     ( List.find_opt (fun r -> r.workers = 1) results,
       List.find_opt (fun r -> r.workers = 4) results )
   with
  | Some w1, Some w4 ->
    let ratio = if w1.rps > 0.0 then w4.rps /. w1.rps else 0.0 in
    Printf.printf "  scaling w4/w1: %.2f\n" ratio;
    check "4-worker rps >= single-worker rps (regression gate)" ~expected:"yes"
      ~got:(if ratio >= 0.95 then "yes" else "no")
  | _ -> ());
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench_serve/v2\",\n\
    \  \"host_cores\": %d,\n\
    \  \"workload\": { \"scale\": %d, \"distinct_queries\": %d, \"tag_variants\": %d, \"zipf_s\": \
     1.0,\n\
    \                \"connections\": %d, \"closed_loop\": true, \"duration_s\": %g },\n\
    \  \"legs\": [\n"
    (Domain.recommended_domain_count ())
    scale n_queries (Array.length tags) !conns !duration;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"workers\": %d, \"requests\": %d, \"elapsed_s\": %.3f, \"rps\": %.1f,\n\
        \      \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n\
        \      \"shed\": %d, \"mismatches\": %d, \"minor_heap_words\": %d }%s\n"
        r.workers r.completed r.elapsed_s r.rps r.p50_ms r.p95_ms r.p99_ms r.shed r.mismatches
        r.minor_heap_words
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" !out;
  if total_mismatches > 0 then exit 1
