(* The layered serve benchmark. See perfbench/README.md.

   perfbench --obda PATH --workload NAME --seed N --seconds S --trace 0|1

   Forks `obda serve --listen unix:... --workers 1`, sets it up 11 times
   (set-up time is the median), drives it closed loop over one connection
   (write-mix: a writer and a reader) through a warm-up and a window of
   S seconds of calm host time, reports figures over the window's calm parts,
   checks every response against a sequential in-process oracle, and
   prints one JSON result as the last line of
   stdout: end-to-end metrics with --trace 0, per-layer metrics from a
   traced in-process replay of the same requests with --trace 1. *)

module Json = Tgd_serve.Json

let fail = Replay.fail
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type live = {
  srv : Wire.server;
  setup_s : float;
  loaded_facts : int;  (* facts the load-csv acknowledged *)
  warm : string list;  (* warm-up response lines *)
}

let data_dir = Filename.concat Replay.run_dir (Printf.sprintf "store-%d" (Unix.getpid ()))

let added line =
  match Json.parse line with
  | Ok j -> Option.value ~default:0 (Json.int_field "added" j)
  | Error _ -> 0

(* Spawn -> registered, loaded, (materialized) and warm. *)
let setup (w : Gen.t) ~obda ~sock =
  if w.Gen.durable then Replay.rm_rf data_dir;
  let t0 = now () in
  let srv = Wire.spawn ~obda ~sock ~data_dir:(if w.Gen.durable then Some data_dir else None) in
  let c = Wire.connect srv in
  let replies = List.mapi (fun i tail -> Wire.rpc c (Gen.line ~id:(i + 1) tail)) (Gen.setup_tails w) in
  let setup_s = now () -. t0 in
  Wire.close c;
  List.iter (fun l -> if not (Replay.is_ok l) then fail "set-up request failed: %s" l) replies;
  let loaded_facts = added (List.nth replies 1) in
  let warm = List.filteri (fun i _ -> i >= List.length replies - List.length w.Gen.warm) replies in
  { srv; setup_s; loaded_facts; warm }

(* ------------------------------------------------------------------ *)
(* The timed closed loop                                               *)

type read = {
  key : int;
  dg : Digest.t;
  lo : int;  (* writes acknowledged before the read was sent *)
  hi : int;  (* writes sent before its response arrived *)
}

(* The window is a run of parts of [part_len] = S / [sub_windows] seconds.
   Throughput is the median of its per-part values and read latency the
   percentile of the reads, over the parts in which the host stole at most
   2% of the CPU time (see [kept_parts]). At 30% steal the server serves
   less than half as many requests per second: a window that overlaps a
   phase of steal would measure the neighbours, and a median over all
   parts still would if the phase covers half of them. The read workloads
   go on past S until [sub_windows] parts are calm, up to [max_parts];
   write-mix stops at S, as its writes are spread over S. *)
let sub_windows = 10
let max_parts = 15

type wire_result = {
  reads : read list;
  read_ms : float list;
  read_at : float list;  (* receive time of each read in the window, as [read_ms] *)
  ok_at : float list;  (* receive time of each ok response in the window *)
  part_len : float;
  part_steal : int array;  (* steal ticks in each part of the window *)
  write_ms : float list;
  write_lines : string list;  (* add-facts responses, in write order *)
  rss_mb : float;  (* server VmHWM after [rss_after] ok responses *)
  attempted : int;
  failed : int;
  warm_up_s : float;  (* the reads before the window (see [warm_up_budget]) *)
}

(* The server's memory grows with the requests it serves (most on
   prepare-miss), so its peak RSS is read after a fixed number of ok
   responses, warm-up included, reached early in the window on a busy
   2-core host: read at the end of the window, it would follow
   throughput. *)
let rss_after = function
  | Gen.Read_ucq -> 3000
  | Gen.Read_datalog -> 1000
  | Gen.Prepare_miss | Gen.Write_mix -> 2000

(* The longest warm-up: reads run until a second passes in which the host
   stole at most 2% of the CPU time, then the window opens. Steal shows
   only while the VM has work, so calm is looked for under the load. *)
let warm_up_budget = 5.0

let calm_share = 0.02

(* Read workloads run one connection: the client waits for each reply, so
   the server has one request at a time and the window measures its work,
   not how the host schedules two clients against it. write-mix adds the
   writer's connection (connection 0); its writes start with the window. *)
let timed_phase (w : Gen.t) srv ~seconds =
  let nw = Array.length w.Gen.writes in
  let conns = Array.init (if nw > 0 then 2 else 1) (fun _ -> Wire.connect srv) in
  let reads = ref [] and read_ms = ref [] and write_ms = ref [] and write_lines = ref [] in
  let read_at = ref [] and ok_at = ref [] in
  let attempted = ref 0 and failed = ref 0 and ok = ref 0 and rss_mb = ref nan in
  let next_id = ref 1_000 and cursor = ref 0 in
  let sent = ref 0 and acked = ref 0 and snapshot_sent = ref false in
  let part_len = seconds /. float_of_int sub_windows in
  let calm ~seconds ticks = Steal.calm ~share:calm_share ~seconds ticks in
  (* Steal ticks when each part began (-1: no reply or read in it yet). *)
  let marks = Array.make (max_parts + 1) (-1) in
  let mark i = if i <= max_parts && marks.(i) < 0 then marks.(i) <- Steal.ticks () in
  let steal_in parts =
    for i = parts - 1 downto 1 do
      if marks.(i) < 0 then marks.(i) <- marks.(i + 1)
    done;
    Array.init parts (fun i -> marks.(i + 1) - marks.(i))
  in
  let w0 = now () in
  let t0 = ref infinity and finished = ref max_int in
  let slice = ref (w0, Steal.ticks ()) in
  let part_at t = int_of_float ((t -. !t0) /. part_len) in
  (* Called before each read: opens the window after a calm second, and
     finds where it ends. *)
  let window () =
    let t = now () in
    if !t0 = infinity then begin
      let ts, ss = !slice in
      if t -. ts >= 1.0 then begin
        let s = Steal.ticks () in
        if calm ~seconds:(t -. ts) (s - ss) || t -. w0 >= warm_up_budget then begin
          t0 := t;
          marks.(0) <- s
        end
        else slice := (t, s)
      end
    end
    else if !finished = max_int then begin
      let c = min max_parts (part_at t) in
      mark c;
      if c >= sub_windows then begin
        let calm_parts =
          Array.fold_left (fun n x -> if calm ~seconds:part_len x then n + 1 else n) 0 (steal_in c)
        in
        if nw > 0 || calm_parts >= sub_windows || c >= max_parts then finished := c
      end
    end
  in
  let send tail on_reply =
    incr attempted;
    incr next_id;
    let ts = now () in
    Wire.Send
      ( Gen.line ~id:!next_id tail,
        fun line tr ->
          if not (Replay.is_ok line) then begin
            incr failed;
            if !failed = 1 then prerr_endline ("perfbench: failed response: " ^ line)
          end
          else begin
            incr ok;
            (* [at]: the receive time in the window; None outside it. *)
            let at =
              if tr >= !t0 && part_at tr < !finished then Some (tr -. !t0) else None
            in
            Option.iter (fun at -> ok_at := at :: !ok_at) at;
            if !ok = rss_after w.Gen.kind then rss_mb := Wire.vm_hwm_mb srv;
            on_reply line ((tr -. ts) *. 1e3) at
          end )
  in
  let reader () =
    window ();
    if !finished < max_int then Wire.Done
    else begin
      let r = w.Gen.stream.(!cursor mod Array.length w.Gen.stream) in
      incr cursor;
      let lo = !acked in
      send r.Gen.tail (fun line ms at ->
          Option.iter
            (fun at ->
              read_ms := ms :: !read_ms;
              read_at := at :: !read_at)
            at;
          reads := { key = r.Gen.key; dg = Replay.digest line; lo; hi = !sent } :: !reads)
    end
  in
  (* Writes are spread evenly over the first 90% of the window. *)
  let spacing = if nw = 0 then 0.0 else 0.9 *. seconds /. float_of_int nw in
  let writer () =
    let k = !acked in
    if k = nw / 2 && not !snapshot_sent then begin
      snapshot_sent := true;
      send Gen.snapshot_tail (fun _ _ _ -> ())
    end
    else if k = nw then Wire.Done
    else if !t0 = infinity then Wire.Later (now () +. 0.05)
    else
      let due = !t0 +. (float_of_int k *. spacing) in
      if now () < due then Wire.Later due
      else begin
        incr sent;
        send (Gen.add_facts_tail w w.Gen.writes.(k)) (fun line ms _ ->
            incr acked;
            write_ms := ms :: !write_ms;
            write_lines := line :: !write_lines)
      end
  in
  Wire.drive conns ~next:(fun i -> if nw > 0 && i = 0 then writer () else reader ());
  Array.iter Wire.close conns;
  if !acked <> nw then fail "only %d of %d writes were acknowledged" !acked nw;
  if Float.is_nan !rss_mb then begin
    Printf.eprintf "perfbench: only %d ok responses; server_rss_mb read at the end of the window\n" !ok;
    rss_mb := Wire.vm_hwm_mb srv
  end;
  {
    reads = !reads;
    read_ms = !read_ms;
    read_at = !read_at;
    ok_at = !ok_at;
    part_len;
    part_steal = steal_in !finished;
    write_ms = !write_ms;
    write_lines = List.rev !write_lines;
    rss_mb = !rss_mb;
    attempted = !attempted;
    failed = !failed;
    warm_up_s = !t0 -. w0;
  }

let parts (wr : wire_result) = Array.length wr.part_steal
let window_s wr = float_of_int (parts wr) *. wr.part_len
let stolen (wr : wire_result) i = not (Steal.calm ~share:calm_share ~seconds:wr.part_len wr.part_steal.(i))

(* The parts the figures are taken over: the calm ones, or, when fewer
   than half are calm, the less stolen half (in a phase of steal that
   lasts minutes, no part is calm). On write-mix the parts are not alike:
   the reads slow down as the writes grow the data, so leaving out only
   the stolen parts would move the median toward whichever end of the
   window was calm. A part left out there also leaves out its mirror image
   (part n-1-i), so the parts kept stay centred on the middle of the
   window. *)
let kept_parts wr =
  let n = parts wr in
  let median = Stat.median (Array.to_list (Array.map float_of_int wr.part_steal)) in
  let quiet i = (not (stolen wr i)) || float_of_int wr.part_steal.(i) <= median in
  let keep i = quiet i && (wr.write_lines = [] || quiet (n - 1 - i)) in
  let all = List.init n Fun.id in
  match List.filter keep all with
  | kept when List.length kept >= 3 -> kept
  | _ -> all

let per_part (wr : wire_result) ats xs =
  let a = Array.make (parts wr) [] in
  List.iter2
    (fun at x ->
      let i = int_of_float (at /. wr.part_len) in
      if i < parts wr then a.(i) <- x :: a.(i))
    ats xs;
  a

let throughput (wr : wire_result) =
  let a = per_part wr wr.ok_at wr.ok_at in
  Stat.median (List.map (fun i -> float_of_int (List.length a.(i)) /. wr.part_len) (kept_parts wr))

(* Over the reads of the kept parts taken together: a part of read-datalog
   holds under 200 reads, too few for its own 99th percentile. *)
let read_quantile p (wr : wire_result) =
  let a = per_part wr wr.read_at wr.read_ms in
  Stat.quantile p (List.concat_map (fun i -> a.(i)) (kept_parts wr))

(* ------------------------------------------------------------------ *)
(* Server-side facts read over the wire                                *)

type stats = {
  counter : string -> int;
  peak : string -> int;
  fsync : bool option;
  entry : int * int;  (* delta_epoch, facts of the workload's entry *)
}

let server_stats srv =
  let c = Wire.connect srv in
  let line = Wire.rpc c {|{"id":0,"op":"stats"}|} in
  Wire.close c;
  let j =
    match Json.parse line with
    | Ok j -> j
    | Error msg -> fail "stats: %s" msg
  in
  let field obj k =
    match Json.obj_field obj j with
    | Some o -> Option.value ~default:0 (Json.int_field k o)
    | None -> 0
  in
  let entry =
    match Json.member "ontologies" j with
    | Some (Json.List (e :: _)) ->
      let int k = Option.value ~default:0 (Json.int_field k e) in
      (int "delta_epoch", int "facts")
    | _ -> (0, 0)
  in
  let fsync =
    match Json.member "store" j with
    | Some (Json.Obj _ as s) -> (
      match Json.member "fsync" s with
      | Some (Json.Bool b) -> Some b
      | _ -> None)
    | _ -> None
  in
  { counter = field "counters"; peak = field "peaks"; fsync; entry }

let probe (w : Gen.t) srv =
  let c = Wire.connect srv in
  let r =
    Array.map (fun p -> Replay.digest (Wire.rpc c (Gen.line ~id:p.Gen.key p.Gen.tail))) w.Gen.probes
  in
  Wire.close c;
  r

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

(* The oracle is the sequential in-process [Server.handle], run in a fresh
   child process (this executable, --oracle): answer order follows symbol
   intern order, so the oracle must intern the data in the order the
   server does — from the set-up requests, not from the generator. It
   answers each request line with the hex digest of the response body. *)
let oracle_ask (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Digest.from_hex (input_line ic)

let oracle_start (w : Gen.t) =
  let ch = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--oracle" |] in
  Wire.track (Unix.process_pid ch);
  List.iteri (fun i tail -> ignore (oracle_ask ch (Gen.line ~id:(-1 - i) tail))) (Gen.setup_tails w);
  ch

let oracle_stop ch =
  Wire.forget (Unix.process_pid ch);
  match Unix.close_process ch with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "the oracle process failed"

(* The child's side: one digest line per request line, until EOF. *)
let oracle_main () =
  let srv = Tgd_serve.Server.create () in
  (try
     while true do
       print_endline (Digest.to_hex (Replay.digest (Replay.handle srv (input_line stdin))))
     done
   with End_of_file -> ());
  Tgd_serve.Server.shutdown srv

type verdict = {
  mutable mismatches : int;
  mutable notes : string list;
}

let mismatch v fmt =
  Printf.ksprintf
    (fun s ->
      v.mismatches <- v.mismatches + 1;
      if List.length v.notes < 5 then v.notes <- s :: v.notes)
    fmt

(* Every response against the oracle. Read-only workloads: one expected
   body per key. write-mix: a read must match the oracle after some write k
   with lo <= k <= hi, and the i-th write response the oracle's i-th. *)
let check_wire v (w : Gen.t) (wr : wire_result) ~warm ~final =
  let oracle = oracle_start w in
  let expect_tail key =
    match w.Gen.kind with
    | Gen.Prepare_miss -> w.Gen.stream.(key).Gen.tail
    | Gen.Read_ucq | Gen.Read_datalog | Gen.Write_mix -> w.Gen.probes.(key).Gen.tail
  in
  let oracle_digest key = oracle_ask oracle (Gen.line ~id:0 (expect_tail key)) in
  (match w.Gen.kind with
  | Gen.Prepare_miss | Gen.Read_ucq | Gen.Read_datalog ->
    let keys = List.sort_uniq compare (List.map (fun r -> r.key) wr.reads) in
    let expected = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace expected k (oracle_digest k)) keys;
    List.iter
      (fun r ->
        if Hashtbl.find expected r.key <> r.dg then
          mismatch v "read of key %d differs from the oracle" r.key)
      wr.reads;
    Array.iteri
      (fun key dg ->
        if dg <> oracle_digest key then
          mismatch v "final answer of query %d differs from the oracle" key)
      final
  | Gen.Write_mix ->
    let nw = Array.length w.Gen.writes in
    let need = Array.make (nw + 1) [] in
    List.iter
      (fun r ->
        for k = r.lo to min nw r.hi do
          if not (List.mem r.key need.(k)) then need.(k) <- r.key :: need.(k)
        done)
      wr.reads;
    let at = Hashtbl.create 1024 in
    let writes = Array.of_list wr.write_lines in
    for k = 0 to nw do
      List.iter (fun key -> Hashtbl.replace at (key, k) (oracle_digest key)) need.(k);
      if k = nw then
        Array.iteri
          (fun key dg ->
            if dg <> oracle_digest key then
              mismatch v "final answer of query %d differs from the oracle" key)
          final
      else begin
        let dg = oracle_ask oracle (Gen.line ~id:0 (Gen.add_facts_tail w w.Gen.writes.(k))) in
        if dg <> Replay.digest writes.(k) then mismatch v "write %d response differs from the oracle" k
      end
    done;
    List.iter
      (fun r ->
        let rec ok k = k <= min nw r.hi && (Hashtbl.find at (r.key, k) = r.dg || ok (k + 1)) in
        if not (ok r.lo) then
          mismatch v "read of query %d matches no state between writes %d and %d" r.key r.lo r.hi)
      wr.reads);
  oracle_stop oracle;
  (* The alpha-renamed variants of one query must get one answer body: the
     cache and the oracle comparison both rest on it. The first variant of
     each query is the one that missed. *)
  match w.Gen.kind with
  | Gen.Prepare_miss -> ()
  | Gen.Read_ucq | Gen.Read_datalog | Gen.Write_mix ->
    List.iteri
      (fun i l ->
        let qi = i / Gen.variants and tag = i mod Gen.variants in
        if tag > 1 && Replay.body l <> Replay.body (List.nth warm ((qi * Gen.variants) + 1)) then
          mismatch v "variant %d of query %d answered differently" tag qi)
      warm

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = string * float * string

let json_metrics (ms : metric list) =
  let value n x =
    if Float.is_finite x then Printf.sprintf "%.17g" x else fail "metric %s is not finite" n
  in
  String.concat ", "
    (List.map (fun (n, x, u) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (value n x) u) ms)

let json_result ~correct ~attempted ~failed ms =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct attempted
    failed (json_metrics ms)

let host_line (w : Gen.t) ~seed ~seconds ~trace ~fsync wr =
  Printf.sprintf
    ({|{"host": {"host_cores": %d, "ocaml_version": "%s", "server_workers": %d, "fsync": %s, |}
    ^^ {|"workload": "%s", "seed": %d, "seconds": %g, "trace": %d, |}
    ^^ {|"warm_up_s": %.1f, "window_s": %.1f, "window_steal_share": %.4f, "stolen_parts": %d}}|})
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (min Wire.workers (Domain.recommended_domain_count ()))
    (match fsync with
    | Some b -> string_of_bool b
    | None -> {|"n/a"|})
    (Gen.name w.Gen.kind) seed seconds trace wr.warm_up_s (window_s wr)
    (float_of_int (Array.fold_left ( + ) 0 wr.part_steal)
    /. (window_s wr *. 100.0 *. float_of_int (Domain.recommended_domain_count ())))
    (List.length (List.filter (stolen wr) (List.init (parts wr) Fun.id)))

let q5_key = 4

(* The workloads whose q5 split is reported and checked: the university
   reads over the UCQ target. *)
let q5_checked = function
  | Gen.Read_ucq | Gen.Write_mix -> true
  | Gen.Read_datalog | Gen.Prepare_miss -> false

let unattributed (r : Replay.result) = Float.max 0.0 (Stat.median r.Replay.uncovered)

(* Per q5 round: the spans over the untraced time of the run beside it. *)
let q5_ratios (r : Replay.result) =
  List.map2 (fun s h -> if h > 0.0 then s /. h else 0.0) r.Replay.q5_spans_s r.Replay.q5_handle_s

let q5_share r = Stat.median (q5_ratios r)

let layer_metrics (r : Replay.result) : metric list =
  let tr = r.Replay.tr in
  let med name scale = Stat.median (Replay.times tr name) *. scale in
  let tot name = Replay.total tr name in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let kw name = tot (name ^ ".alloc_w") /. 1000.0 in
  [
    ("protocol.parse_us", med "protocol.parse" 1e6, "us");
    ("protocol.encode_ms", med "protocol.encode" 1e3, "ms");
    ("protocol.bytes_out", tot "protocol.bytes_out", "bytes");
    ("encode.build_ms", med "encode.build" 1e3, "ms");
    ("encode.alloc_kw", kw "encode.build", "kw");
    ("parser.query_us", med "parser.query" 1e6, "us");
    ("canon.us", med "canon" 1e6, "us");
    ("prepared.find_us", med "prepared.find" 1e6, "us");
    ("prepared.hit_ratio", ratio (tot "prepared.hits") (tot "prepared.finds"), "ratio");
    ("prepared.evictions", tot "prepared.evictions", "count");
    ("rewrite.ucq_ms", med "rewrite" 1e3, "ms");
    ("rewrite.generated", tot "rewrite.generated", "count");
    ("rewrite.kept", tot "rewrite.kept", "count");
    ("containment.checks", tot "containment.checks", "count");
    ("plan.us", med "plan" 1e6, "us");
    ("par_eval.ucq_ms", med "par_eval" 1e3, "ms");
    ("par_eval.answers", tot "par_eval.answers", "count");
    ("eval.steps", tot "eval.steps", "count");
    ("par_eval.alloc_kw", kw "par_eval", "kw");
    ("datalog_exec.ms", med "datalog_exec" 1e3, "ms");
    ("datalog_exec.alloc_kw", kw "datalog_exec", "kw");
    ("registry.add_facts_ms", med "registry.add_facts" 1e3, "ms");
    ("delta_chase.apply_ms", med "delta_chase.apply" 1e3, "ms");
    ("delta_chase.triggers", tot "delta_chase.triggers", "count");
    ("delta_chase.derived", tot "delta_chase.derived", "count");
    ("store.log_us", med "store.log" 1e6, "us");
    ("store.wal_bytes_per_record", ratio (tot "store.wal_bytes") (tot "store.wal_records"), "bytes");
    ("store.recover_ms", Stat.median r.Replay.recover_s *. 1e3, "ms");
    ("store.replay_ms", Stat.median r.Replay.replay_s *. 1e3, "ms");
    ("server.handle_ms", Stat.median r.Replay.exec_handle_s *. 1e3, "ms");
    ("server.handle_write_ms", Stat.median r.Replay.write_handle_s *. 1e3, "ms");
    ("unattributed_share", unattributed r, "share");
    ("trace.overhead_share", Stat.median r.Replay.slowdown -. 1.0, "share");
    ("q5.eval_encode_share", q5_share r, "share");
  ]

(* The counts that must repeat exactly for a fixed seed. *)
let exact_counts =
  [
    "protocol.bytes_out"; "encode.alloc_kw"; "prepared.hit_ratio"; "prepared.evictions";
    "rewrite.generated"; "rewrite.kept"; "containment.checks"; "par_eval.answers"; "eval.steps";
    "par_eval.alloc_kw"; "datalog_exec.alloc_kw"; "delta_chase.triggers"; "delta_chase.derived";
    "store.wal_bytes_per_record";
  ]

let replay w =
  Replay.run w ~ops:(Replay.ops w) ~q5:(if q5_checked w.Gen.kind then Some q5_key else None)

(* ------------------------------------------------------------------ *)
(* One benchmark run                                                   *)

let setup_rounds = 11

let run ~obda ~kind ~seed ~seconds ~trace =
  let w = Gen.make kind ~seed in
  let sock = Filename.concat Replay.run_dir (Printf.sprintf "obda-%d.sock" (Unix.getpid ())) in
  let v = { mismatches = 0; notes = [] } in
  (* Several set-ups; the last server stays up for the measurement. *)
  let setups =
    List.init setup_rounds (fun i ->
        let l = setup w ~obda ~sock in
        if i < setup_rounds - 1 then Wire.shutdown l.srv;
        l)
  in
  let live = List.nth setups (setup_rounds - 1) in
  let setup_s = Stat.median (List.map (fun l -> l.setup_s) setups) in
  let wr = timed_phase w live.srv ~seconds in
  let st = server_stats live.srv in
  let final = probe w live.srv in
  (* write-mix: kill -9, restart on the same directory (three times; the
     median is recover_s), then every acknowledged write must be there. *)
  let recover_s, store_bytes_per_fact =
    if not w.Gen.durable then (0.0, 0.0)
    else begin
      let acked_facts = live.loaded_facts + List.fold_left (fun a l -> a + added l) 0 wr.write_lines in
      let bytes_per_fact = float_of_int (dir_bytes data_dir) /. float_of_int acked_facts in
      Wire.kill live.srv;
      let restarts =
        List.init 3 (fun i ->
            let t0 = now () in
            let srv = Wire.spawn ~obda ~sock ~data_dir:(Some data_dir) in
            let c = Wire.connect srv in
            let pong = Wire.rpc c {|{"id":0,"op":"ping"}|} in
            let dt = now () -. t0 in
            Wire.close c;
            if not (Replay.is_ok pong) then fail "restart: %s" pong;
            if i < 2 then Wire.kill srv
            else begin
              (* The prepared cache is not durable: the first probe
                 warms it again, the second must match byte for byte. *)
              ignore (probe w srv);
              let after = probe w srv in
              if after <> final then mismatch v "answers after kill -9 and restart differ from before";
              let st' = server_stats srv in
              if st'.entry <> st.entry then
                mismatch v "restart recovered (delta_epoch, facts) = (%d, %d), acknowledged (%d, %d)"
                  (fst st'.entry) (snd st'.entry) (fst st.entry) (snd st.entry);
              Wire.shutdown srv
            end;
            dt)
      in
      Replay.rm_rf data_dir;
      (Stat.median restarts, bytes_per_fact)
    end
  in
  if not w.Gen.durable then Wire.shutdown live.srv;
  (try Sys.remove sock with Sys_error _ -> ());
  let rp = if trace then Some (replay w) else None in
  check_wire v w wr ~warm:live.warm ~final;
  let read_p50 = read_quantile 0.5 wr in
  (* End-to-end numbers that exist only on write-mix, or are 0 at this
     commit. BENCHMARK.json wants every end-to-end metric nonzero on every
     workload, so these ride beside the result with --trace 0 and among the
     per-layer metrics with --trace 1. *)
  let also =
    [
      ("write_p50_ms", Stat.median wr.write_ms, "ms");
      ("write_p95_ms", Stat.quantile 0.95 wr.write_ms, "ms");
      ("recover_s", recover_s, "s");
      ("store_bytes_per_fact", store_bytes_per_fact, "bytes");
      ("failed_share", float_of_int wr.failed /. float_of_int wr.attempted, "share");
    ]
  in
  let metrics =
    match rp with
    | None ->
      [
        ("throughput_rps", throughput wr, "1/s");
        ("read_p50_ms", read_p50, "ms");
        ("read_p99_ms", read_quantile 0.99 wr, "ms");
        ("setup_s", setup_s, "s");
        ("server_rss_mb", wr.rss_mb, "MiB");
      ]
    | Some r ->
      (match r.Replay.mismatches, r.Replay.first_mismatch with
      | 0, _ -> ()
      | n, note ->
        mismatch v "%d replayed responses differ from Server.handle: %s" n
          (Option.value ~default:"" note));
      (* The stage spans must cover 95% of the untraced handle time, and
         on q5 eval plus encode must. The same work timed twice differs by
         up to 2x on a busy host, so a share fails only when the 95%
         confidence interval of its median lies wholly past the limit. *)
      let uncovered_lo, _ = Stat.median_ci r.Replay.uncovered in
      if uncovered_lo > 0.05 then
        mismatch v "stage spans leave %.1f%% of the untraced handle time uncovered (at most 5%%)"
          (unattributed r *. 100.0);
      let _, q5_hi = Stat.median_ci (q5_ratios r) in
      if q5_checked kind && q5_hi < 0.95 then
        mismatch v "par_eval + encode cover %.1f%% of q5's untraced handle time (at least 95%%)"
          (q5_share r *. 100.0);
      layer_metrics r
      @ [
          ("net.overhead_ms", read_p50 -. (Stat.median r.Replay.exec_handle_s *. 1e3), "ms");
          ("serve.shed.overloaded", float_of_int (st.counter "serve.shed.overloaded"), "count");
          ("serve.shed.quota", float_of_int (st.counter "serve.shed.quota"), "count");
          ("serve.inflight.peak", float_of_int (st.peak "serve.inflight.peak"), "count");
        ]
      @ also
  in
  List.iter (fun n -> prerr_endline ("perfbench: MISMATCH " ^ n)) (List.rev v.notes);
  print_endline (host_line w ~seed ~seconds ~trace:(if trace then 1 else 0) ~fsync:st.fsync wr);
  if not trace then Printf.printf "{\"also\": {%s}}\n" (json_metrics also);
  Printf.eprintf "perfbench: %s seed %d: %d ops (%.1f s warm-up, %.1f s window), %d failed, %d mismatches\n%!"
    (Gen.name kind) seed wr.attempted wr.warm_up_s (window_s wr) wr.failed v.mismatches;
  print_endline
    (json_result ~correct:(v.mismatches = 0 && wr.failed = 0) ~attempted:wr.attempted ~failed:wr.failed
       metrics)

(* ------------------------------------------------------------------ *)
(* The count test: the replay's counts repeat exactly for a fixed seed     *)

let print_counts ~kind ~seed =
  let w = Gen.make kind ~seed in
  let r = replay w in
  if r.Replay.mismatches > 0 then fail "replay differs from Server.handle";
  List.iter
    (fun (n, x, _) -> if List.mem n exact_counts then Printf.printf "%s %.17g\n" n x)
    (layer_metrics r)

let self_test ~seed =
  let counts kind =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--counts"; "--workload"; Gen.name kind; "--seed"; string_of_int seed |]
    in
    let s = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> s
    | _ -> fail "count replay of %s failed" (Gen.name kind)
  in
  let bad =
    List.filter
      (fun kind ->
        let a = counts kind and b = counts kind in
        Printf.printf "%s %s (seed %d)\n%s%!"
          (if a = b then "[ok]" else "[MISMATCH]")
          (Gen.name kind) seed a;
        if a <> b then Printf.printf "second run:\n%s%!" b;
        a <> b)
      Gen.kinds
  in
  exit (if bad = [] then 0 else 1)

let () =
  let obda = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let mode = ref `Run in
  let set m = Arg.Unit (fun () -> mode := m) in
  Arg.parse
    [
      ("--obda", Arg.Set_string obda, "PATH  the obda binary to serve with");
      ( "--workload",
        Arg.Set_string workload,
        "NAME  read-ucq | read-datalog | prepare-miss | write-mix" );
      ("--seed", Arg.Set_int seed, "N  request-stream seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced per-layer replay (1)");
      ("--counts", set `Counts, " print the replay's exact counts and exit");
      ("--self-test", set `Self_test, " check that the counts repeat exactly");
      ("--oracle", set `Oracle, " answer request lines on stdin with response digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: layered serve benchmark";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Killed from outside, exit through at_exit, which stops the servers. *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists Replay.run_dir) then Sys.mkdir Replay.run_dir 0o755;
  let kind () =
    match Gen.of_name !workload with
    | Some k -> k
    | None -> fail "unknown workload %S" !workload
  in
  match !mode with
  | `Oracle -> oracle_main ()
  | `Self_test -> self_test ~seed:!seed
  | `Counts -> print_counts ~kind:(kind ()) ~seed:!seed
  | `Run ->
    if !obda = "" then fail "--obda is required";
    run ~obda:!obda ~kind:(kind ()) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
