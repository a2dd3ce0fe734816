(* The wire side: an `obda serve --listen unix:PATH` child process and the
   JSONL client connections that drive it. *)

type server = {
  pid : int;
  sock : string;
}

(* Every child still running when the benchmark exits — normally or by an
   exception — is killed and reaped, so no server outlives a run. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let track pid = live := pid :: !live
let forget pid = live := List.filter (( <> ) pid) !live

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes of the response line not yet complete *)
}

(* Connect, retrying while the server starts or recovers; fails at once
   if the server process has exited. *)
let connect server =
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX server.sock) with
    | () -> { fd; buf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] server.pid) <> 0 then begin
        forget server.pid;
        failwith "the server exited before accepting connections"
      end;
      ignore (Unix.select [] [] [] 0.002);
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One worker: with the default two, the event loop, two worker domains and
   the client share two cores, and every minor collection is a barrier
   across the domains, so the numbers follow the host's scheduler (and its
   steal time) more than the server's work. *)
let workers = 1

let spawn ~obda ~sock ~data_dir =
  let args =
    [ obda; "serve"; "--listen"; "unix:" ^ sock; "--workers"; string_of_int workers ]
    @ match data_dir with
      | None -> []
      | Some d -> [ "--data-dir"; d ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process obda (Array.of_list args) devnull Unix.stderr Unix.stderr in
  Unix.close devnull;
  track pid;
  { pid; sock }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let chunk = Bytes.create 65536

(* Feed received bytes; returns the completed line, if this chunk ends one.
   Clients keep at most one request outstanding per connection, so a chunk
   never holds more than the end of one line. *)
let feed c n =
  match Bytes.index_from_opt chunk 0 '\n' with
  | Some i when i < n ->
    Buffer.add_subbytes c.buf chunk 0 i;
    let line = Buffer.contents c.buf in
    Buffer.clear c.buf;
    if i + 1 < n then failwith "unsolicited bytes after a response line";
    Some line
  | Some _ | None ->
    Buffer.add_subbytes c.buf chunk 0 n;
    None

let rec read_line c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n -> (
    match feed c n with
    | Some line -> line
    | None -> read_line c)

(* One blocking request/response round trip. *)
let rpc c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

let wait server =
  ignore (Unix.waitpid [] server.pid);
  forget server.pid

let shutdown server =
  let c = connect server in
  ignore (rpc c {|{"id":0,"op":"shutdown"}|});
  close c;
  wait server

let kill server =
  Unix.kill server.pid Sys.sigkill;
  wait server

(* Peak resident set of a live child, in MiB. *)
let vm_hwm_mb server =
  let ic = open_in (Printf.sprintf "/proc/%d/status" server.pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Closed-loop client                                                  *)

type action =
  | Send of string * (string -> float -> unit)
      (** request line (no newline) and the handler of its response line,
          called with the receive time *)
  | Later of float  (** nothing to send before this time *)
  | Done  (** this connection is finished *)

type slot = {
  c : conn;
  mutable out : string;
  mutable pos : int;
  mutable handler : (string -> float -> unit) option;
  mutable finished : bool;
}

(* Drive the connections until every one is [Done] with nothing in flight.
   [next i] is asked for connection [i]'s next request whenever it is idle:
   each connection keeps at most one request outstanding (closed loop). A
   minute without any progress fails the run. *)
let drive conns ~next =
  let slots =
    Array.map (fun c -> { c; out = ""; pos = 0; handler = None; finished = false }) conns
  in
  let wake = ref infinity in
  let refill () =
    wake := infinity;
    Array.iteri
      (fun i s ->
        if Option.is_none s.handler && not s.finished then
          match next i with
          | Send (line, h) ->
            s.out <- line ^ "\n";
            s.pos <- 0;
            s.handler <- Some h
          | Later t -> wake := Float.min !wake t
          | Done -> s.finished <- true)
      slots
  in
  refill ();
  let progress = ref (Unix.gettimeofday ()) in
  while Array.exists (fun s -> Option.is_some s.handler) slots || !wake < infinity do
    let rd = ref [] and wr = ref [] in
    Array.iter
      (fun s ->
        if Option.is_some s.handler then begin
          if s.pos < String.length s.out then wr := s.c.fd :: !wr else rd := s.c.fd :: !rd
        end)
      slots;
    let timeout =
      if !wake = infinity then 5.0 else Float.max 0.0 (!wake -. Unix.gettimeofday ())
    in
    let r, w, _ = Unix.select !rd !wr [] timeout in
    if r <> [] || w <> [] then progress := Unix.gettimeofday ()
    else if !wake = infinity && Unix.gettimeofday () -. !progress > 60.0 then
      failwith "no response from the server for 60 s";
    Array.iter
      (fun s ->
        if List.mem s.c.fd w then
          s.pos <- s.pos + Unix.write_substring s.c.fd s.out s.pos (String.length s.out - s.pos);
        if List.mem s.c.fd r then
          match Unix.read s.c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "server closed a connection mid-request"
          | n -> (
            match feed s.c n with
            | None -> ()
            | Some line ->
              let t = Unix.gettimeofday () in
              let h = Option.get s.handler in
              s.handler <- None;
              h line t))
      slots;
    refill ()
  done
