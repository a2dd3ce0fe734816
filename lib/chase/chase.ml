open Tgd_logic
open Tgd_db
open Tgd_exec

type variant =
  | Oblivious
  | Restricted

type outcome =
  | Terminated
  | Truncated of Governor.diagnostics

type stats = {
  outcome : outcome;
  rounds : int;
  new_facts : int;
  nulls : int;
  triggers_fired : int;
}

module Key_table = Hashtbl.Make (struct
  type t = string * Tuple.t

  let equal (n1, t1) (n2, t2) = String.equal n1 n2 && Tuple.equal t1 t2
  let hash (n, t) = (Hashtbl.hash n * 31) + Tuple.hash t
end)

let default_governor ~max_rounds ~max_facts () =
  Governor.create
    ~budget:
      {
        Budget.unlimited with
        Budget.chase_rounds = Some max_rounds;
        chase_facts = Some max_facts;
      }
    ()

let run ?(variant = Restricted) ?(max_rounds = 1_000) ?(max_facts = 1_000_000) ?gov program inst =
  let gov = match gov with Some g -> g | None -> default_governor ~max_rounds ~max_facts () in
  let tele = Governor.telemetry gov in
  (* Start past every null already in the instance: re-chasing a chased
     model must not mint a null it already holds. *)
  let gen = Null_gen.create ~start:(Instance.max_null inst) () in
  let fired : unit Key_table.t = Key_table.create 256 in
  let new_facts = ref 0 in
  let triggers_fired = ref 0 in
  let rounds = ref 0 in
  (* Set when a budget stop skipped pending triggers mid-round: the empty
     final delta then does not mean a fixpoint was reached. *)
  let skipped_work = ref false in
  let apply_trigger ~delta_out tr =
    let k = Trigger.key tr in
    if not (Key_table.mem fired k) then begin
      Key_table.add fired k ();
      let fire () =
        incr triggers_fired;
        Governor.charge gov Budget.key_chase_triggers;
        List.iter
          (fun (pred, t) ->
            if Instance.add_fact inst pred t then begin
              incr new_facts;
              let existing = Option.value ~default:[] (Symbol.Table.find_opt delta_out pred) in
              Symbol.Table.replace delta_out pred (t :: existing)
            end)
          (Trigger.head_facts tr gen)
      in
      match variant with
      | Oblivious -> fire ()
      | Restricted -> if not (Trigger.is_satisfied ~gov tr inst) then fire ()
    end
  in
  let round delta =
    let delta_out : Tuple.t list Symbol.Table.t = Symbol.Table.create 16 in
    let triggers = Trigger.find_new ~gov program inst ~delta in
    (* Budget checks sit at the trigger loop head, not just between rounds:
       a single round over a large delta can fire unboundedly many
       triggers. Discovery itself is governed too ([eval.steps]): the
       governor was live when this round began, so a stop observed here
       means [find_new] was cut short and its trigger list is partial. *)
    if Governor.stopped gov <> None then skipped_work := true;
    List.iter
      (fun tr ->
        if Governor.live gov then apply_trigger ~delta_out tr else skipped_work := true)
      triggers;
    incr rounds;
    Governor.charge gov Budget.key_chase_rounds;
    Governor.gauge gov Budget.key_chase_facts (Instance.cardinality inst);
    delta_out
  in
  let delta = ref (round None) in
  while Governor.live gov && Symbol.Table.length !delta > 0 do
    delta := round (Some !delta)
  done;
  Telemetry.gauge tele "chase.nulls" (Null_gen.count gen);
  let outcome =
    if Symbol.Table.length !delta > 0 || !skipped_work then begin
      (* The loop only exits with pending work when the governor stopped;
         make sure a reason is latched even on an exotic path. *)
      if Governor.stopped gov = None then
        Governor.stop gov
          (Governor.Limit { counter = Budget.key_chase_rounds; limit = max_rounds });
      Truncated (Option.get (Governor.diagnostics gov))
    end
    else Terminated
  in
  {
    outcome;
    rounds = !rounds;
    new_facts = !new_facts;
    nulls = Null_gen.count gen;
    triggers_fired = !triggers_fired;
  }
