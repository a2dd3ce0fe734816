(** The chase: saturate an instance with the TGDs, inventing labeled nulls
    for existential head variables.

    Both the oblivious chase (fire every trigger once) and the restricted
    a.k.a. standard chase (fire only triggers whose head is not already
    satisfied) are provided. The chase proceeds in breadth-first rounds,
    which makes it fair: every trigger is eventually considered, so when the
    run terminates the result is a universal model of [(P, D)] and certain
    answers coincide with the null-free answers over it.

    The chase need not terminate outside the weakly-acyclic classes, so the
    loop is governed: a {!Tgd_exec.Governor} is polled at the round head
    {e and} at every trigger application, and trigger/round/fact work is
    charged against its budget. When the governor stops (budget, deadline,
    or external cancellation) the run winds down cooperatively and reports
    [Truncated] with the governor's diagnostics — a sound
    under-approximation, never a hang, never an exception. *)

open Tgd_logic
open Tgd_db
open Tgd_exec

type variant =
  | Oblivious
  | Restricted

type outcome =
  | Terminated  (** fixpoint reached: the instance is a universal model *)
  | Truncated of Governor.diagnostics
      (** a budget, the deadline or cancellation stopped the run first; the
          diagnostics carry how far it got (rounds, triggers fired, facts) *)

type stats = {
  outcome : outcome;
  rounds : int;
  new_facts : int;
  nulls : int;
  triggers_fired : int;
}

val run :
  ?variant:variant ->
  ?max_rounds:int ->
  ?max_facts:int ->
  ?gov:Governor.t ->
  Program.t ->
  Instance.t ->
  stats
(** Mutates the instance. Invented nulls are numbered past the largest
    null the instance already holds ({!Tgd_db.Instance.max_null}), so
    chasing a chased model never merges two distinct nulls. Defaults:
    [Restricted], [max_rounds = 1_000], [max_facts = 1_000_000]. When
    [gov] is supplied it takes over budgeting entirely
    ([max_rounds]/[max_facts] are ignored — configure the governor's
    {!Tgd_exec.Budget} instead) and the run's counters land in its
    telemetry under the [chase.*] keys, plus [eval.steps] for the
    trigger-discovery join search, which the governor also bounds. *)
