(* Steal time: the time the hypervisor ran other guests while this VM's
   CPUs had work to do. On a shared 2-vCPU VM it comes in phases of seconds
   to a minute, and at 30% steal the server serves less than half as many
   requests per second, so a window that overlaps such a phase measures
   the neighbours. An idle VM shows no steal, so it can only be seen under
   load. *)

(* Steal in clock ticks (1/100 s), summed over the CPUs: the eighth value of
   the cpu line of /proc/stat. 0 on a host that does not report it, so such
   a host is always calm. *)
let ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
    | _ -> 0)
  | None -> 0
  | exception Sys_error _ -> 0

(* A span of [seconds] is calm when the host stole at most [share] of the
   CPU time in it. Calm seconds under the benchmark's load read 0-2 ticks
   on the 2-vCPU VM, stolen ones 20-60. *)
let calm ~share ~seconds ticks =
  float_of_int ticks <= share *. seconds *. 100.0 *. float_of_int (Domain.recommended_domain_count ())
