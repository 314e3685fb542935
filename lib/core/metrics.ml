module Cov = Iris_coverage.Cov
module F = Iris_vmcs.Field

type t = {
  coverage : Cov.Pset.t;
  writes : (F.t * int64) list;
  handler_cycles : int64;
}

let empty = { coverage = Cov.Pset.empty; writes = []; handler_cycles = 0L }

let guest_state_writes t =
  List.filter (fun (f, _) -> F.area f = F.Guest) t.writes

let writes_match ~recorded ~replayed =
  guest_state_writes recorded = guest_state_writes replayed

let vmwrite_fitting_pct ~recorded ~replayed =
  let n = min (List.length recorded) (List.length replayed) in
  if n = 0 then 100.0
  else begin
    let rec count i rec_l rep_l acc =
      if i = n then acc
      else
        match (rec_l, rep_l) with
        | a :: rest_a, b :: rest_b ->
            let acc =
              if writes_match ~recorded:a ~replayed:b then acc + 1 else acc
            in
            count (i + 1) rest_a rest_b acc
        | _, _ -> acc
    in
    let matched = count 0 recorded replayed 0 in
    100.0 *. float_of_int matched /. float_of_int n
  end

