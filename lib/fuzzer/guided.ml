module Cov = Iris_coverage.Cov
module Bitmap = Iris_coverage.Bitmap
module Prng = Iris_util.Prng
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager

type config = {
  iterations : int;
  prng_seed : int;
}

let default_config = { iterations = 10_000; prng_seed = 0x6D17 }

let max_stack = 4

let bitmap_size = 65536

type progress = {
  iteration : int;
  corpus_size : int;
  unique_lines : int;
  map_bytes : int;
  crashes : int;
}

type result = {
  seed_index : int;
  executed : int;
  corpus_size : int;
  unique_lines : int;
  baseline_lines : int;
  vm_crashes : int;
  hv_crashes : int;
  curve : progress list;
  crashing : (Seed.t * Campaign.failure_class * string) list;
  corpus : Seed.t array;
}

(* Stack 1..max_stack random single-bit mutations over both areas. *)
let mutate prng seed =
  let stack = 1 + Prng.int prng max_stack in
  let rec go n s =
    if n = 0 then s
    else begin
      let area =
        if Prng.bool prng then Mutation.Area_vmcs else Mutation.Area_gpr
      in
      match Mutation.random prng area s with
      | Some m -> go (n - 1) (Mutation.apply m s)
      | None -> go (n - 1) s
    end
  in
  go stack seed

let run_loop ~config ~manager ~recording ~reason ~guided =
  let trace = recording.Manager.trace in
  match Iris_core.Trace.seeds_with_reason trace reason with
  | [] -> None
  | candidates ->
      let replayer =
        Manager.make_dummy manager ~revert_to:recording.Manager.snapshot ()
      in
      let prng = Prng.of_int config.prng_seed in
      let target =
        List.nth candidates (Prng.int prng (List.length candidates))
      in
      let anchor =
        Campaign.anchor ~replayer ~trace ~seed_index:target.Seed.index ()
      in
      let virgin = Bitmap.create ~size:bitmap_size () in
      let scratch = Bitmap.create ~size:bitmap_size () in
      (* Baseline: the unmutated target. *)
      let _, base_span = Campaign.submit_probed replayer target in
      Campaign.restore ~replayer anchor;
      Bitmap.record_set scratch base_span;
      ignore (Bitmap.merge_new ~virgin scratch);
      let union = ref base_span in
      let corpus = ref [| target |] in
      let vm_crashes = ref 0 and hv_crashes = ref 0 in
      let crashing = ref [] in
      let curve = ref [] in
      let sample i =
        curve :=
          { iteration = i;
            corpus_size = Array.length !corpus;
            unique_lines = Cov.Pset.cardinal !union;
            map_bytes = Bitmap.set_bytes virgin;
            crashes = !vm_crashes + !hv_crashes }
          :: !curve
      in
      let sample_every = max 1 (config.iterations / 20) in
      for i = 1 to config.iterations do
        let parent =
          if guided then !corpus.(Prng.int prng (Array.length !corpus))
          else target
        in
        let mutant =
          if guided then mutate prng parent
          else begin
            (* The PoC rule: one bit-flip of the original seed. *)
            let area =
              if Prng.bool prng then Mutation.Area_vmcs
              else Mutation.Area_gpr
            in
            match Mutation.random prng area parent with
            | Some m -> Mutation.apply m parent
            | None -> parent
          end
        in
        let (failure, detail), span = Campaign.submit_probed replayer mutant in
        union := Cov.Pset.union !union span;
        Bitmap.reset scratch;
        Bitmap.record_set scratch span;
        let fresh = Bitmap.merge_new ~virgin scratch in
        (match failure with
        | Campaign.No_failure ->
            (* Novel, non-crashing mutants join the corpus. *)
            if guided && fresh > 0 then
              corpus := Array.append !corpus [| mutant |]
        | Campaign.Vm_crash ->
            incr vm_crashes;
            if List.length !crashing < 64 then
              crashing := (mutant, Campaign.Vm_crash, detail) :: !crashing
        | Campaign.Hypervisor_crash ->
            incr hv_crashes;
            if List.length !crashing < 64 then
              crashing :=
                (mutant, Campaign.Hypervisor_crash, detail) :: !crashing);
        Campaign.restore ~replayer anchor;
        if i mod sample_every = 0 then sample i
      done;
      sample config.iterations;
      Campaign.release ~replayer anchor;
      Some
        { seed_index = target.Seed.index;
          executed = config.iterations;
          corpus_size = Array.length !corpus;
          unique_lines = Cov.Pset.cardinal !union;
          baseline_lines = Cov.Pset.cardinal base_span;
          vm_crashes = !vm_crashes;
          hv_crashes = !hv_crashes;
          curve = List.rev !curve;
          crashing = List.rev !crashing;
          corpus = !corpus }

let run ~config ~manager ~recording ~reason =
  run_loop ~config ~manager ~recording ~reason ~guided:true

let naive_baseline ~config ~manager ~recording ~reason =
  run_loop ~config ~manager ~recording ~reason ~guided:false
