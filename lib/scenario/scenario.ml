module R = Iris_vtx.Exit_reason
module Mutation = Iris_fuzzer.Mutation

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let wall_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let campaign_reason = R.Rdtsc

let campaign_area = Mutation.Area_vmcs

let plant_position ~exits = exits * 3 / 5

let plant ~at seeds =
  let kind = Iris_inspect.Synthetic.Crash_rip in
  match Iris_inspect.Synthetic.perturb ~kind ~at seeds with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "no seed at or after #%d reads guest RIP" at)

let serve_specs =
  let spec ~tenant ~priority ~reason ~area ~prng_seed =
    Iris_service.Jobspec.make ~tenant ~priority ~boot_scale:0.05
      ~workload:Iris_guest.Workload.Cpu_bound ~exits:1_200 ~reason ~area
      ~mutations:400 ~prng_seed ()
  in
  let alice = spec ~tenant:"alice" ~priority:3
  and bob = spec ~tenant:"bob" ~priority:1 in
  [ alice ~reason:R.Rdtsc ~area:Mutation.Area_gpr ~prng_seed:21;
    alice ~reason:R.Rdtsc ~area:Mutation.Area_gpr ~prng_seed:22;
    alice ~reason:R.Rdtsc ~area:Mutation.Area_vmcs ~prng_seed:21;
    bob ~reason:R.Cpuid ~area:Mutation.Area_vmcs ~prng_seed:21;
    bob ~reason:R.Cpuid ~area:Mutation.Area_vmcs ~prng_seed:22;
    bob ~reason:R.Cpuid ~area:Mutation.Area_gpr ~prng_seed:21 ]
