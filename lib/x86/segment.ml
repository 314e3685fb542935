type name = Cs | Ds | Es | Fs | Gs | Ss | Tr | Ldtr

let all_names = [ Cs; Ds; Es; Fs; Gs; Ss; Tr; Ldtr ]

type t = { selector : int; base : int64; limit : int64; ar : int }

let pp fmt s =
  Format.fprintf fmt "sel=%04x base=%Lx limit=%Lx ar=%05x" s.selector s.base
    s.limit s.ar

let ar_type s = s.ar land 0xF

let ar_s s = s.ar land 0x10 <> 0

let ar_dpl s = (s.ar lsr 5) land 0x3

let ar_present s = s.ar land 0x80 <> 0

let ar_avl s = s.ar land 0x1000 <> 0

let ar_long s = s.ar land 0x2000 <> 0

let ar_db s = s.ar land 0x4000 <> 0

let ar_granularity s = s.ar land 0x8000 <> 0

let unusable s = s.ar land 0x10000 <> 0

let make_ar ?(typ = 0) ?(s = false) ?(dpl = 0) ?(present = false)
    ?(avl = false) ?(long = false) ?(db = false) ?(granularity = false)
    ?(unusable = false) () =
  (typ land 0xF)
  lor (if s then 0x10 else 0)
  lor ((dpl land 0x3) lsl 5)
  lor (if present then 0x80 else 0)
  lor (if avl then 0x1000 else 0)
  lor (if long then 0x2000 else 0)
  lor (if db then 0x4000 else 0)
  lor (if granularity then 0x8000 else 0)
  lor (if unusable then 0x10000 else 0)

let real_mode n =
  let typ = match n with Cs -> 0xB | _ -> 0x3 in
  { selector = 0; base = 0L; limit = 0xFFFFL;
    ar = make_ar ~typ ~s:true ~present:true () }

let flat_code32 =
  { selector = 0x08; base = 0L; limit = 0xFFFFFFFFL;
    ar = make_ar ~typ:0xB ~s:true ~present:true ~db:true ~granularity:true () }

let flat_data32 =
  { selector = 0x10; base = 0L; limit = 0xFFFFFFFFL;
    ar = make_ar ~typ:0x3 ~s:true ~present:true ~db:true ~granularity:true () }

let flat_code64 =
  { selector = 0x08; base = 0L; limit = 0xFFFFFFFFL;
    ar = make_ar ~typ:0xB ~s:true ~present:true ~long:true ~granularity:true () }

let flat_data64 =
  { selector = 0x10; base = 0L; limit = 0xFFFFFFFFL;
    ar = make_ar ~typ:0x3 ~s:true ~present:true ~granularity:true () }

let null_unusable = { selector = 0; base = 0L; limit = 0L; ar = 0x10000 }

let initial_tr =
  { selector = 0x18; base = 0L; limit = 0x67L;
    ar = make_ar ~typ:0xB ~present:true () }

let initial_ldtr =
  { selector = 0; base = 0L; limit = 0L;
    ar = make_ar ~typ:0x2 ~present:true () }

let entry_valid_cs s =
  (not (unusable s)) && ar_present s && ar_s s && ar_type s land 0x8 <> 0

let entry_valid_tr s =
  (not (unusable s))
  && ar_present s
  && (not (ar_s s))
  && (ar_type s = 3 || ar_type s = 11)
