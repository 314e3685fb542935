let exit_transition = 22_000

let entry_transition = 18_000

let dispatch_base = 24_000

let event_injection = 2_000

let vmread_cost = 120

let vmwrite_cost = 150

let timer_interrupt_period = 14_400_000
