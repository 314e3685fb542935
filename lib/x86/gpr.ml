type reg =
  | Rax | Rcx | Rdx | Rbx | Rbp | Rsi | Rdi
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let all =
  [| Rax; Rcx; Rdx; Rbx; Rbp; Rsi; Rdi; R8; R9; R10; R11; R12; R13; R14; R15 |]

let count = Array.length all

let encode = function
  | Rax -> 0 | Rcx -> 1 | Rdx -> 2 | Rbx -> 3 | Rbp -> 4
  | Rsi -> 5 | Rdi -> 6 | R8 -> 7 | R9 -> 8 | R10 -> 9
  | R11 -> 10 | R12 -> 11 | R13 -> 12 | R14 -> 13 | R15 -> 14

let decode i = if i >= 0 && i < count then Some all.(i) else None

let name = function
  | Rax -> "rax" | Rcx -> "rcx" | Rdx -> "rdx" | Rbx -> "rbx"
  | Rbp -> "rbp" | Rsi -> "rsi" | Rdi -> "rdi" | R8 -> "r8"
  | R9 -> "r9" | R10 -> "r10" | R11 -> "r11" | R12 -> "r12"
  | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

let pp fmt r = Format.pp_print_string fmt (name r)

type file = int64 array

let create () = Array.make count 0L

let get file r = file.(encode r)

let set file r v = file.(encode r) <- v

let copy = Array.copy

let copy_into ~src ~dst = Array.blit src 0 dst 0 count

let iter f file = Array.iteri (fun i v -> f all.(i) v) file

let equal a b = a = b
