(* Clean: a lib/ module whose interface is declared in its .mli. *)
let answer = 42
