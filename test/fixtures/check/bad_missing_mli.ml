(* Seeded violation: a lib/ module with no companion .mli. *)
let answer = 42
