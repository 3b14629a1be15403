(** Per-file Parsetree summaries: per top-level binding, the references,
    mutations (with target class and lock state), Pool/Domain task sites,
    parameters and local lets that {!Check} turns into findings.  The walk
    also emits the footgun rules (poly-compare, poly-hash, poly-equal,
    obj-magic, catch-all, toplevel-mutable). *)

type vref = { r_mod : string; r_name : string; r_line : int }

type target =
  | Owned  (** freshly allocated in this binding *)
  | Var of string  (** a parameter or non-owning local *)
  | Toplevel of string * string  (** a module-level value *)
  | Opaque

type lock =
  | Held
  | Unheld
  | Mixed

type mutation = { m_line : int; m_target : target; m_lock : lock }
type pool_site = { ps_kind : string; ps_task : Parsetree.expression; ps_line : int }

type call_site = {
  c_callee : string;
  c_args : (Asttypes.arg_label * Parsetree.expression) list;
  c_line : int;
}

type binding = {
  b_module : string;
  b_inner : string option;
  b_name : string;
  b_line : int;
  b_params : (string option * string option) list;
  b_mutable_value : bool;
  b_refs : vref list;
  b_muts : mutation list;
  b_pool : pool_site list;
  b_calls : call_site list;
  b_locals : (string * Parsetree.expression) list;
  mutable b_shared : bool;
}

(** Per-file resolution context (module name, toplevel names, aliases). *)
type ctx

type file = {
  f_path : string;
  f_module : string;
  f_in_lib : bool;
  f_spawns : bool;
  f_bindings : binding list;
  f_findings : Src.finding list;
  f_ctx : ctx;
}

val is_nolabel : Asttypes.arg_label -> bool

(** Free references of an expression under a file's context: the
    toplevel/qualified values it touches, plus the bare non-toplevel
    names it applies (candidate forwarded parameters). *)
val free_refs : ctx -> Parsetree.expression -> vref list * string list

(** Parse and summarise one implementation file.  [Error (line, what)]
    on a parse failure. *)
val summarise : path:string -> string -> (file, int * string) result
