open Horse_net

type match_ = Any | Exact of Prefix.t | Within of Prefix.t | Has_community of int

type action = Accept | Reject | Accept_with of modifier list

and modifier =
  | Set_local_pref of int
  | Set_med of int
  | Prepend of int * int
  | Add_community of int
  | Remove_community of int

type rule = { match_ : match_; action : action }

type t = rule list

(* The action when no rule matches. *)
let no_match = Accept

let make rules = rules
let accept_all = []

let match_equal a b =
  match (a, b) with
  | Any, Any -> true
  | Exact p, Exact q | Within p, Within q -> Prefix.equal p q
  | Has_community c, Has_community d -> c = d
  | (Any | Exact _ | Within _ | Has_community _), _ -> false

let modifier_equal (a : modifier) (b : modifier) = a = b

let action_equal a b =
  match (a, b) with
  | Accept, Accept | Reject, Reject -> true
  | Accept_with m, Accept_with n -> List.equal modifier_equal m n
  | (Accept | Reject | Accept_with _), _ -> false

let rule_equal a b =
  match_equal a.match_ b.match_ && action_equal a.action b.action

let equal a b = a == b || List.equal rule_equal a b

let prefix_independent t =
  List.for_all
    (fun r ->
      match r.match_ with
      | Any | Has_community _ -> true
      | Exact _ | Within _ -> false)
    t

let matches m prefix (attrs : Msg.attrs) =
  match m with
  | Any -> true
  | Exact p -> Prefix.equal p prefix
  | Within p -> Prefix.subset prefix p
  | Has_community c -> List.mem c attrs.Msg.communities

let apply_modifier (attrs : Msg.attrs) = function
  | Set_local_pref l -> { attrs with Msg.local_pref = Some l }
  | Set_med m -> { attrs with Msg.med = Some m }
  | Prepend (asn, times) ->
      let rec prepend n path = if n = 0 then path else prepend (n - 1) (asn :: path) in
      { attrs with Msg.as_path = prepend times attrs.Msg.as_path }
  | Add_community c ->
      {
        attrs with
        Msg.communities = List.sort_uniq Int.compare (c :: attrs.Msg.communities);
      }
  | Remove_community c ->
      {
        attrs with
        Msg.communities = List.filter (fun c' -> c' <> c) attrs.Msg.communities;
      }

let run_action action attrs =
  match action with
  | Accept -> Some attrs
  | Reject -> None
  | Accept_with mods -> Some (List.fold_left apply_modifier attrs mods)

let eval t prefix attrs =
  let rec go = function
    | [] -> run_action no_match attrs
    | rule :: rest ->
        if matches rule.match_ prefix attrs then run_action rule.action attrs
        else go rest
  in
  go t
