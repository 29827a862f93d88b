module Engine = Vmht_sim.Engine

type 'a outcome = Value of 'a | Raised of exn

type 'a t = {
  tname : string;
  completion : 'a outcome Sync.Completion.t;
  obs : Vmht_obs.Event.emitter option;
}

let body completion f () =
  let outcome = match f () with v -> Value v | exception e -> Raised e in
  Sync.Completion.complete completion outcome

let emit t kind = match t.obs with Some f -> f kind | None -> ()

let spawn ?obs ~engine ~name f =
  let completion = Sync.Completion.create () in
  let t = { tname = name; completion; obs } in
  emit t (Vmht_obs.Event.Thread_spawn { thread = name });
  Engine.spawn engine ~name (body completion f);
  t

let join t =
  match Sync.Completion.await t.completion with
  | Value v ->
    emit t (Vmht_obs.Event.Thread_join { thread = t.tname });
    v
  | Raised e -> raise e

let name t = t.tname
