module Engine = Vmht_sim.Engine

type 'a outcome = Value of 'a | Raised of exn

type 'a t = 'a outcome Sync.Completion.t

let spawn ~engine f =
  let completion = Sync.Completion.create () in
  Engine.spawn engine (fun () ->
      let outcome = match f () with v -> Value v | exception e -> Raised e in
      Sync.Completion.complete completion outcome);
  completion

let join t =
  match Sync.Completion.await t with Value v -> v | Raised e -> raise e
