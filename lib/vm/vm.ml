module Plan = Scdb_plan.Plan

type t = { plan : Plan.t; root : Observable.t; params : Params.t }

let compile ?(optimize = false) ~plan ~pieces () =
  match plan.Plan.task with
  | Plan.Sample _ | Plan.Report _ -> (
      try
        let plan = if optimize then Plan_obs.rewrite plan pieces else plan in
        let root = (Plan_obs.observables plan pieces).(plan.Plan.root.Plan.id) in
        let { Plan.gamma; eps; delta; _ } = plan in
        Ok { plan; root; params = Params.make ~gamma ~eps ~delta () }
      with Invalid_argument m -> Error m)
  | _ -> Error "only sample and report plans are executed"

let plan t = t.plan
let observable t = t.root
let sample_one t rng = Observable.sample_exn t.root rng t.params
let sample_iter t rng ~n f = Observable.sample_iter t.root rng t.params ~n f
let sample_many t rng ~n = Observable.sample_many t.root rng t.params ~n
