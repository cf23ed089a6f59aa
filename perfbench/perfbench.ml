(* perfbench — the serving benchmark's OCaml half.

   perfbench/run.py orchestrates one run out of the subcommands below:

     pack          build a workload's graph and its edge subset X, pack
                   them with Serve.Pack (exhaustive certification) and
                   write the snapshot
     serve-router  serve a sharded container through Serve.Router under
                   a resident budget given in bytes (advice_store's
                   --resident-mb counts whole MiB, coarser than the
                   benchmark's container)
     probe         one query against a running server, checked against X:
                   the end of set-up
     drive         the closed-loop generator: warm, then a timed phase
                   over one connection, every answer checked against X
     layers        time each layer's public functions from outside, on
                   the workload's own snapshot and queries
     check-sampled count the nodes a sampled certification gets wrong

   The oracle never consults an engine: an [Output_label] answer must
   equal the X-membership bits of the node's incident edges in
   sorted-neighbour order, an [Edge_member] answer the membership of the
   edge, and an [Advice_bits] answer (and every packed advice string)
   must fit the paper's ⌈d/2⌉+1 bits.  All times come from the
   monotonic clock. *)

open Cmdliner
open Netgraph

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Seconds taken by [f ()], with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k land 1 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* One JSON object of numeric fields on one line: the interface between
   this executable and run.py.  Fields not measured (nan) are left out. *)
let print_json fields =
  let fields = List.filter (fun (_, v) -> not (Float.is_nan v)) fields in
  let field (k, v) =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%S: %.0f" k v
    else Printf.sprintf "%S: %.17g" k v
  in
  print_endline ("{" ^ String.concat ", " (List.map field fields) ^ "}")

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = Mono_cold | Mono_hot | Sharded_evict

let workload_conv =
  Arg.enum
    [ ("mono-cold", Mono_cold); ("mono-hot", Mono_hot); ("sharded-evict", Sharded_evict) ]

let sharded = function Sharded_evict -> true | Mono_cold | Mono_hot -> false

(* Input make-up, recorded in perfbench/README.md. *)
let nodes = 4096
let store_shards = 16
let hot_set = 256
let window = 64
let batch_size = 128
let x_period = 8
let hot_stream = 65_536
let batch_count = 64
let resident_shards = 4
let memo_capacity = 4096
let warm_seconds = 1.0

(* X comes from the fixed seed [x_seed], the queries from the run's
   seed, because X decides the certified radius.  On this cycle (identity
   ids) radius-2 balls decode wrong labels only at the id seam, nodes n-2
   to 1, on the seeds looked at; certification tries radius 2 first and
   keeps it when X leaves those labels right.  That happens for about 2%
   of the mono seeds and 4% of the sharded patterns (radius 39-43 for
   the rest), and there the cold workload runs 7x faster: a seeded X
   would make such a run another workload.  [x_seed] = 1 certifies at
   radius 43 (mono) and 42 (sharded-evict). *)
let x_seed = 1

let graph () = Builders.cycle nodes

(* X: a fair coin per edge on the mono workloads; on sharded-evict a
   random pattern of period [x_period] along the cycle, so that balls
   repeat and the canonical-ball memo has classes to share. *)
let subset w g =
  let x_rng = Prng.split (Prng.create x_seed) in
  let x = Bitset.create (Graph.m g) in
  (match w with
  | Mono_cold | Mono_hot ->
      Graph.iter_edges (fun e _ -> if Prng.bool x_rng then Bitset.add x e) g
  | Sharded_evict ->
      let n = Graph.n g in
      let pattern = Array.init x_period (fun _ -> Prng.bool x_rng) in
      for i = 0 to n - 1 do
        if pattern.(i mod x_period) then
          Bitset.add x (Graph.edge_id g i ((i + 1) mod n))
      done);
  x

let member_query g v i =
  let inc = Graph.incident_edges g v in
  Serve.Engine.Edge_member (v, inc.(i mod Array.length inc))

let mixed_query g v i =
  match i mod 3 with
  | 0 -> Serve.Engine.Output_label v
  | 1 -> member_query g v i
  | _ -> Serve.Engine.Advice_bits v

(* The query stream a run cycles through.  mono-cold names the next node
   of a permutation (labels and memberships, both of which need a
   ball), so a node recurs only [n] queries later, far past the
   1024-entry ball cache.  mono-hot draws all three kinds from a hot
   set with a cubic skew toward its head.  sharded-evict draws nodes
   uniformly, so each batch touches every shard. *)
let stream w seed g =
  let rng = Prng.create seed in
  let n = Graph.n g in
  match w with
  | Mono_cold ->
      let perm = Prng.permutation rng n in
      Array.init n (fun i ->
          let v = perm.(i) in
          if i land 1 = 0 then Serve.Engine.Output_label v
          else member_query g v (i / 2))
  | Mono_hot ->
      let hot = Array.sub (Prng.permutation rng n) 0 hot_set in
      Array.init hot_stream (fun i ->
          let u = Prng.float rng 1.0 in
          mixed_query g hot.(int_of_float (u *. u *. u *. float_of_int hot_set)) i)
  | Sharded_evict ->
      Array.init (batch_count * batch_size) (fun i -> mixed_query g (Prng.int rng n) i)

(* ------------------------------------------------------------------ *)
(* The oracle *)

type oracle = { g : Graph.t; x : Bitset.t; labels : string array }

let oracle g x =
  let label v =
    let nb = Graph.neighbors g v in
    String.init (Array.length nb) (fun i ->
        if Bitset.mem x (Graph.edge_id g v nb.(i)) then '1' else '0')
  in
  { g; x; labels = Array.init (Graph.n g) label }

(* ⌈d/2⌉+1: the paper's per-node advice budget for degree d. *)
let bits_bound d = ((d + 1) / 2) + 1

let advice_fits o v s =
  String.length s <= bits_bound (Graph.degree o.g v)
  && String.for_all (fun c -> c = '0' || c = '1') s

let check o q a =
  match (q, a) with
  | Serve.Engine.Output_label v, Serve.Engine.Label s -> String.equal s o.labels.(v)
  | Serve.Engine.Edge_member (_, e), Serve.Engine.Member b -> b = Bitset.mem o.x e
  | Serve.Engine.Advice_bits v, Serve.Engine.Bits s -> advice_fits o v s
  | _ -> false

let workload_oracle w =
  let g = graph () in
  oracle g (subset w g)

(* ------------------------------------------------------------------ *)
(* pack *)

(* The (global node, advice string) pairs of a loaded shard's interior. *)
let interior_advice (l : Store.Shard.loaded) =
  let a = List.assoc "c4" l.Store.Shard.l_advice in
  List.filter_map
    (fun i ->
      let v = l.Store.Shard.l_ids.(i) in
      if v >= l.Store.Shard.l_lo && v < l.Store.Shard.l_hi then Some (v, a.(i)) else None)
    (List.init (Array.length a) Fun.id)

let widest_frame infos = Array.fold_left (fun acc i -> max acc i.Store.Shard.i_bytes) 0 infos

let pack w out trace =
  let g = graph () in
  let x = subset w g in
  let o = oracle g x in
  let encode_s =
    if trace then snd (timed (fun () -> Schemas.Edge_compression.encode g x)) else nan
  in
  let t0 = now_ns () in
  let bytes, cert, advice_ok =
    if sharded w then begin
      let bytes, cert = Serve.Pack.edge_compression_sharded ~shards:store_shards g x in
      let store = Store.Shard.open_bytes bytes in
      let infos = (Store.Shard.manifest store).Store.Shard.m_shards in
      let fits info =
        List.for_all
          (fun (v, s) -> advice_fits o v s)
          (interior_advice (Store.Shard.load store info.Store.Shard.i_index))
      in
      (bytes, cert, Array.for_all fits infos)
    end
    else begin
      let snapshot, cert = Serve.Pack.edge_compression g x in
      let advice = List.assoc "c4" snapshot.Store.Snapshot.advice in
      ( Store.Snapshot.write snapshot,
        cert,
        Seq.for_all (fun (v, s) -> advice_fits o v s) (Array.to_seqi advice) )
    end
  in
  let pack_s = since t0 in
  let (), write_s = timed (fun () -> Store.Io.write_file out bytes) in
  print_json
    [
      ("radius", float_of_int cert.Serve.Pack.radius);
      ("exhaustive", if cert.Serve.Pack.exhaustive then 1.0 else 0.0);
      ("bytes", float_of_int (String.length bytes));
      ("advice_ok", if advice_ok then 1.0 else 0.0);
      ("pack_s", pack_s);
      ("encode_s", encode_s);
      ("certify_s", pack_s -. encode_s);
      ("write_s", write_s);
    ]

(* ------------------------------------------------------------------ *)
(* serve-router *)

(* Obs recording for the traced run, as advice_store's --metrics. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.Trace.set_clock now_ns;
      Obs.Sink.enable ();
      f ();
      Obs.Sink.write_json ~events:32 path;
      Obs.Sink.disable ()

(* The resident budget is [resident_shards] of the widest shard frame,
   in bytes.  One batch domain, as [advice_store serve --domains 1]: the
   server is pinned to one core (the generator has the other), so a
   second domain would only take turns with the first on it. *)
let serve_router path metrics =
  with_metrics metrics @@ fun () ->
  let store = Store.Shard.open_file path in
  let budget = resident_shards * widest_frame (Store.Shard.manifest store).Store.Shard.m_shards in
  let router =
    Serve.Router.create ~resident_budget:budget
      ~memo:(Serve.Memo.create ~capacity:memo_capacity) store
  in
  let config = { Net.Server.default_config with Net.Server.domains = Some 1 } in
  let server = Net.Server.create_backend ~config (Net.Server.of_router router) in
  Printf.printf "listening on 127.0.0.1:%d (router, budget %d bytes)\n%!"
    (Net.Server.port server) budget;
  let stop _ = Net.Server.shutdown server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Net.Server.run server

(* ------------------------------------------------------------------ *)
(* probe *)

let probe w seed port =
  let o = workload_oracle w in
  let q = (stream w seed o.g).(0) in
  let c = Net.Client.connect ~port () in
  let ok = check o q (Net.Client.query c q) in
  Net.Client.close c;
  if not ok then begin
    prerr_endline "probe: the first answer disagrees with X";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* drive *)

(* Latency histogram: log-spaced buckets 0.2% wide from 1 ns to about
   a minute.  Recording allocates nothing, so the generator's own GC
   stays out of the measured tail. *)
module Hist = struct
  let growth = 1.002
  let buckets = 12_500
  let log_growth = log growth

  let create () = Array.make buckets 0

  let add h ns =
    let i = if ns <= 1 then 0 else min (buckets - 1) (int_of_float (log (float_of_int ns) /. log_growth)) in
    h.(i) <- h.(i) + 1

  let merge hs =
    let h = create () in
    List.iter (Array.iteri (fun i c -> h.(i) <- h.(i) + c)) hs;
    h

  (* Nearest-rank percentile in nanoseconds, interpolated inside its
     bucket by rank. *)
  let percentile h p =
    let count = Array.fold_left ( + ) 0 h in
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int count))) in
    let rec go i seen =
      if seen + h.(i) >= rank || i = buckets - 1 then
        let lo = growth ** float_of_int i in
        let frac = (float_of_int (rank - seen) -. 0.5) /. float_of_int (max 1 h.(i)) in
        lo *. (growth ** frac)
      else go (i + 1) (seen + h.(i))
    in
    if count = 0 then nan else go 0 0
end

(* utime + stime of a process, from /proc/<pid>/stat, in seconds (the
   kernel's USER_HZ is 100 on Linux). *)
let proc_cpu_s pid =
  let line = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) input_line in
  let close = String.rindex line ')' in
  let fields = String.sub line (close + 2) (String.length line - close - 2) in
  let f = Array.of_list (String.split_on_char ' ' fields) in
  (* Fields 14 and 15 of stat(5); [fields] starts at field 3. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let vm_hwm_kb pid =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
    |> String.split_on_char '\n'
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> nan
  | Some l -> Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" float_of_int

let own_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A phase is cut into equal windows (one second each in the timed
   phase); each keeps its latency histogram and answered queries, and
   [edges] the wall and CPU clocks (server, own) at the first answer
   past each window's start.  The end-to-end figures are medians over
   windows, so a burst of interference on a shared host moves one
   window, not the run. *)
type window = { lat : int array; mutable recorded : int; mutable queries : int }

type tally = {
  mutable attempted : int;  (** queries sent *)
  mutable failed : int;  (** answered with an error frame *)
  mutable wrong : int;  (** answered, but not as X says *)
  pid : int;
  t0 : int64;
  step : int64;
  wins : window array;
  edges : (int64 * float * float) option array;
}

let new_tally ~pid ~seconds ~windows =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    pid;
    t0 = now_ns ();
    step = Int64.of_float (seconds *. 1e9 /. float_of_int windows);
    wins = Array.init windows (fun _ -> { lat = Hist.create (); recorded = 0; queries = 0 });
    edges = Array.make (windows + 1) None;
  }

let mark t k now =
  if t.edges.(k) = None then t.edges.(k) <- Some (now, proc_cpu_s t.pid, own_cpu_s ())

(* One answered request ([queries] of them for a batch) at [now]. *)
let record t ~now ~sent ~queries =
  let last = Array.length t.wins - 1 in
  let k = min last (Int64.to_int (Int64.div (Int64.sub now t.t0) t.step)) in
  for j = 0 to k do mark t j now done;
  let w = t.wins.(k) in
  Hist.add w.lat (Int64.to_int (Int64.sub now sent));
  w.recorded <- w.recorded + 1;
  w.queries <- w.queries + queries

let answer t o q = function
  | Net.Protocol.Answer a -> if not (check o q a) then t.wrong <- t.wrong + 1
  | Net.Protocol.Error _ -> t.failed <- t.failed + 1
  | _ -> t.wrong <- t.wrong + 1

(* Closed loop of single queries, [window] in flight, from [pos] in the
   stream until [seconds] have passed; the window then drains.  Returns
   the next stream position.  Latency runs from send to checked answer. *)
let run_singles c o stream t ~pos ~seconds =
  let n = Array.length stream in
  let qs = Array.make window stream.(0) in
  let sent_at = Array.make window 0L in
  let sent = ref 0 and received = ref 0 in
  let deadline = Int64.add t.t0 (Int64.of_float (seconds *. 1e9)) in
  let send () =
    let q = stream.((pos + !sent) mod n) in
    let slot = !sent mod window in
    qs.(slot) <- q;
    sent_at.(slot) <- now_ns ();
    Net.Client.send c (Net.Protocol.Query q);
    incr sent
  in
  while !sent < window do send () done;
  let sending = ref true in
  while !received < !sent do
    let slot = !received mod window in
    answer t o qs.(slot) (Net.Client.recv c);
    incr received;
    let now = now_ns () in
    record t ~now ~sent:sent_at.(slot) ~queries:1;
    if !sending && now >= deadline then sending := false;
    if !sending then send ()
  done;
  t.attempted <- t.attempted + !sent;
  pos + !sent

(* Closed loop of batch frames, one in flight; latency is per batch. *)
let run_batches c o batches t ~pos ~seconds =
  let nb = Array.length batches in
  let deadline = Int64.add t.t0 (Int64.of_float (seconds *. 1e9)) in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let b = batches.((pos + !k) mod nb) in
    let sent = now_ns () in
    Net.Client.send c (Net.Protocol.Batch b);
    (match Net.Client.recv c with
    | Net.Protocol.Answers answers when Array.length answers = Array.length b ->
        Array.iteri (fun i a -> if not (check o b.(i) a) then t.wrong <- t.wrong + 1) answers
    | Net.Protocol.Error _ -> t.failed <- t.failed + Array.length b
    | _ -> t.wrong <- t.wrong + Array.length b);
    let now = now_ns () in
    record t ~now ~sent ~queries:(Array.length b);
    t.attempted <- t.attempted + Array.length b;
    incr k;
    if now >= deadline then continue := false
  done;
  pos + !k

let stat_delta before after key =
  let get l = Option.value ~default:0 (List.assoc_opt key l) in
  float_of_int (get after - get before)

type figures = {
  wall : float;  (** seconds *)
  answered : float;  (** queries *)
  server_cpu : float;  (** seconds *)
  own_cpu : float;  (** seconds *)
  hist : int array;
  samples : int;
}

(* Per-window figures of a finished timed phase.  A window that saw no
   answer (a stall longer than a window) has no edges of its own and is
   left out. *)
let window_figures t =
  mark t (Array.length t.wins) (now_ns ());
  List.filter_map
    (fun k ->
      match (t.edges.(k), t.edges.(k + 1)) with
      | Some (t0, c0, o0), Some (t1, c1, o1) when t1 > t0 && t.wins.(k).queries > 0 ->
          let w = t.wins.(k) in
          Some
            {
              wall = Int64.to_float (Int64.sub t1 t0) /. 1e9;
              answered = float_of_int w.queries;
              server_cpu = c1 -. c0;
              own_cpu = o1 -. o0;
              hist = w.lat;
              samples = w.recorded;
            }
      | _ -> None)
    (List.init (Array.length t.wins) Fun.id)

(* Consecutive windows merged until each group holds [min_samples]
   latency samples (a short tail joins the group before it), so that a
   p99 has at least ten samples beyond it. *)
let min_samples = 1000

let latency_groups figs =
  let groups, tail, _ =
    List.fold_left
      (fun (groups, cur, n) f ->
        let cur = f :: cur and n = n + f.samples in
        if n >= min_samples then (cur :: groups, [], 0) else (groups, cur, n))
      ([], [], 0) figs
  in
  let groups =
    match (groups, tail) with
    | g :: rest, _ :: _ -> (tail @ g) :: rest
    | [], _ :: _ -> [ tail ]
    | _, [] -> groups
  in
  List.map (fun g -> Hist.merge (List.map (fun f -> f.hist) g)) groups

(* The first [k] distinct nodes whose balls the stream asks for. *)
let distinct_nodes stream k =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (function
      | Serve.Engine.Output_label v | Serve.Engine.Edge_member (v, _) ->
          if Hashtbl.length seen < k && not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            out := v :: !out
          end
      | Serve.Engine.Advice_bits _ -> ())
    stream;
  Array.of_list (List.rev !out)

let drive w seed port pid seconds =
  let o = workload_oracle w in
  let stream = stream w seed o.g in
  let c = Net.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (* Idle round trips before any load. *)
  let rtts =
    List.init 200 (fun _ ->
        let t0 = now_ns () in
        Net.Client.ping c;
        since t0 *. 1e6)
  in
  let phase =
    if sharded w then begin
      let batches =
        Array.init batch_count (fun k -> Array.sub stream (k * batch_size) batch_size)
      in
      fun tally ~pos ~seconds -> run_batches c o batches tally ~pos ~seconds
    end
    else fun tally ~pos ~seconds -> run_singles c o stream tally ~pos ~seconds
  in
  let warm_tally = new_tally ~pid ~seconds:warm_seconds ~windows:1 in
  (* mono-hot's warm-up first asks for the label of every hot node. *)
  if w = Mono_hot then
    Array.iter
      (fun v ->
        let q = Serve.Engine.Output_label v in
        answer warm_tally o q (Net.Protocol.Answer (Net.Client.query c q)))
      (distinct_nodes stream hot_set);
  let pos = phase warm_tally ~pos:0 ~seconds:warm_seconds in
  let stats0 = Net.Client.stats c in
  let t = new_tally ~pid ~seconds ~windows:(max 1 (int_of_float (Float.round seconds))) in
  let _ = phase t ~pos ~seconds in
  let figs = window_figures t in
  let stats1 = Net.Client.stats c in
  let answered = float_of_int (t.attempted - t.failed) in
  let med f = median (List.map f figs) in
  let groups = latency_groups figs in
  let pct p = median (List.map (fun h -> Hist.percentile h p /. 1e3) groups) in
  let per_kquery key = stat_delta stats0 stats1 key /. (answered /. 1000.0) in
  print_json
    [
      ("attempted", float_of_int t.attempted);
      ("failed", float_of_int t.failed);
      ("wrong", float_of_int (t.wrong + warm_tally.wrong + warm_tally.failed));
      ("samples", float_of_int (List.fold_left (fun acc f -> acc + f.samples) 0 figs));
      ("qps", med (fun f -> f.answered /. f.wall));
      ("latency_p50_us", pct 0.50);
      ("latency_p99_us", pct 0.99);
      ("server_cpu_us_per_query", med (fun f -> f.server_cpu *. 1e6 /. f.answered));
      ("server_rss_mb", vm_hwm_kb pid /. 1024.0);
      ("server.busy_share", med (fun f -> f.server_cpu /. f.wall));
      ("loadgen.busy_share", med (fun f -> f.own_cpu /. f.wall));
      ( "net.bytes_per_query",
        (stat_delta stats0 stats1 "net.bytes_in" +. stat_delta stats0 stats1 "net.bytes_out")
        /. answered );
      ("net.ping_rtt_us", median rtts);
      ("router.loads_per_kquery", per_kquery "store.shard.loads");
      ("router.evictions_per_kquery", per_kquery "store.shard.evictions");
    ]

(* ------------------------------------------------------------------ *)
(* layers *)

(* Mean microseconds per element of [f] over [xs], the median of
   [rounds] passes. *)
let per_call_us ?(rounds = 5) f xs =
  median
    (List.init rounds (fun _ ->
         let (), s = timed (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs) in
         s *. 1e6 /. float_of_int (Array.length xs)))

let expected_answer o advice = function
  | Serve.Engine.Output_label v -> Serve.Engine.Label o.labels.(v)
  | Serve.Engine.Edge_member (_, e) -> Serve.Engine.Member (Bitset.mem o.x e)
  | Serve.Engine.Advice_bits v -> Serve.Engine.Bits advice.(v)

(* Store and router layers: [Store.Shard.load] and [Store.Io.read_range]
   on every shard frame of the container at [path], and the workload's
   queries in batches through a router under the serve-router budget. *)
let shard_layers o stream path =
  let store = Store.Shard.open_file path in
  let infos = (Store.Shard.manifest store).Store.Shard.m_shards in
  let shard_load_us = per_call_us ~rounds:3 (fun i -> Store.Shard.load store i.Store.Shard.i_index) infos in
  let range_read_us =
    per_call_us ~rounds:3
      (fun i -> Store.Io.read_range path ~pos:i.Store.Shard.i_offset ~len:i.Store.Shard.i_bytes)
      infos
  in
  let router =
    Serve.Router.create ~resident_budget:(resident_shards * widest_frame infos)
      ~memo:(Serve.Memo.create ~capacity:memo_capacity) store
  in
  let wrong = ref 0 in
  let batch_ms =
    median
      (List.init 16 (fun k ->
           let b =
             Array.init batch_size (fun i ->
                 stream.(((k * batch_size) + i) mod Array.length stream))
           in
           let res, s = timed (fun () -> Serve.Router.batch_results ~domains:1 router b) in
           Array.iteri
             (fun i r -> if not (match r with Ok a -> check o b.(i) a | Error _ -> false) then incr wrong)
             res;
           s *. 1e3))
  in
  (shard_load_us, range_read_us, batch_ms, !wrong)

let layers w seed path =
  let o = workload_oracle w in
  let g = o.g in
  let stream = stream w seed g in
  let wrong = ref 0 in
  let expect b = if not b then incr wrong in
  (* The snapshot as the server reads it. *)
  let load_ms, snapshot =
    if sharded w then begin
      let load_ms =
        median (List.init 5 (fun _ -> 1e3 *. snd (timed (fun () -> Store.Shard.open_file path))))
      in
      let store = Store.Shard.open_file path in
      let man = Store.Shard.manifest store in
      let advice = Array.make (Graph.n g) "" in
      Array.iter
        (fun info ->
          List.iter
            (fun (v, s) -> advice.(v) <- s)
            (interior_advice (Store.Shard.load store info.Store.Shard.i_index)))
        man.Store.Shard.m_shards;
      (load_ms, { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta = man.Store.Shard.m_meta })
    end
    else begin
      let read () = Store.Snapshot.read (Store.Io.read_file path) in
      let load_ms = median (List.init 5 (fun _ -> 1e3 *. snd (timed read))) in
      (load_ms, read ())
    end
  in
  let advice = List.assoc "c4" snapshot.Store.Snapshot.advice in
  let radius = int_of_string (List.assoc "serve.radius" snapshot.Store.Snapshot.meta) in
  let params = Schemas.Balanced_orientation.onebit_params in
  let ids = Localmodel.Ids.identity g in
  (* Ball layers, on up to 256 distinct nodes the workload queries. *)
  let nodes = distinct_nodes stream 256 in
  let make v = Localmodel.View.make ~advice g ~ids ~radius v in
  let view_make_us = per_call_us make nodes in
  let views = Array.map make nodes in
  let ball_nodes =
    Array.fold_left (fun acc v -> acc + Graph.n v.Localmodel.View.graph) 0 views
  in
  let decode_us = per_call_us (Serve.Engine.label_of_view ~params) views in
  Array.iteri
    (fun i v -> expect (String.equal (Serve.Engine.label_of_view ~params v) o.labels.(nodes.(i))))
    views;
  let signature_us = per_call_us Ethlink.Canonical.ball_signature views in
  let keys = Array.map Ethlink.Canonical.ball_signature views in
  let memo = Serve.Memo.create ~capacity:memo_capacity in
  Array.iter (fun k -> Serve.Memo.insert memo k "") keys;
  let find_ns = 1e3 *. per_call_us (Serve.Memo.find memo) keys in
  (* The engine's hit path: every node warmed into the ball cache. *)
  let engine = Serve.Engine.create snapshot in
  let labels = Array.map (fun v -> Serve.Engine.Output_label v) nodes in
  Array.iter (fun q -> expect (check o q (Serve.Engine.query engine q))) labels;
  let hit_us = per_call_us (Serve.Engine.query engine) labels in
  (* Wire layer: the workload's own frames, per query. *)
  let frames, per_frame =
    if sharded w then
      (Array.init 8 (fun k -> Net.Protocol.Batch (Array.sub stream (k * batch_size) batch_size)),
       batch_size)
    else (Array.init 1024 (fun i -> Net.Protocol.Query stream.(i mod Array.length stream)), 1)
  in
  let wire = Array.map (fun r -> Bytes.of_string (Net.Protocol.request_to_string r)) frames in
  let parse b = Net.Protocol.parse_request b ~pos:0 ~len:(Bytes.length b) in
  let parse_ns = 1e3 *. per_call_us parse wire /. float_of_int per_frame in
  let responses =
    Array.map
      (function
        | Net.Protocol.Query q -> Net.Protocol.Answer (expected_answer o advice q)
        | Net.Protocol.Batch qs -> Net.Protocol.Answers (Array.map (expected_answer o advice) qs)
        | _ -> Net.Protocol.Pong)
      frames
  in
  let encode_ns = 1e3 *. per_call_us Net.Protocol.response_to_string responses /. float_of_int per_frame in
  (* The mono servers hold no shards, so these calls are timed as the
     memo's are, on the workload's own snapshot and queries: laid out as
     a [store_shards]-shard container next to it. *)
  let container =
    if sharded w then path
    else begin
      let v2 = path ^ ".v2" in
      Store.Io.write_file v2 (Store.Shard.build ~shards:store_shards ~halo:(max radius 1) snapshot);
      v2
    end
  in
  let shard_load_us, range_read_us, batch_ms, router_wrong = shard_layers o stream container in
  print_json
    [
      ("wrong", float_of_int (!wrong + router_wrong));
      ("store.load_ms", load_ms);
      ("store.shard_load_us", shard_load_us);
      ("store.range_read_us", range_read_us);
      ("router.batch_ms", batch_ms);
      ("view.make_us", view_make_us);
      ("view.ball_nodes", float_of_int ball_nodes /. float_of_int (Array.length views));
      ("engine.decode_us", decode_us);
      ("engine.hit_query_us", hit_us);
      ("memo.signature_us", signature_us);
      ("memo.find_ns", find_ns);
      ("net.parse_request_ns", parse_ns);
      ("net.encode_response_ns", encode_ns);
    ]

(* ------------------------------------------------------------------ *)
(* check-sampled *)

(* Pack the way [advice_store pack --graph cycle --n 20000 --seed 7]
   does (a fair coin per edge, in edge-id order, from [Prng.create 7])
   with a sampled certification, then ask an engine at the certified
   radius for every node's label and count the nodes and edge bits that
   disagree with X. *)
let check_sampled sample =
  let n = 20_000 and seed = 7 in
  let g = Builders.cycle n in
  let rng = Prng.create seed in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let o = oracle g x in
  let snapshot, cert = Serve.Pack.edge_compression ~sample g x in
  let engine = Serve.Engine.create ~cache_capacity:0 snapshot in
  let wrong_nodes = ref 0 and wrong_bits = ref 0 in
  for v = 0 to n - 1 do
    match Serve.Engine.query engine (Serve.Engine.Output_label v) with
    | Serve.Engine.Label s ->
        let bad = ref 0 in
        String.iteri (fun i c -> if c <> o.labels.(v).[i] then incr bad) s;
        if !bad > 0 then incr wrong_nodes;
        wrong_bits := !wrong_bits + !bad
    | _ -> incr wrong_nodes
  done;
  let advice = List.assoc "c4" snapshot.Store.Snapshot.advice in
  let over_bound =
    Seq.length (Seq.filter (fun (v, s) -> not (advice_fits o v s)) (Array.to_seqi advice))
  in
  Printf.printf
    "cycle n=%d seed=%d: certification on %s picks radius %d; %d of %d nodes \
     (%d edge bits) disagree with X; %d advice strings over ⌈d/2⌉+1\n"
    n seed
    (if cert.Serve.Pack.exhaustive then "every node"
     else Printf.sprintf "%d sampled nodes" cert.Serve.Pack.checked)
    cert.Serve.Pack.radius !wrong_nodes n !wrong_bits over_bound;
  print_json
    [
      ("radius", float_of_int cert.Serve.Pack.radius);
      ("wrong_nodes", float_of_int !wrong_nodes);
      ("wrong_bits", float_of_int !wrong_bits);
      ("over_bound", float_of_int over_bound);
    ]

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload_t =
  Arg.(required & opt (some workload_conv) None & info [ "workload" ] ~docv:"NAME"
       ~doc:"mono-cold, mono-hot or sharded-evict.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Input seed.")
let port_t = Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
let file_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Snapshot file.")

let metrics_t =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Record obs metrics and write them to $(docv) at shutdown.")

let pack_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Also time the encoder alone.") in
  Cmd.v (Cmd.info "pack" ~doc:"Pack a workload's graph and X.")
    Term.(const pack $ workload_t $ out $ trace)

let serve_cmd =
  Cmd.v (Cmd.info "serve-router" ~doc:"Serve a sharded container over TCP.")
    Term.(const serve_router $ file_t $ metrics_t)

let probe_cmd =
  Cmd.v (Cmd.info "probe" ~doc:"One checked query.")
    Term.(const probe $ workload_t $ seed_t $ port_t)

let drive_cmd =
  let pid = Arg.(required & opt (some int) None & info [ "pid" ] ~docv:"PID" ~doc:"Server pid.") in
  let seconds = Arg.(value & opt float 10.0 & info [ "seconds" ] ~docv:"S" ~doc:"Timed phase.") in
  Cmd.v (Cmd.info "drive" ~doc:"Closed-loop generator.")
    Term.(const drive $ workload_t $ seed_t $ port_t $ pid $ seconds)

let layers_cmd =
  Cmd.v (Cmd.info "layers" ~doc:"Time each layer's public functions.")
    Term.(const layers $ workload_t $ seed_t $ file_t)

let check_cmd =
  let sample =
    Arg.(value & opt int 200 & info [ "sample" ] ~docv:"K" ~doc:"Certification sample (0 = every node).")
  in
  Cmd.v (Cmd.info "check-sampled" ~doc:"Count the answers a sampled certification gets wrong.")
    Term.(const check_sampled $ sample)

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "perfbench" ~doc:"Serving benchmark.")
          [ pack_cmd; serve_cmd; probe_cmd; drive_cmd; layers_cmd; check_cmd ]))
