(* Helper executable for perfbench/run.py.

     gen DIR SPEC...
       Generate each trace, write DIR/NAME.bin (the binary trace the CLI
       and the client read) and, when asked, DIR/NAME.frames (the client's
       whole DATA...FIN frame stream for that trace).  Prints a JSON
       manifest.  A SPEC is NAME:KIND:THREADS:SCALE:SEED:FRAMES, where KIND
       is a paper kernel, [racy] (the lock-discipline generator), [faults]
       (AddrCheck bugs) or [faultrace] (an injected data race), and FRAMES
       is 0 or 1.

     wire DIR THREADS WIDTH
       Write the client's protocol frames, encoded by Serve.Wire: one
       HELLO per lifeguard (DIR/hello.LG.frame) for THREADS threads with
       a tenant key of WIDTH 'x' characters that the caller overwrites
       with a key of the same width, the STATUS request (DIR/status.frame)
       and the daemon's answer to a fresh HELLO (DIR/hello_ok.frame).
       Prints the key placeholder and the tags of the answers that carry
       a string (REPORT, ERROR, STATUS_OK).

     replay LG TRACE DEADLINE_S OUT
       Replay one batch job in-process through the same public calls the
       CLI makes with its default flags (list ingest, functional state,
       sequential driver), with a span around each call and a memory Obs
       sink.  Writes spans, counters and the rendered report to OUT.

     replay-serve DIR STATE_DIR TRACED OUT SESSION...
       Replay a daemon session sequence through Serve.Session, calling it
       the way the daemon's feeding loop does (enqueue each DATA chunk,
       step one epoch at a time, checkpoint every 16 fed epochs, report
       after FIN).  A SESSION is TRACE_NAME:LG:TENANT.  TRACED is 1 for
       spans plus a memory Obs sink, 0 for neither (the untraced twin).

     check ITEMS OUT
       Check reports against references that are not the configuration
       under test: the generator's own bytes, sequential lifeguards on the
       generator's canonical serialization, injected bugs, and the
       brute-force RaceCheck. *)

module J = Obs.Json
module W = Workloads.Workload
module IS = Butterfly.Interval_set

let epoch_size = 64
let checkpoint_every = 16

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let write_json path j = write_file path (J.to_string j ^ "\n")

(* ------------------------------------------------------------------ *)
(* Trace generation *)

type generated = {
  program : Tracing.Program.t;
  canonical : Tracing.Instr.t list option;
      (** a valid serialization, when the generator records one *)
  bugs : Workloads.Faults.injected list;
}

let of_bundle b =
  { program = W.Bundle.program b; canonical = Some (W.Bundle.canonical b);
    bugs = [] }

let generate kind ~threads ~scale ~seed =
  match kind with
  | "racy" ->
    of_bundle (Workloads.Synthetic.generate_racy ~threads ~scale ~seed ())
  | "faults" ->
    let program, bugs = Workloads.Faults.all_kinds ~threads ~scale ~seed in
    { program; canonical = None; bugs }
  | "faultrace" ->
    let program, bugs =
      Workloads.Faults.data_race ~threads ~scale ~seed ()
    in
    { program; canonical = None; bugs }
  | name -> (
    match Workloads.Registry.find name with
    | Some p -> of_bundle (p.W.generate ~threads ~scale ~seed)
    | None -> failwith ("unknown trace kind " ^ name))

let decode_exn raw =
  match Tracing.Trace_codec.decode_binary raw with
  | Ok p -> p
  | Error m -> failwith m

(* What the CLI does after decoding: re-heartbeat at h = 64, split. *)
let epochs_of p =
  Butterfly.Epochs.of_program (Machine.Heartbeat.insert ~every:epoch_size p)

let gen dir specs =
  let entry spec =
    match String.split_on_char ':' spec with
    | [ name; kind; threads; scale; seed; frames ] ->
      let g =
        generate kind ~threads:(int_of_string threads)
          ~scale:(int_of_string scale) ~seed:(int_of_string seed)
      in
      let raw = Tracing.Trace_codec.encode_binary g.program in
      write_file (Filename.concat dir (name ^ ".bin")) raw;
      let epochs =
        if frames = "1" then begin
          (* Exactly what [client] sends: decode the file, re-heartbeat,
             one DATA frame per epoch row, then FIN. *)
          let rows = Recovery.Runner.rows_of (epochs_of (decode_exn raw)) in
          let b = Buffer.create (2 * String.length raw) in
          Array.iter
            (fun row ->
              Buffer.add_string b
                (Serve.Wire.encode (Serve.Wire.Data (Serve.Client.chunk_of_row row))))
            rows;
          Buffer.add_string b (Serve.Wire.encode Serve.Wire.Fin);
          write_file (Filename.concat dir (name ^ ".frames")) (Buffer.contents b);
          Array.length rows
        end
        else 0
      in
      J.Obj
        [ ("name", J.String name);
          ("instrs", J.Int (Tracing.Program.total_instrs g.program));
          ("bytes", J.Int (String.length raw)); ("epochs", J.Int epochs) ]
    | _ -> failwith ("bad trace spec " ^ spec)
  in
  print_endline (J.to_string (J.List (List.map entry specs)))

let lifeguards = [ "addrcheck"; "initcheck"; "taintcheck"; "racecheck" ]

let lifeguard_of_string = function
  | "addrcheck" -> Recovery.Snapshot.Addrcheck
  | "initcheck" -> Recovery.Snapshot.Initcheck
  | "taintcheck" -> Recovery.Snapshot.Taintcheck
  | "racecheck" -> Recovery.Snapshot.Racecheck
  | lg -> failwith ("unknown lifeguard " ^ lg)

(* What [client] sends as HELLO: the daemon's defaults. *)
let hello_of ~tenant ~threads lg =
  { Serve.Wire.tenant; lifeguard = lifeguard_of_string lg;
    driver = `Sequential; state = `Functional; relaxed = false; threads }

let wire dir threads width =
  let placeholder = String.make width 'x' in
  let put name frame = write_file (Filename.concat dir name) (Serve.Wire.encode frame) in
  List.iter
    (fun lg ->
      put ("hello." ^ lg ^ ".frame")
        (Serve.Wire.Hello (hello_of ~tenant:placeholder ~threads lg)))
    lifeguards;
  put "status.frame" Serve.Wire.Status;
  put "hello_ok.frame" (Serve.Wire.Hello_ok { resumed_from = 0 });
  (* Byte 4 of a frame, after the length, is its tag. *)
  let tag frame = J.Int (Char.code (Serve.Wire.encode frame).[4]) in
  print_endline
    (J.to_string
       (J.Obj
          [ ("placeholder", J.String placeholder);
            ("report", tag (Serve.Wire.Report ""));
            ("error", tag (Serve.Wire.Error ""));
            ("status_ok", tag (Serve.Wire.Status_ok "")) ]))

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end and parent, kept in memory and written out
   once at the end of the replay. *)

module Spans = struct
  type t = { name : string; start : int64; mutable stop : int64; parent : int }

  let on = ref false
  let all = ref []
  let count = ref 0
  let stack = ref []
  let origin = Obs.now_ns ()

  let time name f =
    if not !on then f ()
    else begin
      let parent = match !stack with i :: _ -> i | [] -> -1 in
      let s = { name; start = Obs.now_ns (); stop = 0L; parent } in
      all := s :: !all;
      stack := !count :: !stack;
      incr count;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- Obs.now_ns ();
          stack := List.tl !stack)
        f
    end

  let ns t = J.Int (Int64.to_int (Int64.sub t origin))

  let to_json () =
    J.List
      (List.rev_map
         (fun s -> J.List [ J.String s.name; ns s.start; ns s.stop; J.Int s.parent ])
         !all)
end

(* Counters the program already exports, merged across label sets:
   counters and histogram sums add up, gauges keep their maximum.  A
   lifeguard label is kept in the key ([name@lifeguard]) because one
   serve replay runs several lifeguards. *)
let metrics_json snap =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : Obs.Snapshot.entry) ->
      let key =
        match List.assoc_opt "lifeguard" e.labels with
        | Some lg -> e.name ^ "@" ^ lg
        | None -> e.name
      in
      let v, merge =
        match e.value with
        | Obs.Snapshot.Counter n -> (float_of_int n, ( +. ))
        | Gauge g -> (g, Float.max)
        | Histogram h -> (h.sum, ( +. ))
      in
      Hashtbl.replace tbl key
        (match Hashtbl.find_opt tbl key with Some old -> merge old v | None -> v))
    snap;
  J.Obj
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) tbl []))

exception Deadline

(* Abandon the replay after [secs]: the job counts as failed, and the
   spans closed so far are still written. *)
let with_deadline secs f =
  let stop () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. })
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = secs });
  match f () with
  | r ->
    stop ();
    Ok r
  | exception Deadline -> Error "deadline"
  | exception e ->
    stop ();
    Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Batch job replay *)

(* The batch CLI's default call ([<lg> --json TRACE]); returns the
   report renderer so rendering gets its own span. *)
let batch_run lg epochs =
  match lg with
  | "addrcheck" ->
    let r = Lifeguards.Addrcheck.run ~state:`Functional ~wavefront:false epochs in
    fun () -> Serve.Report.addrcheck r
  | "initcheck" ->
    let r = Lifeguards.Initcheck.run ~state:`Functional ~wavefront:false epochs in
    fun () -> Serve.Report.initcheck r
  | "taintcheck" ->
    let r =
      Lifeguards.Taintcheck.run ~state:`Functional ~sequential:true
        ~wavefront:false epochs
    in
    fun () -> Serve.Report.taintcheck r
  | "racecheck" ->
    let r = Lifeguards.Racecheck.run ~state:`Functional ~wavefront:false epochs in
    fun () -> Serve.Report.racecheck r
  | _ -> failwith ("unknown lifeguard " ^ lg)

let replay_job lg raw =
  let p = Spans.time "trace.decode" (fun () -> decode_exn raw) in
  let epochs = Spans.time "core.epochs" (fun () -> epochs_of p) in
  let render = Spans.time (lg ^ ".run") (fun () -> batch_run lg epochs) in
  Spans.time "report.render" render

let replay lg trace deadline out =
  Spans.on := true;
  let sink = Obs.Sink.memory () in
  let t0 = Unix.gettimeofday () in
  let result =
    with_deadline deadline (fun () ->
        Obs.with_sink sink (fun () ->
            Spans.time "job" (fun () ->
                let raw = Spans.time "trace.read" (fun () -> read_file trace) in
                replay_job lg raw)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let report, error, metrics =
    match result with
    | Ok r -> (J.String r, J.Null, metrics_json (Obs.Sink.snapshot sink))
    (* An interrupted replay may hold the registry's lock: skip it. *)
    | Error m -> (J.Null, J.String m, J.Obj [])
  in
  write_json out
    (J.Obj
       [ ("completed", J.Bool (Result.is_ok result)); ("error", error);
         ("wall_s", J.Float wall); ("report", report);
         ("spans", Spans.to_json ()); ("metrics", metrics) ])

(* ------------------------------------------------------------------ *)
(* Daemon session replay *)

let ok_exn = function Ok v -> v | Error m -> failwith m

let replay_session ~state_dir ~wire_bytes ~snapshots (tenant, lg, rows) =
  let hello = hello_of ~tenant ~threads:(Array.length rows.(0)) lg in
  Spans.time "session" (fun () ->
      let s =
        Spans.time "serve.session.create" (fun () ->
            ok_exn (Serve.Session.create ~state_dir hello))
      in
      let reader = Serve.Wire.Reader.create () in
      Array.iter
        (fun row ->
          let chunk =
            Spans.time "serve.wire" (fun () ->
                let frame =
                  Serve.Wire.encode (Serve.Wire.Data (Serve.Client.chunk_of_row row))
                in
                wire_bytes := !wire_bytes + String.length frame;
                Serve.Wire.Reader.feed reader frame ~pos:0 ~len:(String.length frame);
                match Serve.Wire.Reader.next reader with
                | Ok (Some (Serve.Wire.Data c)) -> c
                | _ -> failwith "wire round trip lost a DATA frame")
          in
          ignore
            (ok_exn
               (Spans.time "serve.session.enqueue" (fun () ->
                    Serve.Session.enqueue s chunk)));
          while Serve.Session.queued s > 0 do
            ignore (Spans.time "serve.session.step" (fun () -> Serve.Session.step s));
            if Serve.Session.fed s mod checkpoint_every = 0 then
              snapshots :=
                ok_exn
                  (Spans.time "recovery.checkpoint" (fun () ->
                       Serve.Session.checkpoint s ~dir:state_dir))
                :: !snapshots
          done)
        rows;
      Serve.Session.fin s;
      Spans.time "serve.session.report" (fun () -> Serve.Session.report s))

let replay_serve dir state_dir traced out sessions =
  (* Client-side preparation (decode, re-heartbeat, rows) is untimed:
     the daemon never sees it. *)
  let cache = Hashtbl.create 16 in
  let rows_of name =
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
      let raw = read_file (Filename.concat dir (name ^ ".bin")) in
      let r = Recovery.Runner.rows_of (epochs_of (decode_exn raw)) in
      Hashtbl.add cache name r;
      r
  in
  let sessions =
    List.map
      (fun spec ->
        match String.split_on_char ':' spec with
        | [ name; lg; tenant ] -> (tenant, lg, rows_of name)
        | _ -> failwith ("bad session spec " ^ spec))
      sessions
  in
  Spans.on := traced;
  let sink = Obs.Sink.memory () in
  let wire_bytes = ref 0 and snapshots = ref [] in
  let t0 = Unix.gettimeofday () in
  let run () =
    List.map (replay_session ~state_dir ~wire_bytes ~snapshots) sessions
  in
  let reports = if traced then Obs.with_sink sink run else run () in
  let wall = Unix.gettimeofday () -. t0 in
  write_json out
    (J.Obj
       [ ("wall_s", J.Float wall);
         ("reports", J.List (List.map (fun r -> J.String r) reports));
         ("wire_bytes", J.Int !wire_bytes);
         ("snapshot_bytes", J.List (List.rev_map (fun n -> J.Int n) !snapshots));
         ("spans", Spans.to_json ());
         ("metrics", if traced then metrics_json (Obs.Sink.snapshot sink) else J.Obj []) ])

(* ------------------------------------------------------------------ *)
(* Independent checks *)

let ( let* ) = Result.bind

let field k = function
  | J.Obj fs -> List.assoc_opt k fs
  | _ -> None

let int_field k j = match field k j with Some (J.Int n) -> Some n | _ -> None

let report_errors json =
  match field "errors" json with Some (J.List es) -> es | _ -> []

let flagged_intervals errors =
  IS.of_intervals
    (List.concat_map
       (fun e ->
         match field "addrs" e with
         | Some (J.List ivs) ->
           List.filter_map
             (function J.List [ J.Int lo; J.Int hi ] -> Some (lo, hi) | _ -> None)
             ivs
         | _ -> [])
       errors)

let int_values k errors = List.filter_map (int_field k) errors

let require cond why = if cond then Ok () else Error why

let check_item item =
  let str k = match field k item with Some (J.String s) -> Some s | _ -> None in
  let int k = Option.get (int_field k item) in
  let lg = Option.get (str "lg") in
  let* report = Option.to_result ~none:"no report" (str "report") in
  let* json = J.of_string report in
  let* () =
    require (field "lifeguard" json = Some (J.String lg)) "wrong lifeguard field"
  in
  let* () =
    match str "reference" with
    | Some r -> require (String.equal r report) "differs from the batch CLI's --json line"
    | None -> Ok ()
  in
  let g =
    generate (Option.get (str "kind")) ~threads:(int "threads")
      ~scale:(int "scale") ~seed:(int "seed")
  in
  let* () =
    require
      (String.equal
         (Tracing.Trace_codec.encode_binary g.program)
         (read_file (Option.get (str "trace"))))
      "trace file differs from the generator's program"
  in
  let errors = report_errors json in
  (* Theorems 6.1/6.2: every error the sequential lifeguard finds on a
     valid serialization is flagged. *)
  let* () =
    match (g.canonical, lg) with
    | Some c, "addrcheck" ->
      require
        (IS.subset
           (Lifeguards.Addrcheck_seq.flagged_addresses (Lifeguards.Addrcheck_seq.check c))
           (flagged_intervals errors))
        "misses an error sequential AddrCheck finds on the canonical order"
    | Some c, "initcheck" ->
      (* The set [Initcheck_seq.flagged_addresses] builds, in one pass:
         that function unions one singleton per error, 0.8 s of a 6.6 s
         check on the fig11 InitCheck job. *)
      let seq = (Lifeguards.Initcheck_seq.check c).errors in
      let addr (e : Lifeguards.Initcheck_seq.error) = (e.addr, e.addr + 1) in
      require
        (IS.subset (IS.of_intervals (List.map addr seq)) (flagged_intervals errors))
        "misses an error sequential InitCheck finds on the canonical order"
    | Some c, "taintcheck" ->
      let sinks = int_values "sink" errors in
      require
        (List.for_all
           (fun s -> List.mem s sinks)
           (Lifeguards.Taintcheck_seq.flagged_sinks (Lifeguards.Taintcheck_seq.check c)))
        "misses a sink sequential TaintCheck flags on the canonical order"
    | _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (b : Workloads.Faults.injected) ->
        let* () = acc in
        match (b.kind, lg) with
        | Data_race, "racecheck" ->
          require (List.mem b.addr (int_values "addr" errors))
            (Format.asprintf "injected %a not flagged" Workloads.Faults.pp_bug b)
        | (Use_after_free | Double_free | Unallocated_access), "addrcheck" ->
          require (IS.mem b.addr (flagged_intervals errors))
            (Format.asprintf "injected %a not flagged" Workloads.Faults.pp_bug b)
        | _ -> Ok ())
      (Ok ()) g.bugs
  in
  match (lg, field "race_seq" item) with
  | "racecheck", Some (J.Bool true) ->
    require
      (String.equal report
         (Serve.Report.racecheck (Lifeguards.Racecheck_seq.check (epochs_of g.program))))
      "differs from the brute-force sequential RaceCheck"
  | _ -> Ok ()

let check items_path out =
  let items =
    match J.of_string (read_file items_path) with
    | Ok (J.List l) -> l
    | _ -> failwith "bad check items"
  in
  let verdict item =
    let id = Option.value (field "id" item) ~default:J.Null in
    let ok, why =
      match check_item item with
      | Ok () -> (true, J.Null)
      | Error m -> (false, J.String m)
      | exception e -> (false, J.String (Printexc.to_string e))
    in
    J.Obj [ ("id", id); ("ok", J.Bool ok); ("why", why) ]
  in
  write_json out (J.List (List.map verdict items))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: specs -> gen dir specs
  | [ _; "wire"; dir; threads; width ] ->
    wire dir (int_of_string threads) (int_of_string width)
  | [ _; "replay"; lg; trace; deadline; out ] ->
    replay lg trace (float_of_string deadline) out
  | _ :: "replay-serve" :: dir :: state_dir :: traced :: out :: sessions ->
    replay_serve dir state_dir (traced = "1") out sessions
  | [ _; "check"; items; out ] -> check items out
  | _ ->
    prerr_endline "usage: pbtool (gen|wire|replay|replay-serve|check) ...";
    exit 2
