(** The sizing daemon: concurrent batch requests over a Unix or TCP
    socket, one shared {!Eval.Ctx}, spool-backed crash recovery.

    Robustness contract:
    - {b Admission control}: the waiting queue has a fixed depth; a
      submit that finds it full receives an explicit ["rejected"] event
      (reason ["queue full"]) and the connection closes — saturation
      never blocks or crashes the daemon.
    - {b Deadlines}: a request's [(deadline-s S)] becomes an absolute
      [?deadline] of {!Runner.run}, polled at job boundaries; an expired
      request
      answers ["deadline"], keeps its journal, and resubmission
      resumes.
    - {b Crash recovery}: requests are spooled ([<id>.spec]) before
      acceptance, journaled while running ([<id>.journal]), and their
      manifests written atomically ([<id>.manifest]).  On startup the
      daemon re-enqueues every spec without a manifest; journal replay
      makes recovered manifests byte-identical to an uninterrupted
      run.
    - {b Graceful drain}: SIGTERM/SIGINT (or [max_requests]) stop the
      accept loop and let queued and in-flight work finish.

    The listener also answers [GET /metrics] (the shared registry as
    JSONL) and [GET /healthz]. *)

type endpoint = Unix_socket of string | Tcp of int

type config = {
  endpoint : endpoint;
  spool : string;          (** spec/journal/manifest directory; created *)
  queue_depth : int;       (** waiting-queue capacity (not in-flight) *)
  workers : int;           (** concurrent batch executors (threads) *)
  max_requests : int option;
      (** drain after N terminal answers — manifests, replays,
          rejections, deadlines and errors all count (a test hook) *)
  recover_only : bool;     (** replay the spool, then exit (no listener) *)
  read_timeout_s : float;  (** per-connection receive timeout *)
}

val default_config : endpoint -> string -> config
(** [queue_depth = 16], [workers = 2], no [max_requests], listening,
    10 s read timeout. *)

val run : ?ctx:Eval.Ctx.t -> config -> (int, string) result
(** Run the daemon until drained; returns the number of requests
    recovered from the spool at startup.  [ctx] is shared by every
    request — give it a sharded cache ({!Eval.Cache.create} with
    [~shards]) when [workers > 1].  [Error _] covers configuration
    problems (bad spool, unbindable endpoint); per-request failures are
    answered on the wire and never stop the daemon. *)
