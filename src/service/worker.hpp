// Worker-process entry point.
//
// A worker is a single-threaded loop over one socketpair to the server:
// read an NDJSON request, execute it through a process-local
// Executor/WarmCache (simulations are thread-confined — process isolation
// is what lets the service shard without sharing), write the reply. The
// caches live for the process lifetime, which is exactly the warm state a
// repeat submission hits.
//
// Requests (parent -> worker), one JSON object per line:
//   {"op":"job","id":N,"spec":{...}}            declarative campaign job
//   {"op":"fi-golden","id":N,"benchmark":B,"seed":S,"n":K}
//   {"op":"fi","id":N,"benchmark":B,"seed":S,"n":K,
//    "golden":{...},"indices":[...]}            fork-mode fault chunk
//   {"op":"quit"}                               exit 0
//
// Replies (worker -> parent):
//   {"ev":"start","id":N}                       op N was read and starts
//       now; an op lost with its worker before this line never ran, so
//       the parent requeues it onto the respawn instead of failing it
//   {"ev":"job","id":N,"result":{...}}          one fi fault finished
//   {"ev":"result","id":N,...}                  op finished; carries
//       "result" (job/fi-golden), or "fork" + "skipped" (fi), and always
//       "stats" (the op's CacheStats delta)
//   {"ev":"error","id":N,"error":"..."}         op failed
//   {"ev":"hb","id":N,"instret":I}              liveness heartbeat, every
//       WorkerConfig::heartbeat_ms from a dedicated thread. N is the op
//       currently executing (0 when idle) and I the live retirement count
//       of that op's simulation — a silent-but-busy worker is distinguish-
//       able from a wedged one by whether I still advances.
//
// The heartbeat thread and the op loop share the socket; every write goes
// through one mutex so frames never interleave mid-line. Everything else in
// the worker stays single-threaded (simulations are thread-confined).
#pragma once

#include <cstdint>

namespace vpdift::service {

struct WorkerConfig {
  /// Heartbeat period; 0 disables the heartbeat thread entirely (the
  /// pre-resilience wire behaviour, used by tests that count exact frames).
  std::uint64_t heartbeat_ms = 500;
};

/// Runs the worker loop on `fd` until EOF or a quit op; returns the process
/// exit code. Never throws.
int worker_main(int fd, const WorkerConfig& cfg = {});

}  // namespace vpdift::service
