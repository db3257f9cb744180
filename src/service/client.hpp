// Client side of the service protocol: connect to a running vpdift-serve,
// submit a campaign (fi suite reference or declarative spec text), block
// until the final report arrives, streaming per-job events to a callback on
// the way. vpdift-campaign --connect and vpdift-serve --self-test are thin
// wrappers over this class.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace vpdift::service {

/// The final outcome of one submission.
struct Outcome {
  bool ok = false;          ///< server-side "ok" (all jobs ok / no crashes)
  std::string report;       ///< the full JSON report, bit-identical to the
                            ///< one-shot CLI's plus the "service" block
  std::string error;        ///< non-empty when the submission failed
  CacheStats service;       ///< the submission's cache-counter delta
  std::size_t jobs = 0;     ///< job count the server accepted
  /// Server backoff hint when error == "overloaded" (the submit retry loop
  /// already honoured it submit_retries times before giving up).
  std::uint64_t retry_after_ms = 0;
};

/// Client-side resilience knobs.
struct ClientOptions {
  /// Deadline for connect() and for every control-plane reply (ping, stats,
  /// accepted, shutdown). 0 = block forever.
  std::uint64_t timeout_ms = 30000;
  /// Max gap between events while a submission runs. The server heartbeats
  /// active submissions, so a healthy-but-slow campaign resets this on
  /// every hb line; only a truly silent server trips it. 0 = forever.
  std::uint64_t idle_timeout_ms = 120000;
  /// Extra attempts when the server sheds a submission with "overloaded"
  /// (capped exponential backoff, honouring the server's retry_after_ms).
  int submit_retries = 4;
};

/// Per-job progress event streamed while a submission runs.
struct JobEvent {
  std::string name;
  std::string verdict;
  bool ok = false;
};

class Client {
 public:
  /// Connects to the daemon's AF_UNIX socket with the options' connect
  /// deadline (a listener that accepts but never answers cannot hang the
  /// client past timeout_ms). Throws std::runtime_error on failure.
  Client(const std::string& socket_path, const ClientOptions& opts);
  /// Default options.
  explicit Client(const std::string& socket_path)
      : Client(socket_path, ClientOptions{}) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trip liveness check.
  bool ping();

  /// Submits "fi:<benchmark>:<n>" with `seed`; `workers` caps the fault
  /// shard fan-out (0 = the server's worker count). Blocks until done.
  Outcome submit_ref(const std::string& ref, std::uint64_t seed,
                     std::size_t workers = 0,
                     const std::function<void(const JobEvent&)>& on_job = {});

  /// Submits declarative campaign-spec text (CampaignSpec::parse format).
  /// `analyze` forces the static pre-pass on every job in the spec, as if
  /// each carried `analyze on` (vpdift-campaign --connect --analyze).
  Outcome submit_spec(const std::string& spec_text,
                      const std::function<void(const JobEvent&)>& on_job = {},
                      bool analyze = false);

  /// Cumulative server-wide cache counters.
  CacheStats server_stats();

  /// Asks the daemon to drain and exit.
  void shutdown_server();

 private:
  Outcome await_done(std::uint64_t id,
                     const std::function<void(const JobEvent&)>& on_job);
  Outcome submit(const std::string& body,
                 const std::function<void(const JobEvent&)>& on_job);

  /// Reads one reply line under the control-plane deadline.
  bool read_reply(std::string* line);

  int fd_ = -1;
  /// The connection's one reader: bytes it buffered past a line stay
  /// buffered for the next call.
  LineReader in_{-1};
  std::uint64_t next_id_ = 1;
  ClientOptions opts_;
};

}  // namespace vpdift::service
