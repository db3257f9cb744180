// Wire encoding for the service: newline-delimited JSON (NDJSON).
//
// Both hops — client <-> server over the AF_UNIX listen socket, and
// server <-> worker over each pre-forked worker's socketpair — speak one
// JSON object per line. This module provides the two halves every endpoint
// needs:
//
//   * value encoding: a full-fidelity campaign::JobResult round trip
//     (including the embedded vp::RunResult, violation record and DIFT
//     counters — a decoded golden run must drive fi::suite_from_golden and
//     fi::classify to the same verdicts as the in-process original), plus
//     fi::ForkStats;
//   * line transport: an incremental buffer for the server's poll() loop,
//     a blocking (optionally deadline-bounded) reader built on it for the
//     single-threaded worker and client loops, and a partial-write-safe
//     line writer.
//
// Message *shapes* (which fields each op carries) are documented in
// docs/service.md and assembled inline by server.cpp / worker.cpp /
// client.cpp — they are one-liner compositions of these primitives.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "fi/fork.hpp"

namespace vpdift::service {

/// One-line JSON object encoding of a JobResult, full fidelity.
std::string job_result_to_json(const campaign::JobResult& r);

/// Inverse of job_result_to_json. Absent fields decode to their defaults.
/// An exit reason this build has no name for decodes to
/// vp::ExitReason::kUnknown with the raw string preserved in
/// RunResult::reason_raw (and re-emitted verbatim on the next encode — the
/// round trip is lossless even through an older relay). Unknown violation
/// kinds still throw std::runtime_error.
campaign::JobResult job_result_from_json(const campaign::JsonValue& obj);

std::string fork_stats_to_json(const fi::ForkStats& s);
fi::ForkStats fork_stats_from_json(const campaign::JsonValue& obj);

/// Full-fidelity sa::AnalysisResult round trip (unlike sa::to_json, which
/// is the summary-level report schema): block and entry lists survive, so
/// a client-side aggregator reproduces the same report the worker would.
std::string analysis_to_json(const sa::AnalysisResult& r);
sa::AnalysisResult analysis_from_json(const campaign::JsonValue& obj);

/// Incremental newline splitter for the server's poll() loop: feed whatever
/// read() returned, pop complete lines.
class LineBuffer {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  bool pop(std::string* line);

 private:
  std::string buf_;
};

/// Blocking newline-delimited reader over a file descriptor (worker and
/// client loops — one request or event at a time). A nonzero timeout puts a
/// poll()-based deadline on each wait for NEW bytes (not on the whole line,
/// so a slowly streaming peer that keeps making progress never trips it):
/// a client must not hang on a server that accepted the connection but
/// never answers.
class LineReader {
 public:
  /// `timeout_ms` 0 = block forever.
  explicit LineReader(int fd, std::uint64_t timeout_ms = 0)
      : fd_(fd), timeout_ms_(timeout_ms) {}

  /// Reads one line (without the trailing newline). False on EOF, error,
  /// or deadline expiry — check timed_out() to tell the last apart.
  bool read_line(std::string* out);

  bool timed_out() const { return timed_out_; }
  void set_timeout(std::uint64_t ms) { timeout_ms_ = ms; }

 private:
  int fd_;
  std::uint64_t timeout_ms_;
  bool timed_out_ = false;
  LineBuffer buf_;
};

/// Writes `line` plus a newline, riding out partial writes and EINTR.
/// False on error (e.g. EPIPE after the peer vanished).
bool write_line(int fd, const std::string& line);

}  // namespace vpdift::service
