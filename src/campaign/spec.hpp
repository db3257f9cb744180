// Campaign specifications: what to run.
//
// A campaign is a list of jobs, each one VP execution: firmware x policy x
// mode x UART input x time budget. Specs come from three places:
//   * programmatic construction (the Table I / Table II suite builders),
//   * a line-oriented text file (the policy-parser idiom: keyword lines,
//     '#' comments),
//   * a JSON file (detected by a leading '{'), for machine-written sweeps.
//
// Text format:
//
//   campaign my-sweep          # optional, names the report
//   defaults                   # optional, applies to every later job
//     max-ms 10000
//     retries 1
//   job atk3
//     firmware attack:3        # builtin name, attack:N, code-reuse,
//                              # or a path to an ELF32 file
//     policy code-injection    # permissive | code-injection | immobilizer |
//                              # immobilizer-per-byte | path to a policy file
//     mode dift                # plain | dift | monitor
//     uart-input AAAA\x2a\n    # \xNN, \n, \r, \t, \0, \\ escapes
//     max-ms 10000             # simulated-time budget
//     wall-budget-s 5.0        # wall-clock budget (0 = none)
//     mem-budget-mb 256        # RLIMIT_AS headroom in a service worker
//     retries 0                # re-run attempts after a crash
//     engine-ecu on            # attach the engine ECU across the CAN link
//     analyze on               # static pre-pass: lint report
//     expect violation:fetch-clearance   # exit[:N] | violation[:kind] |
//                                        # timeout | wall-timeout
//
// The JSON form mirrors the same keys:
//   {"campaign": "my-sweep",
//    "defaults": {"max_ms": 10000},
//    "jobs": [{"name": "atk3", "firmware": "attack:3", "mode": "dift",
//              "policy": "code-injection", "expect": "violation"}]}
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/json.hpp"
#include "rvasm/program.hpp"
#include "vp/vp.hpp"

namespace vpdift::campaign {

/// Which VP instantiation executes the job.
enum class VpMode { kPlain, kDift, kMonitor };
const char* to_string(VpMode mode);

struct JobSpec {
  std::string name;
  std::string firmware;   ///< builtin | attack:N | code-reuse | ELF path
  std::string policy;     ///< "" | builtin scenario name | policy-file path
  VpMode mode = VpMode::kPlain;
  /// Bytes fed into the UART before the run. Empty + an attack:N /
  /// code-reuse firmware = the attack's canonical payload.
  std::string uart_input;
  std::uint64_t max_ms = 10000;   ///< simulated-time budget
  double wall_budget_s = 0.0;     ///< wall-clock budget; 0 = unlimited
  /// Memory headroom the job may allocate on top of the process baseline
  /// (MiB; 0 = unlimited). Enforced via RLIMIT_AS by the service worker for
  /// the duration of the job — an oversized ELF fails as a contained crash
  /// verdict instead of OOMing the host. The one-shot CLI ignores it.
  std::uint64_t mem_budget_mb = 0;
  int retries = 0;                ///< extra attempts after a crash
  bool engine_ecu = false;        ///< attach the engine ECU (immobilizer)
  /// Run the static analyzer over firmware x policy before execution: the
  /// job result carries the lint report.
  bool analyze = false;
  std::string expect;             ///< verdict pattern; empty = "did not crash"

  /// Programmatic overrides (suite builders only; not settable from files).
  std::function<rvasm::Program()> make_program;
  std::function<vp::VpConfig()> make_config;
  /// Run right before simulated time starts (image, policy and UART input
  /// are already applied). The fault-injection suite uses these to arm the
  /// fault; only the hook matching the job's VP flavour is called.
  std::function<void(vp::VpDift&)> pre_run_dift;
  std::function<void(vp::Vp&)> pre_run_plain;
};

class SpecParseError : public std::runtime_error {
 public:
  SpecParseError(std::size_t line, const std::string& message)
      : std::runtime_error("campaign spec line " + std::to_string(line) +
                           ": " + message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<JobSpec> jobs;

  /// Parses a text or JSON spec (JSON when the first non-space char is '{').
  /// Throws SpecParseError with a line number on malformed input.
  static CampaignSpec parse(std::string_view text);

  /// parse() over a file's contents; throws std::runtime_error if unreadable.
  static CampaignSpec load_file(const std::string& path);
};

/// Strict numeric parsing (whole string must convert; no silent-zero like
/// atoi). Shared with the CLI front ends.
bool parse_u64(std::string_view s, std::uint64_t* out);
bool parse_i32(std::string_view s, std::int32_t* out);
bool parse_f64(std::string_view s, double* out);

/// Decodes \xNN, \n, \r, \t, \0, \\ escapes (UART input payloads).
/// Throws std::invalid_argument on a malformed escape.
std::string decode_escapes(std::string_view s);

/// Applies the fields of a parsed JSON job object to `job` (same field
/// names as the JSON spec format). Throws SpecParseError on an unknown
/// field or unsupported value type.
void job_spec_from_json(JobSpec& job, const JsonValue& obj);

/// Serializes the file-settable fields of `job` as one JSON object. The
/// programmatic hooks (make_program / make_config / pre_run_*) cannot cross
/// a file or process boundary and are deliberately not represented — a
/// round-tripped JobSpec is the declarative subset only.
std::string job_spec_to_json(const JobSpec& job);

}  // namespace vpdift::campaign
