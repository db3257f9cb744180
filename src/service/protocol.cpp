#include "service/protocol.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "dift/violation.hpp"
#include "vp/vp.hpp"

namespace vpdift::service {

namespace {

constexpr std::size_t kExitReasonCount = 7;
constexpr std::size_t kViolationKindCount = 8;

/// Enum round trips scan the existing to_string tables instead of keeping a
/// parallel name list that could drift. A reason this build has no name for
/// (a newer peer) decodes to kUnknown with the raw string preserved — NOT to
/// some default, which would silently reclassify the run.
vp::ExitReason exit_reason_from_string(const std::string& s,
                                       std::string* raw_out) {
  for (std::size_t i = 0; i < kExitReasonCount; ++i) {
    const auto r = static_cast<vp::ExitReason>(i);
    if (s == vp::to_string(r)) return r;
  }
  if (raw_out) *raw_out = s;
  return vp::ExitReason::kUnknown;
}

dift::ViolationKind violation_kind_from_string(const std::string& s) {
  for (std::size_t i = 0; i < kViolationKindCount; ++i) {
    const auto k = static_cast<dift::ViolationKind>(i);
    if (s == dift::to_string(k)) return k;
  }
  throw std::runtime_error("unknown violation kind: " + s);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string pc_list(const std::vector<std::uint64_t>& pcs) {
  std::string out = "[";
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(pcs[i]);
  }
  return out + "]";
}

std::vector<std::uint64_t> pc_list_from(const campaign::JsonValue* v) {
  std::vector<std::uint64_t> out;
  if (!v || v->kind != campaign::JsonValue::Kind::kArray) return out;
  out.reserve(v->array.size());
  for (const campaign::JsonValue& e : v->array)
    if (e.kind == campaign::JsonValue::Kind::kNumber)
      out.push_back(static_cast<std::uint64_t>(e.number));
  return out;
}

}  // namespace

std::string analysis_to_json(const sa::AnalysisResult& r) {
  using campaign::json_quote;
  std::ostringstream o;
  o << "{\"entry\":" << num(r.entry)
    << ",\"reachable_instructions\":" << r.reachable_instructions
    << ",\"linear_sweep_instructions\":" << r.linear_sweep_instructions
    << ",\"unreachable_bytes\":" << r.unreachable_bytes << ",\"blocks\":[";
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    const sa::BlockSummary& b = r.blocks[i];
    o << (i ? "," : "") << "{\"start\":" << num(b.start)
      << ",\"end\":" << num(b.end)
      << ",\"taint\":" << (b.touches_taint ? "true" : "false") << "}";
  }
  o << "],\"trap_entries\":" << pc_list(r.trap_entries)
    << ",\"call_entries\":" << pc_list(r.call_entries)
    << ",\"unresolved_indirects\":" << pc_list(r.unresolved_indirects)
    << ",\"smc_stores\":" << pc_list(r.smc_stores)
    << ",\"complete\":" << (r.complete ? "true" : "false")
    << ",\"taint_free\":" << (r.taint_free ? "true" : "false")
    << ",\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const sa::Finding& f = r.findings[i];
    o << (i ? "," : "") << "{\"kind\":" << json_quote(f.kind)
      << ",\"where\":" << json_quote(f.where) << ",\"pc\":" << num(f.pc)
      << ",\"reachable\":" << (f.reachable ? "true" : "false")
      << ",\"detail\":" << json_quote(f.detail) << "}";
  }
  o << "],\"reachable_violations\":" << r.reachable_violations << "}";
  return o.str();
}

sa::AnalysisResult analysis_from_json(const campaign::JsonValue& obj) {
  using campaign::JsonValue;
  sa::AnalysisResult r;
  r.entry = obj.u64_or("entry", 0);
  r.reachable_instructions =
      static_cast<std::size_t>(obj.u64_or("reachable_instructions", 0));
  r.linear_sweep_instructions =
      static_cast<std::size_t>(obj.u64_or("linear_sweep_instructions", 0));
  r.unreachable_bytes =
      static_cast<std::size_t>(obj.u64_or("unreachable_bytes", 0));
  if (const JsonValue* bs = obj.find("blocks");
      bs && bs->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& e : bs->array) {
      sa::BlockSummary b;
      b.start = e.u64_or("start", 0);
      b.end = e.u64_or("end", 0);
      b.touches_taint = e.bool_or("taint", false);
      r.blocks.push_back(b);
    }
  }
  r.trap_entries = pc_list_from(obj.find("trap_entries"));
  r.call_entries = pc_list_from(obj.find("call_entries"));
  r.unresolved_indirects = pc_list_from(obj.find("unresolved_indirects"));
  r.smc_stores = pc_list_from(obj.find("smc_stores"));
  r.complete = obj.bool_or("complete", false);
  r.taint_free = obj.bool_or("taint_free", false);
  if (const JsonValue* fs = obj.find("findings");
      fs && fs->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& e : fs->array) {
      sa::Finding f;
      f.kind = e.str_or("kind", "");
      f.where = e.str_or("where", "");
      f.pc = e.u64_or("pc", 0);
      f.reachable = e.bool_or("reachable", false);
      f.detail = e.str_or("detail", "");
      r.findings.push_back(std::move(f));
    }
  }
  r.reachable_violations =
      static_cast<std::size_t>(obj.u64_or("reachable_violations", 0));
  return r;
}

std::string job_result_to_json(const campaign::JobResult& r) {
  using campaign::json_quote;
  std::ostringstream o;
  o << "{\"name\":" << json_quote(r.name)
    << ",\"verdict\":" << json_quote(r.verdict)
    << ",\"ok\":" << (r.ok ? "true" : "false")
    << ",\"attempts\":" << r.attempts
    << ",\"error\":" << json_quote(r.error)
    << ",\"wall_seconds\":" << num(r.wall_seconds) << ",\"history\":[";
  for (std::size_t i = 0; i < r.history.size(); ++i)
    o << (i ? "," : "") << "{\"verdict\":" << json_quote(r.history[i].verdict)
      << ",\"error\":" << json_quote(r.history[i].error)
      << ",\"instret\":" << num(r.history[i].instret) << "}";
  const vp::RunResult& run = r.run;
  // A kUnknown result re-emits the verbatim foreign name so a relay through
  // this build is lossless.
  const std::string reason_name =
      run.reason == vp::ExitReason::kUnknown && !run.reason_raw.empty()
          ? run.reason_raw
          : vp::to_string(run.reason);
  o << "],\"run\":{\"reason\":" << json_quote(reason_name)
    << ",\"exit_code\":" << run.exit_code
    << ",\"watchdog_resets\":" << run.watchdog_resets
    << ",\"violation_kind\":" << json_quote(dift::to_string(run.violation_kind))
    << ",\"violation_source\":" << unsigned(run.violation_source)
    << ",\"violation_required\":" << unsigned(run.violation_required)
    << ",\"violation_pc\":" << num(run.violation_pc)
    << ",\"violation_where\":" << json_quote(run.violation_where)
    << ",\"violation_message\":" << json_quote(run.violation_message)
    << ",\"recorded_violations\":[";
  for (std::size_t i = 0; i < run.recorded_violations.size(); ++i) {
    const dift::ViolationRecord& v = run.recorded_violations[i];
    o << (i ? "," : "") << "{\"kind\":" << json_quote(dift::to_string(v.kind))
      << ",\"source\":" << unsigned(v.source)
      << ",\"required\":" << unsigned(v.required) << ",\"pc\":" << num(v.pc)
      << ",\"address\":" << num(v.address)
      << ",\"where\":" << json_quote(v.where) << "}";
  }
  o << "],\"trace_dump\":" << json_quote(run.trace_dump)
    << ",\"instret\":" << num(run.instret)
    << ",\"wall_s\":" << num(run.wall_seconds) << ",\"mips\":" << num(run.mips)
    << ",\"sim_ps\":" << num(run.sim_time.picos())
    << ",\"uart_output\":" << json_quote(run.uart_output)
    << ",\"markers\":" << json_quote(run.markers)
    << ",\"stats\":" << dift::to_json(run.stats) << "}";
  if (r.analysis) o << ",\"analysis\":" << analysis_to_json(*r.analysis);
  o << "}";
  return o.str();
}

campaign::JobResult job_result_from_json(const campaign::JsonValue& obj) {
  using campaign::JsonValue;
  campaign::JobResult r;
  r.name = obj.str_or("name", "");
  r.verdict = obj.str_or("verdict", "");
  r.ok = obj.bool_or("ok", false);
  r.attempts = static_cast<int>(obj.u64_or("attempts", 0));
  r.error = obj.str_or("error", "");
  r.wall_seconds = obj.num_or("wall_seconds", 0.0);
  if (const JsonValue* av = obj.find("analysis");
      av && av->kind == JsonValue::Kind::kObject)
    r.analysis =
        std::make_shared<const sa::AnalysisResult>(analysis_from_json(*av));
  if (const JsonValue* h = obj.find("history");
      h && h->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& e : h->array)
      r.history.push_back({e.str_or("verdict", ""), e.str_or("error", ""),
                           e.u64_or("instret", 0)});
  }
  const JsonValue* runv = obj.find("run");
  if (!runv || runv->kind != JsonValue::Kind::kObject) return r;
  vp::RunResult& run = r.run;
  run.reason = exit_reason_from_string(runv->str_or("reason", "sim-timeout"),
                                       &run.reason_raw);
  run.exit_code = static_cast<std::uint32_t>(runv->u64_or("exit_code", 0));
  run.watchdog_resets =
      static_cast<std::uint32_t>(runv->u64_or("watchdog_resets", 0));
  run.violation_kind = violation_kind_from_string(
      runv->str_or("violation_kind", "output-clearance"));
  run.violation_source =
      static_cast<dift::Tag>(runv->u64_or("violation_source", 0));
  run.violation_required =
      static_cast<dift::Tag>(runv->u64_or("violation_required", 0));
  run.violation_pc = runv->u64_or("violation_pc", 0);
  run.violation_where = runv->str_or("violation_where", "");
  run.violation_message = runv->str_or("violation_message", "");
  if (const JsonValue* rv = runv->find("recorded_violations");
      rv && rv->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& e : rv->array) {
      dift::ViolationRecord v;
      v.kind =
          violation_kind_from_string(e.str_or("kind", "output-clearance"));
      v.source = static_cast<dift::Tag>(e.u64_or("source", 0));
      v.required = static_cast<dift::Tag>(e.u64_or("required", 0));
      v.pc = e.u64_or("pc", 0);
      v.address = e.u64_or("address", 0);
      v.where = e.str_or("where", "");
      run.recorded_violations.push_back(std::move(v));
    }
  }
  run.trace_dump = runv->str_or("trace_dump", "");
  run.instret = runv->u64_or("instret", 0);
  run.wall_seconds = runv->num_or("wall_s", 0.0);
  run.mips = runv->num_or("mips", 0.0);
  run.sim_time = sysc::Time::ps(runv->u64_or("sim_ps", 0));
  run.uart_output = runv->str_or("uart_output", "");
  run.markers = runv->str_or("markers", "");
  if (const JsonValue* st = runv->find("stats");
      st && st->kind == JsonValue::Kind::kObject) {
    run.stats.for_each([&](const char* k, std::uint64_t& v) {
      v = st->u64_or(k, 0);
    });
  }
  return r;
}

std::string fork_stats_to_json(const fi::ForkStats& s) {
  std::ostringstream o;
  o << "{\"golden_instret\":" << s.golden_instret
    << ",\"tail_instret\":" << s.tail_instret
    << ",\"replay_instret\":" << s.replay_instret
    << ",\"snapshots\":" << s.snapshots << "}";
  return o.str();
}

fi::ForkStats fork_stats_from_json(const campaign::JsonValue& obj) {
  fi::ForkStats s;
  s.golden_instret = obj.u64_or("golden_instret", 0);
  s.tail_instret = obj.u64_or("tail_instret", 0);
  s.replay_instret = obj.u64_or("replay_instret", 0);
  s.snapshots = static_cast<std::size_t>(obj.u64_or("snapshots", 0));
  return s;
}

bool LineReader::read_line(std::string* out) {
  timed_out_ = false;
  while (!buf_.pop(out)) {
    if (timeout_ms_ > 0) {
      struct pollfd pfd {fd_, POLLIN, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms_));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        timed_out_ = true;
        return false;
      }
      if (rc < 0) return false;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buf_.feed(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

bool LineBuffer::pop(std::string* line) {
  const std::size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

bool write_line(int fd, const std::string& line) {
  std::string data = line;
  data += '\n';
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace vpdift::service
