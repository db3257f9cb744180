#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "sa/analyze.hpp"

namespace vpdift::sa {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  return buf;
}

}  // namespace

std::string to_json(const AnalysisResult& r) {
  std::ostringstream os;
  std::size_t tainted_blocks = 0;
  for (const auto& b : r.blocks)
    if (b.touches_taint) ++tainted_blocks;
  os << "{";
  os << "\"entry\":\"" << hex(r.entry) << "\"";
  os << ",\"reachable_instructions\":" << r.reachable_instructions;
  os << ",\"linear_sweep_instructions\":" << r.linear_sweep_instructions;
  os << ",\"unreachable_bytes\":" << r.unreachable_bytes;
  os << ",\"blocks\":" << r.blocks.size();
  os << ",\"tainted_blocks\":" << tainted_blocks;
  os << ",\"trap_entries\":" << r.trap_entries.size();
  os << ",\"call_entries\":" << r.call_entries.size();
  os << ",\"unresolved_indirects\":" << r.unresolved_indirects.size();
  os << ",\"smc_stores\":" << r.smc_stores.size();
  os << ",\"complete\":" << (r.complete ? "true" : "false");
  os << ",\"taint_free\":" << (r.taint_free ? "true" : "false");
  os << ",\"reachable_violations\":" << r.reachable_violations;
  os << ",\"findings\":[";
  bool first = true;
  for (const auto& f : r.findings) {
    if (!first) os << ",";
    first = false;
    os << "{\"kind\":\"" << json_escape(f.kind) << "\""
       << ",\"where\":\"" << json_escape(f.where) << "\""
       << ",\"pc\":\"" << hex(f.pc) << "\""
       << ",\"reachable\":" << (f.reachable ? "true" : "false")
       << ",\"detail\":\"" << json_escape(f.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string to_text(const AnalysisResult& r) {
  std::ostringstream os;
  std::size_t tainted_blocks = 0;
  for (const auto& b : r.blocks)
    if (b.touches_taint) ++tainted_blocks;
  os << "static analysis report\n"
     << "  entry                : " << hex(r.entry) << "\n"
     << "  reachable insns      : " << r.reachable_instructions
     << " (linear sweep " << r.linear_sweep_instructions << ", "
     << r.unreachable_bytes << " unreachable text bytes)\n"
     << "  basic blocks         : " << r.blocks.size() << " (" << tainted_blocks
     << " may touch taint)\n"
     << "  functions / traps    : " << r.call_entries.size() << " / "
     << r.trap_entries.size() << "\n"
     << "  cfg complete         : " << (r.complete ? "yes" : "no")
     << "  taint-free policy: " << (r.taint_free ? "yes" : "no") << "\n"
     << "  reachable violations : " << r.reachable_violations << "\n";
  if (r.findings.empty()) {
    os << "  findings             : none\n";
  } else {
    os << "  findings (" << r.findings.size() << "):\n";
    for (const auto& f : r.findings) {
      os << "    [" << f.kind << "] " << f.where;
      if (f.pc != 0) os << " @ " << hex(f.pc);
      os << "\n      " << f.detail << "\n";
    }
  }
  return os.str();
}

}  // namespace vpdift::sa
