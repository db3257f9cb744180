// Table II reproduction: performance overhead of the DIFT engine.
//
// Each benchmark runs twice — on the plain VP and on the VP+ with the
// permissive policy (every DIFT mechanism engaged, no violations) — and the
// harness reports executed instructions, static image size (LoC ASM),
// simulation wall time, MIPS and the VP+/VP overhead factor, mirroring the
// paper's columns. Instruction counts are scaled down from the paper's
// multi-billion runs (see EXPERIMENTS.md); the *shape* — overhead factors in
// the 1.2x-3x band, interrupt-bound workloads at the low end — is the
// reproduced quantity. Pass a scale factor >= 1 as argv[1] for longer runs.
//
// Timing methodology: one unrecorded warmup pass of the whole suite, then
// --reps (default 3) recorded passes; the reported wall time per workload is
// the median across passes, which suppresses host scheduling noise. Executed
// instruction counts are deterministic and must agree across passes — the
// harness fails otherwise.
//
// Besides the table, the harness writes a machine-readable report
// (BENCH_table2.json by default; override with argv[2]) carrying per-workload
// VP/VP+ MIPS, the per-rep raw wall times, the overhead factor, the DIFT
// engine counters of the VP+ run, and the geometric-mean overhead of the
// paper's workload set — the number perf work is measured against. The report
// also names the host (CPU model, hardware threads) and the source commit
// (`git describe --always --dirty` of the working directory, or "unknown"),
// so absolute MIPS can be compared only where they are comparable.
//
// The runs execute through the campaign engine (campaign/suites.hpp);
// `--jobs N` / VPDIFT_JOBS runs them on N worker threads. NOTE: overhead
// factors are wall-clock ratios — run with --jobs 1 (the default) when the
// absolute MIPS numbers matter, since concurrent jobs share host cores.
// CI flags: `--only a,b,c` restricts the suite to a workload subset,
// `--max-overhead F` fails the run when any workload exceeds overhead F, and
// `--max-geomean F` fails the run when the geometric-mean overhead of the
// selected paper-set workloads exceeds F (the perf-regression gate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suites.hpp"
#include "campaign/thread_pool.hpp"
#include "dift/stats.hpp"

using namespace vpdift;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// {"cpu": first "model name" of /proc/cpuinfo, "nproc": hardware threads}.
std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"cpu\": " + campaign::json_quote(cpu) + ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

/// The source commit the bench runs in, "-dirty" when the tree has local
/// changes; "unknown" outside a git checkout.
std::string source_commit() {
  std::string out;
  if (FILE* f = popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, f)) out += buf;
    pclose(f);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string json_doubles(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4f", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t scale = 4;
  std::string json_path = "BENCH_table2.json";
  std::size_t jobs = campaign::ThreadPool::jobs_from_env(1);
  std::uint32_t reps = 3;
  double max_overhead = 0.0;  // 0 = no gate
  double max_geomean = 0.0;   // 0 = no gate
  std::vector<std::string> only;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!campaign::parse_u64(argv[++i], &n) || n < 1) {
        std::fprintf(stderr, "invalid value for --jobs: '%s'\n", argv[i]);
        return 2;
      }
      jobs = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!campaign::parse_u64(argv[++i], &n) || n < 1) {
        std::fprintf(stderr, "invalid value for --reps: '%s'\n", argv[i]);
        return 2;
      }
      reps = static_cast<std::uint32_t>(n);
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = split_csv(argv[++i]);
      if (only.empty()) {
        std::fprintf(stderr, "empty workload list for --only\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-overhead") == 0 && i + 1 < argc) {
      char* end = nullptr;
      max_overhead = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || max_overhead <= 0) {
        std::fprintf(stderr, "invalid value for --max-overhead: '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-geomean") == 0 && i + 1 < argc) {
      char* end = nullptr;
      max_geomean = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || max_geomean <= 0) {
        std::fprintf(stderr, "invalid value for --max-geomean: '%s'\n", argv[i]);
        return 2;
      }
    } else if (positional == 0) {
      std::uint64_t s = 0;
      if (!campaign::parse_u64(argv[i], &s) || s < 1) {
        std::fprintf(stderr, "invalid scale '%s'\n", argv[i]);
        return 2;
      }
      scale = static_cast<std::uint32_t>(s);
      ++positional;
    } else if (positional == 1) {
      json_path = argv[i];
      ++positional;
    } else {
      std::fprintf(stderr,
                   "usage: table2_overhead [--jobs N] [--reps N] "
                   "[--only a,b,c] [--max-overhead F] [--max-geomean F] "
                   "[scale [json-path]]\n");
      return 2;
    }
  }

  std::printf("Table II — performance overhead of VP-based DIFT (VP vs VP+)\n");
  std::printf("(workloads scaled for a laptop-class run; paper ran billions "
              "of instructions on native hardware; %zu worker%s, "
              "median of %u rep%s after warmup)\n\n",
              jobs, jobs == 1 ? "" : "s", reps, reps == 1 ? "" : "s");
  std::printf("%-14s %14s %8s | %9s %9s | %7s %7s | %5s\n", "Benchmark",
              "#instr exec.", "LoC ASM", "VP [s]", "VP+ [s]", "VP", "VP+",
              "Ov");
  std::printf("%-14s %14s %8s | %9s %9s | %7s %7s | %5s\n", "", "", "", "", "",
              "MIPS", "MIPS", "");

  const campaign::CampaignSpec spec = campaign::suites::table2(scale, only);
  if (spec.jobs.empty()) {
    std::fprintf(stderr, "no workloads selected by --only\n");
    return 2;
  }
  campaign::RunnerOptions opts;
  opts.jobs = jobs;

  campaign::Runner(opts).run(spec);  // warmup pass, unrecorded
  std::vector<std::vector<campaign::suites::Table2Row>> per_rep;
  per_rep.reserve(reps);
  for (std::uint32_t r = 0; r < reps; ++r) {
    const auto results = campaign::Runner(opts).run(spec);
    per_rep.push_back(campaign::suites::table2_rows(results, scale, only));
  }

  double sum_instr = 0, sum_loc = 0, sum_vp = 0, sum_vpd = 0, sum_mips_vp = 0,
         sum_mips_vpd = 0, sum_ov = 0, log_ov = 0;
  int n = 0;
  bool all_ok = true;
  bool over_budget = false;
  std::string json_rows;
  for (std::size_t w = 0; w < per_rep[0].size(); ++w) {
    // Rep 0 carries the canonical (deterministic) run results; the other
    // reps only contribute wall-clock samples.
    const auto& row = per_rep[0][w];
    bool ok = true;
    std::vector<double> walls_vp, walls_vpd;
    for (const auto& rep : per_rep) {
      ok = ok && rep[w].plain.ok && rep[w].dift.ok &&
           rep[w].plain.run.instret == row.plain.run.instret &&
           rep[w].dift.run.instret == row.dift.run.instret;
      walls_vp.push_back(rep[w].plain.run.wall_seconds);
      walls_vpd.push_back(rep[w].dift.run.wall_seconds);
    }
    all_ok = all_ok && ok;
    const double wall_vp = median(walls_vp);
    const double wall_vpd = median(walls_vpd);
    const double mips_vp =
        wall_vp > 0 ? static_cast<double>(row.plain.run.instret) / wall_vp / 1e6 : 0;
    const double mips_vpd =
        wall_vpd > 0 ? static_cast<double>(row.dift.run.instret) / wall_vpd / 1e6 : 0;
    const double overhead = wall_vp > 0 ? wall_vpd / wall_vp : 0;
    if (max_overhead > 0 && overhead > max_overhead) over_budget = true;
    std::printf("%-14s %14llu %8zu | %9.2f %9.2f | %7.1f %7.1f | %4.1fx%s\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.plain.run.instret),
                row.loc_asm, wall_vp, wall_vpd, mips_vp, mips_vpd, overhead,
                ok ? "" : "  [SELF-CHECK FAILED]");
    {
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "    {\"name\":\"%s\",\"extra\":%s,\"ok\":%s,"
                    "\"instret\":%llu,\"loc_asm\":%zu,"
                    "\"vp\":{\"wall_s\":%.4f,\"mips\":%.2f},"
                    "\"vp_dift\":{\"wall_s\":%.4f,\"mips\":%.2f},"
                    "\"overhead\":%.4f,",
                    row.name.c_str(), row.extra ? "true" : "false",
                    ok ? "true" : "false",
                    static_cast<unsigned long long>(row.plain.run.instret),
                    row.loc_asm, wall_vp, mips_vp, wall_vpd, mips_vpd,
                    overhead);
      if (!json_rows.empty()) json_rows += ",\n";
      json_rows += std::string(buf) + "\"walls_raw\":{\"vp\":" +
                   json_doubles(walls_vp) + ",\"vp_dift\":" +
                   json_doubles(walls_vpd) +
                   "},\"dift_stats\":" + dift::to_json(row.dift.run.stats) + "}";
    }
    if (row.extra) continue;  // extras reported but kept out of the averages
    sum_instr += static_cast<double>(row.plain.run.instret);
    sum_loc += static_cast<double>(row.loc_asm);
    sum_vp += wall_vp;
    sum_vpd += wall_vpd;
    sum_mips_vp += mips_vp;
    sum_mips_vpd += mips_vpd;
    sum_ov += overhead;
    log_ov += std::log(overhead > 0 ? overhead : 1.0);
    ++n;
  }
  const double geomean_ov = n ? std::exp(log_ov / n) : 0.0;
  if (n) {
    std::printf("%-14s %14.0f %8.0f | %9.2f %9.2f | %7.1f %7.1f | %4.1fx\n",
                "- average -", sum_instr / n, sum_loc / n, sum_vp / n,
                sum_vpd / n, sum_mips_vp / n, sum_mips_vpd / n, sum_ov / n);
  }
  std::printf("(* = extra workloads beyond the paper's set, excluded from the average)\n");
  std::printf("geomean overhead (paper set): %.2fx\n", geomean_ov);
  std::printf("\nPaper reference: average overhead 2.0x (range 1.2x-2.9x), "
              "interrupt-bound simple-sensor lowest.\n");

  std::ofstream out(json_path);
  if (out) {
    char head[256];
    std::snprintf(head, sizeof head,
                  "{\n  \"bench\": \"table2_overhead\",\n  \"scale\": %u,\n"
                  "  \"jobs\": %zu,\n  \"reps\": %u,\n"
                  "  \"geomean_overhead\": %.4f,\n"
                  "  \"all_ok\": %s,\n",
                  scale, jobs, reps, geomean_ov, all_ok ? "true" : "false");
    out << head << "  \"host\": " << host_json() << ",\n  \"commit\": "
        << campaign::json_quote(source_commit()) << ",\n  \"workloads\": [\n"
        << json_rows << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  const bool geomean_over = max_geomean > 0 && geomean_ov > max_geomean;
  if (over_budget)
    std::printf("FAILED: a workload exceeded --max-overhead %.2f.\n", max_overhead);
  if (geomean_over)
    std::printf("FAILED: geomean overhead %.4fx exceeded --max-geomean %.2f.\n",
                geomean_ov, max_geomean);
  std::printf("%s\n", all_ok ? "OK: all self-checks passed."
                             : "FAILED: a workload self-check failed.");
  return all_ok && !over_budget && !geomean_over ? 0 : 1;
}
