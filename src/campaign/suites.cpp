#include "campaign/suites.hpp"

#include <functional>
#include <map>
#include <stdexcept>

#include "fw/attacks.hpp"
#include "fw/benchmarks.hpp"
#include "fw/immobilizer.hpp"

namespace vpdift::campaign::suites {

namespace {

const char* paper_expected(int id) {
  switch (id) {
    case 3: case 5: case 6: case 7: case 9: case 10: case 11: case 13:
    case 14: case 17:
      return "Detected";
    default:
      return "N/A";
  }
}

const JobResult* find_result(const std::vector<JobResult>& results,
                             const std::string& name) {
  for (const JobResult& r : results)
    if (r.name == name) return &r;
  return nullptr;
}

}  // namespace

CampaignSpec table1() {
  CampaignSpec spec;
  spec.name = "table1-code-injection";
  for (const auto& s : fw::attack_specs()) {
    if (!s.applicable) continue;
    const auto atk = fw::make_attack(s.id);
    const std::string base = "atk" + std::to_string(s.id);

    JobSpec control;
    control.name = base + "-plain";
    control.firmware = "attack:" + std::to_string(s.id);
    control.mode = VpMode::kPlain;
    control.uart_input = atk.uart_input;
    control.expect = "exit:42";
    spec.jobs.push_back(std::move(control));

    JobSpec detect;
    detect.name = base + "-dift";
    detect.firmware = "attack:" + std::to_string(s.id);
    detect.mode = VpMode::kDift;
    detect.policy = "code-injection";
    detect.uart_input = atk.uart_input;
    detect.expect = "violation:fetch-clearance";
    spec.jobs.push_back(std::move(detect));
  }
  return spec;
}

std::vector<Table1Row> table1_rows(const std::vector<JobResult>& results) {
  std::vector<Table1Row> rows;
  for (const auto& s : fw::attack_specs()) {
    Table1Row row;
    row.id = s.id;
    row.location = s.location;
    row.target = s.target;
    row.technique = s.technique;
    row.expected = paper_expected(s.id);
    row.result = "N/A";
    if (s.applicable) {
      const std::string base = "atk" + std::to_string(s.id);
      const JobResult* control = find_result(results, base + "-plain");
      const JobResult* detect = find_result(results, base + "-dift");
      if (!control || !detect)
        throw std::invalid_argument("table1_rows: missing results for " + base);
      row.exploit_works = control->run.exited() && control->run.exit_code == 42 &&
                          control->run.markers.find('X') != std::string::npos;
      const bool detected =
          detect->run.violation() &&
          detect->run.violation_kind == dift::ViolationKind::kFetchClearance &&
          detect->run.markers.find('X') == std::string::npos;
      row.result = detected ? "Detected" : "MISSED";
    }
    row.match = row.result == row.expected;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

struct Table2Workload {
  std::string name;
  std::function<rvasm::Program(std::uint32_t)> make;
  std::function<vp::VpConfig()> config = [] { return vp::VpConfig{}; };
  bool extra = false;
};

std::vector<Table2Workload> table2_workloads() {
  return {
      {"qsort", [](std::uint32_t s) { return fw::make_qsort(30000 * s, 0xc0ffee); }},
      {"dhrystone", [](std::uint32_t s) { return fw::make_dhrystone(40000 * s); }},
      {"primes", [](std::uint32_t s) { return fw::make_primes(60000 * s); }},
      {"sha512", [](std::uint32_t s) { return fw::make_sha512(2048, 120 * s); }},
      {"sha256*",
       [](std::uint32_t s) { return fw::make_sha256(4096, 1200 * s); },
       [] { return vp::VpConfig{}; },
       /*extra=*/true},
      {"crc32*",
       [](std::uint32_t s) { return fw::make_crc32(4096, 60 * s); },
       [] { return vp::VpConfig{}; },
       /*extra=*/true},
      {"matmul*",
       [](std::uint32_t s) { return fw::make_matmul(40 + 12 * s); },
       [] { return vp::VpConfig{}; },
       /*extra=*/true},
      {"simple-sensor",
       [](std::uint32_t s) { return fw::make_simple_sensor(1500 * s); },
       [] {
         vp::VpConfig cfg;
         cfg.sensor_period = sysc::Time::us(100);
         return cfg;
       }},
      {"rtos-tasks",
       [](std::uint32_t s) { return fw::make_rtos_tasks(1200 * s, 50); }},
      {"immo-fixed",
       [](std::uint32_t s) {
         return fw::make_immobilizer(fw::ImmoVariant::kFixedDump, demo_pin(),
                                     15 * s);
       },
       [] {
         vp::VpConfig cfg;
         cfg.with_engine_ecu = true;
         cfg.engine_pin = demo_pin();
         cfg.engine_period = sysc::Time::ms(1);
         return cfg;
       }},
  };
}

// `only` matching tolerates the trailing '*' marking extra workloads, so CI
// subsets can say "sha256" rather than "sha256*".
bool selected(const std::string& name, const std::vector<std::string>& only) {
  if (only.empty()) return true;
  std::string bare = name;
  if (!bare.empty() && bare.back() == '*') bare.pop_back();
  for (const std::string& f : only)
    if (f == name || f == bare) return true;
  return false;
}

}  // namespace

CampaignSpec table2(std::uint32_t scale, const std::vector<std::string>& only) {
  CampaignSpec spec;
  spec.name = "table2-overhead";
  for (const Table2Workload& w : table2_workloads()) {
    if (!selected(w.name, only)) continue;
    for (const bool dift : {false, true}) {
      JobSpec job;
      job.name = w.name + (dift ? "-vpd" : "-vp");
      job.firmware = "table2:" + w.name;  // informational; make_program wins
      job.mode = dift ? VpMode::kDift : VpMode::kPlain;
      if (dift) job.policy = "permissive";
      job.max_ms = 600'000;  // the bench's 600-second simulated budget
      job.expect = "exit:0";
      job.make_program = [make = w.make, scale] { return make(scale); };
      job.make_config = w.config;
      spec.jobs.push_back(std::move(job));
    }
  }
  return spec;
}

std::vector<Table2Row> table2_rows(const std::vector<JobResult>& results,
                                   std::uint32_t scale,
                                   const std::vector<std::string>& only) {
  std::vector<Table2Row> rows;
  for (const Table2Workload& w : table2_workloads()) {
    if (!selected(w.name, only)) continue;
    const JobResult* plain = find_result(results, w.name + "-vp");
    const JobResult* dift = find_result(results, w.name + "-vpd");
    if (!plain || !dift)
      throw std::invalid_argument("table2_rows: missing results for " + w.name);
    Table2Row row;
    row.name = w.name;
    row.extra = w.extra;
    row.loc_asm = w.make(scale).instruction_slots();
    row.plain = *plain;
    row.dift = *dift;
    row.overhead = plain->run.mips > 0 && dift->run.mips > 0
                       ? plain->run.mips / dift->run.mips
                       : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace vpdift::campaign::suites
