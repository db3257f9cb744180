#include "service/worker.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "service/executor.hpp"
#include "service/protocol.hpp"

namespace vpdift::service {

namespace {

using campaign::JsonValue;

std::string ev_head(const char* ev, std::uint64_t id) {
  return std::string("{\"ev\":\"") + ev +
         "\",\"id\":" + std::to_string(id);
}

}  // namespace

int worker_main(int fd, const WorkerConfig& cfg) {
  WarmCache cache;
  Executor exec(cache);

  // The heartbeat thread shares the reply socket with the op loop; frames
  // are whole lines, so one mutex around every write keeps them intact.
  std::mutex write_mu;
  const auto send = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mu);
    write_line(fd, line);
  };

  // `current_op` is the id of the op executing right now (0 when idle);
  // `progress` is the live instret of its simulation, published by the
  // runner's progress guard. Together they let the parent tell a slow but
  // advancing job from a wedged one.
  std::atomic<std::uint64_t> current_op{0};
  std::atomic<std::uint64_t> progress{0};
  exec.set_progress(&progress);

  std::atomic<bool> stop{false};
  std::thread hb;
  if (cfg.heartbeat_ms > 0) {
    hb = std::thread([&] {
      // Sleep in short slices so quit/EOF joins promptly even with a long
      // heartbeat period.
      const auto slice = std::chrono::milliseconds(20);
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(cfg.heartbeat_ms);
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(slice);
        const auto now = std::chrono::steady_clock::now();
        if (now < next) continue;
        next = now + std::chrono::milliseconds(cfg.heartbeat_ms);
        send(ev_head("hb", current_op.load(std::memory_order_relaxed)) +
             ",\"instret\":" +
             std::to_string(progress.load(std::memory_order_relaxed)) + "}");
      }
    });
  }
  const auto shut_down = [&](int rc) {
    stop.store(true, std::memory_order_relaxed);
    if (hb.joinable()) hb.join();
    return rc;
  };

  LineReader in(fd);
  std::string line;
  while (in.read_line(&line)) {
    if (line.empty()) continue;
    std::uint64_t id = 0;
    try {
      const JsonValue msg = campaign::json_parse(line);
      const std::string op = msg.str_or("op");
      id = msg.u64_or("id", 0);
      if (op == "quit") return shut_down(0);

      current_op.store(id, std::memory_order_relaxed);
      progress.store(0, std::memory_order_relaxed);
      send(ev_head("start", id) + "}");

      const CacheStats before = cache.stats();
      auto delta = [&] { return (cache.stats() - before).to_json(); };
      // Both fi ops name their suite the same way.
      fi::FiSuiteSpec suite;
      suite.benchmark = msg.str_or("benchmark");
      suite.seed = msg.u64_or("seed", 1);
      suite.n_faults = static_cast<std::size_t>(msg.u64_or("n", 0));

      if (op == "job") {
        const JsonValue* spec = msg.find("spec");
        if (!spec || spec->kind != JsonValue::Kind::kObject)
          throw std::runtime_error("job op without a spec object");
        campaign::JobSpec job;
        campaign::job_spec_from_json(job, *spec);
        const campaign::JobResult res = exec.run_job(job);
        send(ev_head("result", id) +
             ",\"result\":" + job_result_to_json(res) +
             ",\"stats\":" + delta() + "}");
      } else if (op == "fi-golden") {
        const campaign::JobResult res = exec.fi_golden(suite);
        send(ev_head("result", id) +
             ",\"result\":" + job_result_to_json(res) +
             ",\"stats\":" + delta() + "}");
      } else if (op == "fi") {
        const JsonValue* goldenv = msg.find("golden");
        if (!goldenv || goldenv->kind != JsonValue::Kind::kObject)
          throw std::runtime_error("fi op without a golden object");
        const campaign::JobResult golden = job_result_from_json(*goldenv);
        std::vector<std::size_t> indices;
        if (const JsonValue* iv = msg.find("indices");
            iv && iv->kind == JsonValue::Kind::kArray) {
          for (const JsonValue& e : iv->array)
            indices.push_back(static_cast<std::size_t>(e.number));
        }
        // Stream each finished fault up immediately — the server relays it
        // to the client, which is where "incremental per-job results" on a
        // long fi submission come from.
        const auto on_done = [&](const campaign::JobResult& r) {
          send(ev_head("job", id) +
               ",\"result\":" + job_result_to_json(r) + "}");
        };
        fi::ForkStats fork;
        const std::vector<campaign::JobResult> results =
            exec.fi_run(suite, golden, indices, on_done, &fork);
        std::string skipped;
        for (std::size_t i : indices)
          if (i < results.size() && results[i].verdict == "skipped")
            skipped += (skipped.empty() ? "" : ",") + std::to_string(i);
        send(ev_head("result", id) +
             ",\"fork\":" + fork_stats_to_json(fork) +
             ",\"skipped\":[" + skipped +
             "],\"stats\":" + delta() + "}");
      } else {
        throw std::runtime_error("unknown op: " + op);
      }
    } catch (const std::exception& e) {
      send(ev_head("error", id) +
           ",\"error\":" + campaign::json_quote(e.what()) + "}");
    } catch (...) {
      send(ev_head("error", id) + ",\"error\":\"non-std exception\"}");
    }
    current_op.store(0, std::memory_order_relaxed);
    progress.store(0, std::memory_order_relaxed);
  }
  return shut_down(0);
}

}  // namespace vpdift::service
