#include "service/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "campaign/json.hpp"
#include "service/protocol.hpp"

namespace vpdift::service {

using campaign::JsonValue;

Client::Client(const std::string& socket_path, const ClientOptions& opts)
    : opts_(opts) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  // Deadline-bounded connect: go nonblocking, poll for writability, read
  // SO_ERROR. A dead-but-bound socket path fails here instead of hanging.
  const int fl = ::fcntl(fd_, F_GETFL, 0);
  if (opts_.timeout_ms > 0 && fl >= 0)
    ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (opts_.timeout_ms > 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
      struct pollfd pfd {fd_, POLLOUT, 0};
      int pr;
      do {
        pr = ::poll(&pfd, 1, static_cast<int>(opts_.timeout_ms));
      } while (pr < 0 && errno == EINTR);
      int err = 0;
      socklen_t len = sizeof err;
      if (pr <= 0 ||
          ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error(
            "cannot connect to " + socket_path + ": " +
            (pr == 0 ? "connect timed out" : std::strerror(err ? err : errno)));
      }
    } else {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("cannot connect to " + socket_path + ": " +
                               std::strerror(saved));
    }
  }
  // Reads go through the deadline-bounded LineReader (poll-before-read), so
  // the fd can stay blocking for the small request writes.
  if (opts_.timeout_ms > 0 && fl >= 0) ::fcntl(fd_, F_SETFL, fl);
  in_ = LineReader(fd_, opts_.timeout_ms);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::read_reply(std::string* line) {
  in_.set_timeout(opts_.timeout_ms);
  return in_.read_line(line);
}

bool Client::ping() {
  if (!write_line(fd_, "{\"op\":\"ping\"}")) return false;
  std::string line;
  if (!read_reply(&line)) return false;
  try {
    return campaign::json_parse(line).str_or("event") == "pong";
  } catch (const std::exception&) {
    return false;
  }
}

Outcome Client::await_done(
    std::uint64_t id, const std::function<void(const JobEvent&)>& on_job) {
  Outcome out;
  // Until "accepted" this is a control-plane wait (short deadline); after
  // it the submission may legitimately run for a long time, so the clock
  // relaxes to the idle timeout — which any event resets, server
  // heartbeats included.
  in_.set_timeout(opts_.timeout_ms);
  std::string line;
  bool accepted = false;
  for (;;) {
    if (!in_.read_line(&line)) {
      if (in_.timed_out())
        out.error = accepted ? "server went silent mid-submission"
                             : "timed out waiting for the server";
      else
        out.error = "server closed the connection";
      return out;
    }
    JsonValue msg;
    try {
      msg = campaign::json_parse(line);
    } catch (const std::exception& e) {
      out.error = std::string("garbled server line: ") + e.what();
      return out;
    }
    const std::string ev = msg.str_or("event");
    const std::uint64_t ev_id = msg.u64_or("id", id);
    if (ev == "error") {
      // Only this submission's errors end it. id 0 is the server's
      // connection-level reply (e.g. a garbled request line) — also fatal;
      // another submission's error on a shared connection is not ours.
      if (ev_id != id && ev_id != 0) continue;
      out.error = msg.str_or("error", "unknown server error");
      out.retry_after_ms = msg.u64_or("retry_after_ms", 0);
      return out;
    }
    if (ev_id != id) continue;
    if (ev == "hb") continue;  // liveness only; the read above reset the clock
    if (ev == "accepted") {
      out.jobs = static_cast<std::size_t>(msg.u64_or("jobs", 0));
      accepted = true;
      in_.set_timeout(opts_.idle_timeout_ms);
      continue;
    }
    if (ev == "job") {
      if (on_job) {
        JobEvent je;
        je.name = msg.str_or("name");
        je.verdict = msg.str_or("verdict");
        je.ok = msg.bool_or("ok");
        on_job(je);
      }
      continue;
    }
    if (ev == "done") {
      out.ok = msg.bool_or("ok");
      out.report = msg.str_or("report");
      if (const JsonValue* sv = msg.find("service");
          sv && sv->kind == JsonValue::Kind::kObject)
        out.service = cache_stats_from_json(*sv);
      return out;
    }
  }
}

Outcome Client::submit(const std::string& body,
                       const std::function<void(const JobEvent&)>& on_job) {
  Outcome out;
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t id = next_id_++;
    const std::string req =
        "{\"op\":\"submit\",\"id\":" + std::to_string(id) + "," + body + "}";
    if (!write_line(fd_, req)) {
      out.error = "cannot write to server";
      return out;
    }
    out = await_done(id, on_job);
    if (out.error != "overloaded" || attempt >= opts_.submit_retries)
      return out;
    // Shed: back off and retry. The server's hint seeds a capped
    // exponential so a whole fleet of shed clients doesn't return in step.
    std::uint64_t wait = out.retry_after_ms ? out.retry_after_ms : 100;
    wait = std::min<std::uint64_t>(wait << std::min(attempt, 4), 5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
  }
}

Outcome Client::submit_ref(
    const std::string& ref, std::uint64_t seed, std::size_t workers,
    const std::function<void(const JobEvent&)>& on_job) {
  std::string body = "\"ref\":" + campaign::json_quote(ref) +
                     ",\"seed\":" + std::to_string(seed);
  if (workers) body += ",\"workers\":" + std::to_string(workers);
  return submit(body, on_job);
}

Outcome Client::submit_spec(
    const std::string& spec_text,
    const std::function<void(const JobEvent&)>& on_job, bool analyze) {
  const std::string body = "\"spec\":" + campaign::json_quote(spec_text) +
                           (analyze ? ",\"analyze\":true" : "");
  return submit(body, on_job);
}

CacheStats Client::server_stats() {
  CacheStats s;
  if (!write_line(fd_, "{\"op\":\"stats\"}")) return s;
  std::string line;
  while (read_reply(&line)) {
    try {
      const JsonValue msg = campaign::json_parse(line);
      if (msg.str_or("event") != "stats") continue;
      if (const JsonValue* sv = msg.find("service");
          sv && sv->kind == JsonValue::Kind::kObject)
        return cache_stats_from_json(*sv);
      return s;
    } catch (const std::exception&) {
      return s;
    }
  }
  return s;
}

void Client::shutdown_server() {
  write_line(fd_, "{\"op\":\"shutdown\"}");
  std::string line;
  read_reply(&line);  // "bye" (or EOF / timeout)
}

}  // namespace vpdift::service
