#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <stdexcept>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/aggregator.hpp"
#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "service/cache.hpp"
#include "service/hash.hpp"
#include "service/protocol.hpp"
#include "service/worker.hpp"

namespace vpdift::service {

namespace {

using campaign::JsonValue;

// Self-pipe signal plumbing: handlers only set a flag and poke the pipe so
// the poll() loop wakes up — everything else happens on the loop thread.
volatile sig_atomic_t g_sigchld = 0;
volatile sig_atomic_t g_sigterm = 0;
int g_sigpipe_wr = -1;

void on_signal(int sig) {
  if (sig == SIGCHLD)
    g_sigchld = 1;
  else
    g_sigterm = 1;
  if (g_sigpipe_wr >= 0) {
    const char c = 1;
    [[maybe_unused]] ssize_t n = ::write(g_sigpipe_wr, &c, 1);
  }
}

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

/// Writes as much of `q` as the socket accepts right now; the residue stays
/// queued for the next POLLOUT. False only on a fatal error (the peer is
/// gone), never on EAGAIN — the parent must never block in write(): a
/// worker mid-way through a large reply, or a client that stopped reading,
/// would deadlock the whole single-threaded loop.
bool flush_queue(int fd, std::string& q) {
  std::size_t off = 0;
  while (off < q.size()) {
    const ssize_t n = ::write(fd, q.data() + off, q.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const bool fatal = errno != EAGAIN && errno != EWOULDBLOCK;
      q.erase(0, off);
      return !fatal;
    }
    off += static_cast<std::size_t>(n);
  }
  q.erase(0, off);
  return true;
}

/// The error event of client request or submission `id`; `extra` carries
/// further fields (",\"k\":v") after the message.
std::string error_event(std::uint64_t id, const std::string& error,
                        const std::string& extra = "") {
  return "{\"event\":\"error\",\"id\":" + std::to_string(id) +
         ",\"error\":" + campaign::json_quote(error) + extra + "}";
}

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;  ///< parent end of the socketpair, O_NONBLOCK
  LineBuffer buf;
  std::string out;  ///< queued outbound bytes, drained on POLLOUT
  /// The op sent and awaiting its reply; 0 = idle (op ids start at 1). One
  /// at a time: workers execute serially anyway, and a single in-flight op
  /// keeps job-deadline clocks honest (a buffered second job's budget must
  /// not tick while the first still runs) and bounds what a death can lose.
  std::uint64_t inflight = 0;
  /// Admission queue: op ids accepted but not yet sent. Ops move to
  /// `inflight` one at a time (pump_worker), so a job's deadline clock
  /// starts when it actually reaches the worker, and a dying worker loses
  /// only its in-flight op — the backlog requeues onto the respawn.
  std::deque<std::uint64_t> queued;
  /// Timestamp of the last parsed line from this worker (heartbeats count);
  /// the liveness check compares it against the heartbeat timeout.
  std::chrono::steady_clock::time_point last_line;
  /// Kill escalation: 0 = healthy, 1 = SIGTERM sent, 2 = SIGKILL sent.
  int escalation = 0;
  std::chrono::steady_clock::time_point escalated_at;
  /// True when the server itself killed this worker (hang escalation) —
  /// its lost jobs report verdict "hung", not "crash".
  bool killed_for_hang = false;
};

struct ClientConn {
  LineBuffer buf;
  std::string out;  ///< queued outbound bytes, drained on POLLOUT
};

struct Submission;

/// One request queued on or in flight on some worker.
struct PendingOp {
  std::uint64_t sub = 0;
  enum class Kind { kJob, kGolden, kFiChunk } kind = Kind::kJob;
  std::size_t worker = 0;
  std::size_t job_index = 0;             ///< kJob: results slot
  std::vector<std::size_t> indices;      ///< kFiChunk: fault indices
  std::set<std::size_t> received;        ///< kFiChunk: already streamed
  std::string line;                      ///< wire message, id substituted
  /// The worker acknowledged the op ("start"): a death after this point
  /// loses the op; before it, the op never ran and requeues.
  bool started = false;
  /// Already requeued once after its worker died before starting it; a
  /// second such loss fails it (an op that kills workers as they read it
  /// must not cycle forever).
  bool requeued = false;
  /// kJob with a wall budget: when the server stops waiting for the worker
  /// to enforce the budget itself and escalates (send time + budget +
  /// deadline grace). Set only while the op is in flight.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  double wall_budget_s = 0;
  /// Last instret the worker heartbeated for this op — lets a hung job
  /// report how far it got before the kill.
  std::uint64_t progress_instret = 0;
};

struct Submission {
  std::uint64_t key = 0;        ///< server-internal
  std::uint64_t client_id = 0;  ///< client-chosen, echoed in every event
  int client_fd = -1;           ///< -1 once the client vanished
  bool is_fi = false;

  // fi submissions
  fi::FiSuiteSpec fspec;
  std::size_t shard_workers = 1;
  std::optional<fi::FiSuite> suite;  ///< built once the golden arrives
  std::map<std::string, std::size_t> name_to_index;
  fi::ForkStats fork;

  // spec submissions
  campaign::CampaignSpec cspec;

  std::vector<campaign::JobResult> results;
  std::size_t outstanding_ops = 0;
  CacheStats service;  ///< summed worker deltas for this submission
  std::chrono::steady_clock::time_point t0;
  /// A drain cut this submission short: queued-but-unsent jobs were skipped
  /// and the report carries "interrupted": true.
  bool interrupted = false;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts) : opts_(opts) {}
  int run();

 private:
  // -- lifecycle --
  bool setup();
  void teardown();
  void spawn_worker(std::size_t slot);
  void close_fds_in_child(int keep);

  // -- event handling --
  void handle_signals();
  void handle_timers();
  void accept_client();
  void read_client(int fd);
  void read_worker(std::size_t w);
  void handle_client_line(int fd, const std::string& line);
  void handle_worker_line(std::size_t w, const std::string& line);
  void worker_gone(std::size_t w);
  void drop_client(int fd);
  void escalate_worker(std::size_t w, const char* reason);
  std::optional<std::chrono::steady_clock::time_point> next_deadline() const;

  // -- submissions --
  void submit_ref(int fd, std::uint64_t id, const std::string& ref,
                  std::uint64_t seed, std::size_t want_workers);
  void submit_spec(int fd, std::uint64_t id, const std::string& text,
                   bool analyze);
  /// Registers a submission of `jobs` jobs and tells the client so.
  Submission& admit(int fd, std::uint64_t id, std::size_t jobs);
  void golden_arrived(Submission& sub, const campaign::JobResult& golden);
  /// Retires an op that will never deliver its result and resolves its
  /// unfinished jobs: "crash"/"hung" when lost or undecodable, "skipped"
  /// when a drain sheds it unsent. A golden op instead fails its whole
  /// submission with `error`.
  void op_failed(std::uint64_t op_id, const std::string& error,
                 const char* verdict = "crash");
  void maybe_finish(Submission& sub);
  void fail_submission(Submission& sub, const std::string& error);
  void drop_submission(std::uint64_t key);
  void begin_drain();
  void shed_backlog();
  std::size_t total_load() const;
  bool shed_if_overloaded(int fd, std::uint64_t id, std::size_t new_ops);

  // -- plumbing --
  void queue_op(std::size_t w, PendingOp op, const std::string& line);
  /// Sends each idle worker its next queued op. Sending can fail ops
  /// synchronously (dead worker, fatal send) and so finish and free their
  /// submission: callers must not touch a Submission& after pumping.
  void pump_all();
  void pump_worker(std::size_t w);
  bool send_worker(std::size_t w, const std::string& line);
  void send_client(int fd, const std::string& line);
  void to_client(const Submission& sub, const std::string& line);
  void relay_job(const Submission& sub, const campaign::JobResult& r);
  void note(const char* fmt, ...);
  bool draining_done() const { return draining_ && subs_.empty(); }

  ServerOptions opts_;
  int listen_fd_ = -1;
  int sigpipe_rd_ = -1;
  std::vector<WorkerProc> workers_;
  std::map<int, ClientConn> clients_;
  std::map<std::uint64_t, PendingOp> ops_;
  std::map<std::uint64_t, Submission> subs_;
  std::uint64_t next_op_ = 1;
  std::uint64_t next_sub_ = 1;
  CacheStats totals_;
  bool draining_ = false;
  std::chrono::steady_clock::time_point last_client_hb_;

  /// A client whose outbound queue exceeds this stopped reading long ago;
  /// it gets dropped rather than accumulating reports without bound.
  static constexpr std::size_t kMaxClientQueue = 64u << 20;
};

void Server::note(const char* fmt, ...) {
  if (opts_.quiet) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "vpdift-serve: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

void Server::close_fds_in_child(int keep) {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (sigpipe_rd_ >= 0) ::close(sigpipe_rd_);
  if (g_sigpipe_wr >= 0) ::close(g_sigpipe_wr);
  for (const WorkerProc& w : workers_)
    if (w.fd >= 0 && w.fd != keep) ::close(w.fd);
  for (const auto& [fd, c] : clients_) ::close(fd);
}

void Server::spawn_worker(std::size_t slot) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // Child: drop every parent-side fd, restore default signal dispositions
    // (the worker should die on SIGINT like any batch process; the parent
    // handles campaign-level grace), run the loop.
    ::close(sv[0]);
    close_fds_in_child(sv[1]);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGCHLD, SIG_DFL);
    WorkerConfig wcfg;
    wcfg.heartbeat_ms = opts_.heartbeat_ms;
    ::_exit(worker_main(sv[1], wcfg));
  }
  ::close(sv[1]);
  set_nonblocking(sv[0]);
  workers_[slot].pid = pid;
  workers_[slot].fd = sv[0];
  workers_[slot].buf = LineBuffer();
  workers_[slot].out.clear();  // queued lines belonged to the dead worker
  workers_[slot].inflight = 0;
  workers_[slot].queued.clear();
  workers_[slot].last_line = std::chrono::steady_clock::now();
  workers_[slot].escalation = 0;
  workers_[slot].killed_for_hang = false;
}

bool Server::setup() {
  ::signal(SIGPIPE, SIG_IGN);

  int sp[2];
  if (::pipe(sp) != 0) {
    std::fprintf(stderr, "vpdift-serve: pipe failed\n");
    return false;
  }
  // Both ends nonblocking: the drain loop must stop at an empty pipe (a
  // blocking read here would freeze the daemon until the NEXT signal), and
  // the handler's write must never block on a full pipe.
  set_nonblocking(sp[0]);
  set_nonblocking(sp[1]);
  sigpipe_rd_ = sp[0];
  g_sigpipe_wr = sp[1];

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGCHLD, &sa, nullptr);
  sa.sa_flags = 0;  // interrupt poll() so the drain check runs promptly
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "vpdift-serve: socket failed\n");
    return false;
  }
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "vpdift-serve: socket path too long: %s\n",
                 opts_.socket_path.c_str());
    return false;
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    std::fprintf(stderr, "vpdift-serve: cannot listen on %s: %s\n",
                 opts_.socket_path.c_str(), std::strerror(errno));
    return false;
  }

  workers_.resize(std::max<std::size_t>(1, opts_.workers));
  for (std::size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  note("listening on %s, %zu workers", opts_.socket_path.c_str(),
       workers_.size());
  return true;
}

void Server::teardown() {
  for (WorkerProc& w : workers_) {
    if (w.fd >= 0) {
      w.out += "{\"op\":\"quit\"}\n";
      flush_queue(w.fd, w.out);  // best effort; close() is EOF = quit too
      ::close(w.fd);
      w.fd = -1;
    }
  }
  // Bounded reap: workers normally exit on quit/EOF, but one that is
  // stopped or wedged would block a plain waitpid forever — after the grace
  // it is SIGKILLed, so shutdown always completes and leaves no zombies.
  const auto reap_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max<std::uint64_t>(opts_.kill_grace_ms, 100));
  for (WorkerProc& w : workers_) {
    while (w.pid > 0) {
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == w.pid || (got < 0 && errno != EINTR)) {
        w.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= reap_deadline) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
        break;
      }
      struct timespec ts {0, 5 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
    }
  }
  for (auto& [fd, c] : clients_) ::close(fd);
  clients_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(opts_.socket_path.c_str());
  if (sigpipe_rd_ >= 0) ::close(sigpipe_rd_);
  if (g_sigpipe_wr >= 0) {
    ::close(g_sigpipe_wr);
    g_sigpipe_wr = -1;
  }
}

int Server::run() {
  if (!setup()) return 2;
  while (!draining_done()) {
    std::vector<struct pollfd> pfds;
    std::vector<int> what;  // -1 = listen, -2 = sigpipe, >=0 worker, else client
    pfds.push_back({listen_fd_, POLLIN, 0});
    what.push_back(-1);
    pfds.push_back({sigpipe_rd_, POLLIN, 0});
    what.push_back(-2);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].fd < 0) continue;
      const short ev =
          static_cast<short>(POLLIN | (workers_[w].out.empty() ? 0 : POLLOUT));
      pfds.push_back({workers_[w].fd, ev, 0});
      what.push_back(static_cast<int>(w));
    }
    for (const auto& [fd, c] : clients_) {
      const short ev =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds.push_back({fd, ev, 0});
      what.push_back(-3 - fd);  // encode client fd
    }

    // Timer wheel: sleep until the nearest liveness/deadline/heartbeat
    // event instead of forever (-1 only when nothing is armed).
    int timeout = -1;
    if (const auto next = next_deadline()) {
      const auto d = std::chrono::duration_cast<std::chrono::milliseconds>(
                         *next - std::chrono::steady_clock::now())
                         .count();
      timeout = static_cast<int>(
          std::min<long long>(std::max<long long>(d, 0) + 1, 60000));
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout);
    if (rc < 0) {
      if (errno == EINTR) {
        handle_signals();
        handle_timers();
        continue;
      }
      break;
    }
    handle_signals();
    handle_timers();
    for (std::size_t i = 0; i < pfds.size() && !draining_done(); ++i) {
      const short re = pfds[i].revents;
      if (!re) continue;
      const int tag = what[i];
      if (tag == -1) {
        if (re & POLLIN) accept_client();
      } else if (tag == -2) {
        char buf[64];
        while (::read(sigpipe_rd_, buf, sizeof buf) > 0) {
        }
        // flags already handled above
      } else if (tag >= 0) {
        const auto w = static_cast<std::size_t>(tag);
        // handle_signals() (or an earlier entry this pass) may have reaped
        // and respawned this worker; its old fd's revents are stale — never
        // apply them to the fresh socket. An fd-number reuse slips past the
        // compare, but the fds are nonblocking so a stale POLLIN/POLLHUP
        // just reads EAGAIN instead of wedging the loop.
        if (workers_[w].fd != pfds[i].fd) continue;
        if ((re & POLLOUT) &&
            !flush_queue(workers_[w].fd, workers_[w].out)) {
          worker_gone(w);
          continue;
        }
        if (re & (POLLIN | POLLHUP | POLLERR)) read_worker(w);
      } else {
        const int fd = -3 - tag;
        auto it = clients_.find(fd);
        if (it == clients_.end()) continue;  // dropped earlier this pass
        if ((re & POLLOUT) && !flush_queue(fd, it->second.out)) {
          drop_client(fd);
          continue;
        }
        if (re & (POLLIN | POLLHUP | POLLERR)) read_client(fd);
      }
    }
  }
  note("shutting down");
  teardown();
  return 0;
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  note("drain requested: finishing %zu in-flight submission(s)",
       subs_.size());
  shed_backlog();
}

void Server::shed_backlog() {
  // Resolve every accepted-but-unsent op without running it: spec jobs and
  // fi faults become verdict "skipped" and their submissions finish as
  // partial reports marked "interrupted". In-flight ops keep running. Only
  // a queued golden reports the error (skipped jobs carry none): with no
  // golden there is no fault schedule, so its submission fails.
  for (WorkerProc& wp : workers_) {
    std::deque<std::uint64_t> backlog;
    backlog.swap(wp.queued);
    for (const std::uint64_t op_id : backlog)
      op_failed(op_id, "server draining before the golden run started",
                "skipped");
  }
}

void Server::handle_signals() {
  if (g_sigterm) {
    g_sigterm = 0;
    begin_drain();
  }
  if (g_sigchld) {
    g_sigchld = 0;
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (workers_[w].pid == pid) {
          workers_[w].pid = -1;
          worker_gone(w);
          break;
        }
      }
    }
  }
}

void Server::escalate_worker(std::size_t w, const char* reason) {
  WorkerProc& wp = workers_[w];
  if (wp.pid <= 0 || wp.escalation > 0) return;
  note("worker %zu: %s; sending SIGTERM", w, reason);
  wp.killed_for_hang = true;
  wp.escalation = 1;
  wp.escalated_at = std::chrono::steady_clock::now();
  ::kill(wp.pid, SIGTERM);
}

std::optional<std::chrono::steady_clock::time_point> Server::next_deadline()
    const {
  std::optional<std::chrono::steady_clock::time_point> next;
  const auto consider = [&](std::chrono::steady_clock::time_point t) {
    if (!next || t < *next) next = t;
  };
  const bool hb_on = opts_.heartbeat_ms > 0 && opts_.heartbeat_timeout_ms > 0;
  for (const WorkerProc& wp : workers_) {
    if (wp.pid <= 0) continue;
    if (wp.escalation == 1)
      consider(wp.escalated_at +
               std::chrono::milliseconds(opts_.kill_grace_ms));
    else if (wp.escalation == 0 && hb_on && wp.inflight)
      consider(wp.last_line +
               std::chrono::milliseconds(opts_.heartbeat_timeout_ms));
  }
  for (const auto& [id, op] : ops_)
    if (op.deadline) consider(*op.deadline);
  if (opts_.heartbeat_ms > 0) {
    for (const auto& [key, sub] : subs_) {
      if (sub.client_fd < 0) continue;
      consider(last_client_hb_ + std::chrono::milliseconds(opts_.heartbeat_ms));
      break;
    }
  }
  return next;
}

void Server::handle_timers() {
  const auto now = std::chrono::steady_clock::now();
  const bool hb_on = opts_.heartbeat_ms > 0 && opts_.heartbeat_timeout_ms > 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerProc& wp = workers_[w];
    if (wp.pid <= 0) continue;
    if (wp.escalation == 1) {
      if (now - wp.escalated_at >=
          std::chrono::milliseconds(opts_.kill_grace_ms)) {
        // SIGTERM pends forever on a stopped process; SIGKILL does not.
        note("worker %zu ignored SIGTERM; sending SIGKILL", w);
        ::kill(wp.pid, SIGKILL);
        wp.escalation = 2;
        wp.escalated_at = now;
      }
      continue;
    }
    if (wp.escalation >= 2) continue;  // death arrives via SIGCHLD
    if (hb_on && wp.inflight &&
        now - wp.last_line >=
            std::chrono::milliseconds(opts_.heartbeat_timeout_ms)) {
      ++totals_.heartbeat_misses;
      escalate_worker(w, "busy but silent past the heartbeat timeout");
      continue;
    }
    const auto it = ops_.find(wp.inflight);
    if (it != ops_.end() && it->second.deadline && now >= *it->second.deadline)
      escalate_worker(w, "job ran past its wall budget plus grace");
  }
  // Keep clients with active submissions assured the server is alive even
  // when no job has finished in a while (their idle timers reset on any
  // line, heartbeats included).
  if (opts_.heartbeat_ms > 0 &&
      now - last_client_hb_ >= std::chrono::milliseconds(opts_.heartbeat_ms)) {
    last_client_hb_ = now;
    for (auto& [key, sub] : subs_) {
      if (sub.client_fd < 0) continue;
      send_client(sub.client_fd,
                  "{\"event\":\"hb\",\"id\":" + std::to_string(sub.client_id) +
                      "}");
    }
  }
}

std::size_t Server::total_load() const {
  std::size_t n = 0;
  for (const WorkerProc& wp : workers_)
    n += (wp.inflight ? 1 : 0) + wp.queued.size();
  return n;
}

bool Server::shed_if_overloaded(int fd, std::uint64_t id,
                                std::size_t new_ops) {
  if (opts_.max_queued == 0) return false;
  const std::size_t cap = opts_.max_queued * workers_.size();
  const std::size_t load = total_load();
  if (load + new_ops <= cap) return false;
  ++totals_.shed_submissions;
  const std::uint64_t retry_ms =
      200 + 150 * (load / std::max<std::size_t>(1, workers_.size()));
  send_client(fd, error_event(id, "overloaded", ",\"retry_after_ms\":" +
                                                   std::to_string(retry_ms)));
  note("shed submission %llu: %zu queued + %zu new > cap %zu",
       static_cast<unsigned long long>(id), load, new_ops, cap);
  return true;
}

void Server::accept_client() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  set_nonblocking(fd);
  clients_[fd];
}

void Server::drop_client(int fd) {
  // Orphan this client's submissions: they finish, results are dropped.
  for (auto& [key, sub] : subs_)
    if (sub.client_fd == fd) sub.client_fd = -1;
  ::close(fd);
  clients_.erase(fd);
}

void Server::read_client(int fd) {
  char buf[8192];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;  // stale or spurious wakeup on the nonblocking fd
  if (n <= 0) {
    drop_client(fd);
    return;
  }
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  it->second.buf.feed(buf, static_cast<std::size_t>(n));
  std::string line;
  while (clients_.count(fd) && it->second.buf.pop(&line))
    handle_client_line(fd, line);
}

void Server::read_worker(std::size_t w) {
  char buf[65536];
  const ssize_t n = ::read(workers_[w].fd, buf, sizeof buf);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;  // stale wakeup (e.g. a respawn reused the old fd number)
  if (n <= 0) {
    worker_gone(w);
    return;
  }
  workers_[w].buf.feed(buf, static_cast<std::size_t>(n));
  std::string line;
  while (workers_[w].fd >= 0 && workers_[w].buf.pop(&line))
    handle_worker_line(w, line);
  // A retired op freed the send slot; move the backlog along.
  if (workers_[w].fd >= 0) pump_worker(w);
}

void Server::handle_client_line(int fd, const std::string& line) {
  JsonValue msg;
  try {
    msg = campaign::json_parse(line);
  } catch (const std::exception& e) {
    send_client(fd, error_event(0, e.what()));
    return;
  }
  const std::string op = msg.str_or("op");
  const std::uint64_t id = msg.u64_or("id", 0);
  if (op == "ping") {
    send_client(fd, "{\"event\":\"pong\"}");
    return;
  }
  if (op == "stats") {
    CacheStats live = totals_;
    send_client(fd,
                "{\"event\":\"stats\",\"service\":" + live.to_json() + "}");
    return;
  }
  if (op == "shutdown") {
    send_client(fd, "{\"event\":\"bye\"}");
    begin_drain();
    return;
  }
  if (op != "submit") {
    send_client(fd, error_event(id, "unknown op"));
    return;
  }
  if (draining_) {
    send_client(fd, error_event(id, "server is draining"));
    return;
  }
  if (const JsonValue* ref = msg.find("ref");
      ref && ref->kind == JsonValue::Kind::kString) {
    submit_ref(fd, id, ref->string, msg.u64_or("seed", 1),
               static_cast<std::size_t>(
                   msg.u64_or("workers", workers_.size())));
    return;
  }
  if (const JsonValue* spec = msg.find("spec");
      spec && spec->kind == JsonValue::Kind::kString) {
    submit_spec(fd, id, spec->string, msg.bool_or("analyze", false));
    return;
  }
  send_client(fd, error_event(id, "submit needs a ref or a spec"));
}

void Server::queue_op(std::size_t w, PendingOp op, const std::string& line) {
  const std::uint64_t op_id = next_op_++;
  op.worker = w;
  // The line carries a %ID% placeholder so callers can build the message
  // before the id exists.
  op.line = line;
  op.line.replace(op.line.find("%ID%"), 4, std::to_string(op_id));
  ops_[op_id] = std::move(op);
  workers_[w].queued.push_back(op_id);
}

void Server::pump_all() {
  for (std::size_t w = 0; w < workers_.size(); ++w) pump_worker(w);
}

void Server::pump_worker(std::size_t w) {
  WorkerProc& wp = workers_[w];
  if (wp.fd < 0) {
    // Dead and not respawned (drain, or a failed respawn): nothing will
    // ever drain this queue, so fail it now.
    std::deque<std::uint64_t> dead;
    dead.swap(wp.queued);
    for (const std::uint64_t op_id : dead)
      op_failed(op_id, "worker unavailable");
    return;
  }
  while (wp.fd >= 0 && !wp.queued.empty() && !wp.inflight) {
    const std::uint64_t op_id = wp.queued.front();
    wp.queued.pop_front();
    const auto it = ops_.find(op_id);
    if (it == ops_.end()) continue;  // dropped while queued
    PendingOp& op = it->second;
    if (op.kind == PendingOp::Kind::kJob && op.wall_budget_s > 0) {
      op.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(op.wall_budget_s)) +
          std::chrono::milliseconds(opts_.deadline_grace_ms);
    }
    wp.inflight = op_id;
    // On failure send_worker runs worker_gone, which requeues this
    // unstarted op onto the respawn and pumps that — so just stop pumping
    // here.
    if (!send_worker(w, op.line)) return;
  }
}

bool Server::send_worker(std::size_t w, const std::string& line) {
  WorkerProc& wp = workers_[w];
  if (wp.fd < 0) return false;
  wp.out += line;
  wp.out += '\n';
  // Opportunistic flush; whatever the pipe doesn't take now drains on
  // POLLOUT. Crucially this never blocks, even when the worker is itself
  // blocked writing a large reply the parent hasn't read yet.
  if (!flush_queue(wp.fd, wp.out)) {
    worker_gone(w);
    return false;
  }
  return true;
}

void Server::send_client(int fd, const std::string& line) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;  // client already vanished
  std::string& q = it->second.out;
  q += line;
  q += '\n';
  if (!flush_queue(fd, q) || q.size() > kMaxClientQueue) drop_client(fd);
}

void Server::submit_ref(int fd, std::uint64_t id, const std::string& ref,
                        std::uint64_t seed, std::size_t want_workers) {
  fi::FiSuiteSpec fspec;
  if (!fi::parse_fi_ref(ref, &fspec)) {
    send_client(fd, error_event(id, "bad ref (want fi:<benchmark>:<n>)"));
    return;
  }
  fspec.seed = seed;
  // Admission estimate: the golden op now plus one chunk per shard later.
  if (shed_if_overloaded(
          fd, id,
          1 + std::min({want_workers, workers_.size(), fspec.n_faults})))
    return;
  Submission& sub = admit(fd, id, fspec.n_faults);
  sub.is_fi = true;
  sub.fspec = fspec;
  sub.shard_workers =
      std::max<std::size_t>(1, std::min({want_workers, workers_.size(),
                                         fspec.n_faults}));
  // The golden runs on the suite's owner worker — the one whose warm caches
  // accumulate this suite's snapshots — picked by content hash so repeat
  // submissions land on the same process.
  const std::size_t owner = static_cast<std::size_t>(
      fnv1a64_u64(seed, fnv1a64(fspec.benchmark)) % workers_.size());
  PendingOp op;
  op.sub = sub.key;
  op.kind = PendingOp::Kind::kGolden;
  sub.outstanding_ops = 1;
  queue_op(owner, std::move(op),
           "{\"op\":\"fi-golden\",\"id\":%ID%,\"benchmark\":" +
               campaign::json_quote(fspec.benchmark) +
               ",\"seed\":" + std::to_string(fspec.seed) +
               ",\"n\":" + std::to_string(fspec.n_faults) + "}");
  note("sub %llu: %s seed %llu -> golden on worker %zu",
       static_cast<unsigned long long>(sub.key), ref.c_str(),
       static_cast<unsigned long long>(seed), owner);
  pump_all();
}

void Server::submit_spec(int fd, std::uint64_t id, const std::string& text,
                         bool analyze) {
  campaign::CampaignSpec cspec;
  try {
    cspec = campaign::CampaignSpec::parse(text);
  } catch (const std::exception& e) {
    send_client(fd, error_event(id, e.what()));
    return;
  }
  if (analyze)
    for (campaign::JobSpec& j : cspec.jobs) j.analyze = true;
  // Server-side resource caps clamp every client budget BEFORE the spec is
  // serialized for the workers, so the wire jobs, the affinity hashes and
  // the enforced limits all agree. A job with no budget of its own gets the
  // cap outright — no submission may hold a worker forever.
  for (campaign::JobSpec& j : cspec.jobs) {
    if (opts_.max_job_wall_s > 0 &&
        (j.wall_budget_s == 0 || j.wall_budget_s > opts_.max_job_wall_s))
      j.wall_budget_s = opts_.max_job_wall_s;
    if (opts_.max_job_mem_mb > 0 &&
        (j.mem_budget_mb == 0 || j.mem_budget_mb > opts_.max_job_mem_mb))
      j.mem_budget_mb = opts_.max_job_mem_mb;
  }
  if (shed_if_overloaded(fd, id, cspec.jobs.size())) return;
  Submission& sub = admit(fd, id, cspec.jobs.size());
  sub.cspec = std::move(cspec);
  sub.results.resize(sub.cspec.jobs.size());
  sub.shard_workers = workers_.size();
  sub.outstanding_ops = sub.cspec.jobs.size();
  if (sub.cspec.jobs.empty()) {
    maybe_finish(sub);
    return;
  }
  for (std::size_t i = 0; i < sub.cspec.jobs.size(); ++i) {
    const std::string spec_json =
        campaign::job_spec_to_json(sub.cspec.jobs[i]);
    PendingOp op;
    op.sub = sub.key;
    op.kind = PendingOp::Kind::kJob;
    op.job_index = i;
    op.wall_budget_s = sub.cspec.jobs[i].wall_budget_s;
    // Content-hash affinity: an identical job resubmitted later lands on
    // the same worker and hits that worker's warm caches.
    queue_op(static_cast<std::size_t>(fnv1a64(spec_json) % workers_.size()),
             std::move(op),
             "{\"op\":\"job\",\"id\":%ID%,\"spec\":" + spec_json + "}");
  }
  pump_all();
}

Submission& Server::admit(int fd, std::uint64_t id, std::size_t jobs) {
  const std::uint64_t key = next_sub_++;
  Submission& sub = subs_[key];
  sub.key = key;
  sub.client_id = id;
  sub.client_fd = fd;  // drop_client orphans it if the accept write fails
  sub.t0 = std::chrono::steady_clock::now();
  send_client(fd, "{\"event\":\"accepted\",\"id\":" + std::to_string(id) +
                      ",\"jobs\":" + std::to_string(jobs) + "}");
  return sub;
}

void Server::golden_arrived(Submission& sub,
                            const campaign::JobResult& golden) {
  try {
    sub.suite.emplace(fi::suite_from_golden(sub.fspec, golden));
  } catch (const std::exception& e) {
    fail_submission(sub, e.what());
    return;
  }
  const fi::FiSuite& suite = *sub.suite;
  const std::size_t n = suite.faults.size();
  sub.results.assign(n, campaign::JobResult{});
  for (std::size_t i = 0; i < n; ++i)
    sub.name_to_index[suite.jobs.jobs[i].name] = i;

  const std::string golden_json = job_result_to_json(suite.golden);
  const std::size_t shards = std::max<std::size_t>(
      1, std::min(sub.shard_workers, n));
  sub.outstanding_ops = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    PendingOp op;
    op.sub = sub.key;
    op.kind = PendingOp::Kind::kFiChunk;
    std::string idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (i * shards / n != s) continue;
      op.indices.push_back(i);
      idx += (idx.empty() ? "" : ",") + std::to_string(i);
    }
    queue_op(s % workers_.size(), std::move(op),
             "{\"op\":\"fi\",\"id\":%ID%,\"benchmark\":" +
                 campaign::json_quote(sub.fspec.benchmark) +
                 ",\"seed\":" + std::to_string(sub.fspec.seed) +
                 ",\"n\":" + std::to_string(sub.fspec.n_faults) +
                 ",\"golden\":" + golden_json + ",\"indices\":[" + idx +
                 "]}");
  }
  note("sub %llu: golden done, %zu faults across %zu workers",
       static_cast<unsigned long long>(sub.key), n, shards);
  pump_all();
}

void Server::handle_worker_line(std::size_t w, const std::string& line) {
  // Any parsed line proves the worker alive — results and heartbeats alike
  // reset its liveness clock.
  workers_[w].last_line = std::chrono::steady_clock::now();
  JsonValue msg;
  try {
    msg = campaign::json_parse(line);
  } catch (const std::exception&) {
    return;  // a garbled worker line; the op times out via worker death
  }
  const std::string ev = msg.str_or("ev");
  const std::uint64_t op_id = msg.u64_or("id", 0);
  auto oit = ops_.find(op_id);
  if (ev == "hb") {
    // Heartbeat: id 0 = idle (clock reset above is all it carries); a
    // nonzero id names the executing op, whose live progress feeds the
    // "hung at N instructions" diagnostics.
    if (oit != ops_.end())
      oit->second.progress_instret = msg.u64_or("instret", 0);
    return;
  }
  if (oit == ops_.end()) return;  // late event for a dropped submission
  PendingOp& op = oit->second;
  if (ev == "start") {
    op.started = true;
    return;
  }
  auto sit = subs_.find(op.sub);

  if (ev == "job") {
    // Streaming fi fault result.
    if (sit == subs_.end()) return;
    Submission& sub = sit->second;
    const JsonValue* rv = msg.find("result");
    if (!rv) return;
    campaign::JobResult r;
    try {
      r = job_result_from_json(*rv);
    } catch (const std::exception&) {
      return;
    }
    const auto ni = sub.name_to_index.find(r.name);
    if (ni == sub.name_to_index.end()) return;
    op.received.insert(ni->second);
    relay_job(sub, r);
    sub.results[ni->second] = std::move(r);
    return;
  }

  if (ev == "error") {
    op_failed(op_id, msg.str_or("error", "worker error"));
    return;
  }
  if (ev != "result") return;

  // Final event: the op is complete — free the worker's slot. (The next
  // queued op is pumped by read_worker once this batch of lines is
  // drained; pumping here would invalidate the references below.)
  workers_[op.worker].inflight = 0;
  if (const JsonValue* st = msg.find("stats");
      st && st->kind == JsonValue::Kind::kObject) {
    const CacheStats delta = cache_stats_from_json(*st);
    totals_ += delta;
    if (sit != subs_.end()) sit->second.service += delta;
  }
  if (sit == subs_.end()) {
    ops_.erase(oit);
    return;
  }
  Submission& sub = sit->second;

  if (op.kind == PendingOp::Kind::kFiChunk) {
    if (const JsonValue* fk = msg.find("fork");
        fk && fk->kind == JsonValue::Kind::kObject) {
      const fi::ForkStats f = fork_stats_from_json(*fk);
      sub.fork.golden_instret += f.golden_instret;
      sub.fork.tail_instret += f.tail_instret;
      sub.fork.replay_instret += f.replay_instret;
      sub.fork.snapshots += f.snapshots;
    }
    if (const JsonValue* sk = msg.find("skipped");
        sk && sk->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& e : sk->array) {
        const auto i = static_cast<std::size_t>(e.number);
        if (i < sub.results.size() &&
            sub.results[i].verdict.empty()) {
          sub.results[i].name = sub.suite->jobs.jobs[i].name;
          sub.results[i].verdict = "skipped";
        }
      }
    }
    ops_.erase(oit);
    --sub.outstanding_ops;
    maybe_finish(sub);
    return;
  }

  // kGolden and kJob carry one result; an undecodable one fails the op.
  const bool golden = op.kind == PendingOp::Kind::kGolden;
  campaign::JobResult r;
  try {
    const JsonValue* rv = msg.find("result");
    if (!rv)
      throw std::runtime_error(golden ? "golden result missing"
                                      : "result missing");
    r = job_result_from_json(*rv);
  } catch (const std::exception& e) {
    op_failed(op_id, e.what());
    return;
  }
  if (golden && r.verdict == "crash") {
    op_failed(op_id, "fi golden run crashed: " + r.error);
    return;
  }
  const std::size_t slot = op.job_index;
  ops_.erase(oit);
  if (golden) {
    sub.outstanding_ops = 0;
    golden_arrived(sub, r);
    return;
  }
  relay_job(sub, r);
  sub.results[slot] = std::move(r);
  --sub.outstanding_ops;
  maybe_finish(sub);
}

void Server::op_failed(std::uint64_t op_id, const std::string& error,
                       const char* verdict) {
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) return;
  const PendingOp op = std::move(oit->second);
  ops_.erase(oit);
  if (workers_[op.worker].inflight == op_id) workers_[op.worker].inflight = 0;
  auto sit = subs_.find(op.sub);
  if (sit == subs_.end()) return;
  Submission& sub = sit->second;
  const bool skipped = std::strcmp(verdict, "skipped") == 0;
  const bool hung = std::strcmp(verdict, "hung") == 0;
  if (skipped) sub.interrupted = true;
  if (op.kind == PendingOp::Kind::kGolden) {
    if (hung) ++totals_.hung_jobs;
    fail_submission(sub, error);
    return;
  }
  // Every job the op will never deliver gets a result: a kJob its one
  // slot, a kFiChunk each fault it had not streamed yet — so the
  // submission still completes with a full matrix.
  std::vector<std::size_t> slots;
  if (op.kind == PendingOp::Kind::kJob) slots.push_back(op.job_index);
  for (const std::size_t i : op.indices)
    if (!op.received.count(i)) slots.push_back(i);
  for (const std::size_t i : slots) {
    campaign::JobResult r;
    r.name = sub.is_fi ? sub.suite->jobs.jobs[i].name : sub.cspec.jobs[i].name;
    r.verdict = verdict;
    // A skipped job never ran: name and verdict only, not relayed — the
    // report's "interrupted" flag already says so. A lost one ran once.
    if (!skipped) {
      r.error = error;
      r.attempts = 1;
      if (hung) {
        // How far a job got before the kill, from the worker's last
        // heartbeat — the "same instret twice = deterministic hang" signal
        // the retry policy keys on. A chunk's progress belongs to no
        // single fault.
        if (op.kind == PendingOp::Kind::kJob)
          r.run.instret = op.progress_instret;
        ++totals_.hung_jobs;
        ++sub.service.hung_jobs;
      }
      r.history = {{r.verdict, r.error, r.run.instret}};
      relay_job(sub, r);
    }
    sub.results[i] = std::move(r);
  }
  --sub.outstanding_ops;
  maybe_finish(sub);
}

void Server::worker_gone(std::size_t w) {
  WorkerProc& wp = workers_[w];
  const bool hang = wp.killed_for_hang;
  if (wp.fd >= 0) {
    ::close(wp.fd);
    wp.fd = -1;
  }
  // Every path here is an involuntary death (clean quits only happen in
  // teardown, which never comes through worker_gone).
  ++totals_.killed_workers;
  // Unsent backlog survives the death: it requeues onto the respawn. Swap
  // it out first so the op_failed cascade below can't touch it.
  std::deque<std::uint64_t> backlog;
  backlog.swap(wp.queued);
  // So does an in-flight op the worker never started: its line died unread
  // in the socket (e.g. sent to an idle worker that was being killed). An
  // escalation kill keeps its "hung" verdict either way.
  const std::uint64_t lost = std::exchange(wp.inflight, 0);
  wp.escalation = 0;
  wp.killed_for_hang = false;
  if (const auto it = ops_.find(lost); it != ops_.end()) {
    PendingOp& op = it->second;
    if (!hang && !op.started && !op.requeued) {
      op.deadline.reset();
      op.requeued = true;
      backlog.push_front(lost);
    } else {
      note("worker %zu died with an op in flight%s", w,
           hang ? " (killed by escalation)" : "");
      op_failed(lost,
                hang ? "killed: job exceeded its deadline or the worker went "
                       "silent"
                     : "worker crashed",
                hang ? "hung" : "crash");
    }
  }
  if (wp.pid > 0) {
    int status = 0;
    ::waitpid(wp.pid, &status, WNOHANG);
    wp.pid = -1;
  }
  if (!draining_) {
    try {
      spawn_worker(w);
      note("worker %zu respawned", w);
    } catch (const std::exception& e) {
      note("worker %zu respawn failed: %s", w, e.what());
    }
  }
  if (wp.fd >= 0) {
    wp.queued = std::move(backlog);
    pump_worker(w);
  } else {
    // No respawn (draining, or the fork failed): the backlog has no home.
    for (std::uint64_t op_id : backlog)
      op_failed(op_id, "worker unavailable");
  }
}

void Server::to_client(const Submission& sub, const std::string& line) {
  if (sub.client_fd < 0) return;
  send_client(sub.client_fd, line);
}

void Server::relay_job(const Submission& sub, const campaign::JobResult& r) {
  to_client(sub,
            "{\"event\":\"job\",\"id\":" + std::to_string(sub.client_id) +
                ",\"name\":" + campaign::json_quote(r.name) +
                ",\"verdict\":" + campaign::json_quote(r.verdict) +
                ",\"ok\":" + (r.ok ? "true" : "false") + "}");
}

void Server::maybe_finish(Submission& sub) {
  if (sub.outstanding_ops != 0) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sub.t0)
          .count();
  std::string report;
  bool ok = false;
  try {
    if (sub.is_fi) {
      std::vector<fi::Verdict> verdicts;
      const fi::CoverageMatrix m =
          fi::build_matrix(*sub.suite, sub.results, &verdicts);
      ok = m.verdict_total(fi::Verdict::kCrash) == 0 && !sub.interrupted;
      const std::string extra =
          std::string(sub.interrupted ? "\"interrupted\": true,\n  " : "") +
          "\"service\": " + sub.service.to_json() +
          ",\n  \"fork\": " + fork_stats_to_json(sub.fork);
      report = fi::matrix_json(*sub.suite, sub.results, verdicts,
                               sub.shard_workers, wall, extra);
    } else {
      campaign::Aggregator agg;
      agg.set_interrupted(sub.interrupted);
      for (const campaign::JobResult& r : sub.results) {
        // Drain-skipped jobs never ran; the partial report counts only what
        // did (the "interrupted" flag says the list is incomplete).
        if (sub.interrupted && r.verdict == "skipped") continue;
        agg.add(r);
      }
      ok = agg.all_ok();
      report = agg.to_json(sub.cspec.name, sub.shard_workers, wall,
                           "\"service\": " + sub.service.to_json());
    }
  } catch (const std::exception& e) {
    fail_submission(sub, e.what());
    return;
  }
  to_client(sub,
            "{\"event\":\"done\",\"id\":" + std::to_string(sub.client_id) +
                ",\"ok\":" + (ok ? "true" : "false") +
                ",\"report\":" + campaign::json_quote(report) +
                ",\"service\":" + sub.service.to_json() + "}");
  note("sub %llu: done (%.2fs)", static_cast<unsigned long long>(sub.key),
       wall);
  drop_submission(sub.key);
}

void Server::fail_submission(Submission& sub, const std::string& error) {
  to_client(sub, error_event(sub.client_id, error));
  note("sub %llu: failed: %s", static_cast<unsigned long long>(sub.key),
       error.c_str());
  drop_submission(sub.key);
}

void Server::drop_submission(std::uint64_t key) {
  // Orphan any ops still pointing here (late worker events are ignored via
  // the subs_ lookup), then forget the submission.
  for (auto it = ops_.begin(); it != ops_.end();) {
    if (it->second.sub == key)
      it = ops_.erase(it);
    else
      ++it;
  }
  for (WorkerProc& w : workers_) {
    if (!ops_.count(w.inflight)) w.inflight = 0;
    std::erase_if(w.queued, [&](std::uint64_t id) { return !ops_.count(id); });
  }
  subs_.erase(key);
}

}  // namespace

int run_server(const ServerOptions& opts) { return Server(opts).run(); }

}  // namespace vpdift::service
