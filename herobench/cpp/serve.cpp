// `hero_bench serve`: drives real hero_serve processes with an open-loop
// load generator and checks every answer.
//
// Before any timing, an in-process serve::PolicyEngine plays greedy
// paper-scenario episodes on the checkpoint and records each request it
// was asked together with its answer. The generator then only replays those
// recorded requests, so it does no simulation on the hot path, and every
// served answer has a known bitwise-exact expected value.
//
// The plan file (written by run.py) lists the steps, one per line:
//
//   server <name>          spawn a fresh hero_serve; time spawn -> HelloAck
//   spawn <name>           the same for a server that is stopped again at
//                          once, while the current one stays up
//   pin <k>                move the server to the k-th allowed CPU and the
//                          generator to the next one (mod the CPU count)
//   check <n>              closed-loop replay of the first n requests per
//                          connection, compared bitwise with the recording
//   phase <name> <rate> <count> <rung>
//   <conn> <due_us>        ...count arrival lines, sorted by due time
//
// Phases flagged as ladder rungs (rung = 1) stop the ladder on the current
// server once one of them saturates: answers still outstanding 50 ms after
// the last send, or any failure. Higher rungs would only queue deeper.
//
// A phase sends each request at its due time whether or not earlier
// replies have arrived (open loop), times each answer from its due time,
// and records how late each send ran. Servers are stopped with a Shutdown
// frame and reaped before the next step.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "hero/hero_trainer.h"
#include "serve/policy_engine.h"
#include "serve/protocol.h"
#include "serve/request_builder.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"

namespace herobench {

namespace {

using hero::serve::ActRequest;
using hero::serve::ActResponse;

constexpr int kConnections = 3;
constexpr std::size_t kRecordedRequests = 4096;
constexpr double kSaturatedDrainS = 0.05;
constexpr double kSpinUs = 2000.0;

// The recorded greedy stream: request i and the answer in-process
// inference gave it.
struct Recording {
  std::vector<ActRequest> requests;
  std::vector<ActResponse> answers;
  std::vector<std::size_t> episode_starts;  // indices with reset = 1
  hero::serve::Hello hello;
};

Recording record_stream(const std::string& ckpt, std::size_t n, unsigned seed) {
  const auto scenario = hero::sim::cooperative_lane_change();
  hero::core::HeroConfig cfg;
  hero::serve::PolicyEngine engine(scenario, cfg, ckpt);
  hero::sim::LaneWorld world(scenario.config);
  hero::Rng rng(seed);
  Recording rec;
  rec.hello.learners = static_cast<std::uint32_t>(engine.learners());
  rec.hello.hl_dim = static_cast<std::uint32_t>(engine.hl_dim());
  rec.hello.ll_dim = static_cast<std::uint32_t>(engine.ll_dim());
  rec.hello.num_lanes = static_cast<std::uint32_t>(engine.num_lanes());
  rec.hello.explore = 0;
  const std::uint32_t session = engine.open_session(seed, /*explore=*/false);
  std::vector<ActResponse> out;
  std::vector<hero::sim::TwistCmd> cmds(static_cast<std::size_t>(engine.learners()));
  while (rec.requests.size() < n) {
    world.reset(rng);
    bool fresh = true;
    while (!world.done() && rec.requests.size() < n) {
      ActRequest req;
      hero::serve::fill_request_from_world(world, fresh, &req);
      req.request_id = rec.requests.size() + 1;
      if (fresh) rec.episode_starts.push_back(rec.requests.size());
      engine.act_batch({session}, {&req}, &out);
      for (std::size_t k = 0; k < cmds.size(); ++k) {
        cmds[k].linear = out[0].linear[k];
        cmds[k].angular = out[0].angular[k];
      }
      rec.requests.push_back(std::move(req));
      rec.answers.push_back(out[0]);
      world.step(cmds, rng);
      fresh = false;
    }
  }
  return rec;
}

bool same_answer(const ActResponse& got, const ActResponse& want) {
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  return same(got.linear, want.linear) && same(got.angular, want.angular) &&
         got.option == want.option;
}

// ---------------------------------------------------------------------------
// Server process

struct Server {
  pid_t pid = -1;
  std::string socket;
  double setup_s = 0;
  double peak_rss_mb = 0;
  std::string metrics_path;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EINTR || errno == EAGAIN)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      throw std::runtime_error("write to hero_serve failed");
    }
  }
}

// Blocks (with a deadline) for one whole frame on a blocking or
// non-blocking fd.
bool read_frame(int fd, hero::serve::FrameReader& reader, hero::serve::MsgType* type,
                std::vector<std::uint8_t>* payload, double deadline_s) {
  std::uint8_t buf[65536];
  while (!reader.next(type, payload)) {
    if (reader.bad() || now_s() > deadline_s) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got == 0) return false;
    if (got > 0) reader.feed(buf, static_cast<std::size_t>(got));
  }
  return true;
}

// Opens a session on `fd`; false if the server did not acknowledge.
bool hello(int fd, const hero::serve::Hello& h, hero::serve::FrameReader& reader) {
  std::vector<std::uint8_t> bytes;
  hero::serve::encode_hello(h, bytes);
  write_all(fd, bytes);
  hero::serve::MsgType type;
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd, reader, &type, &payload, now_s() + 10.0)) return false;
  hero::serve::HelloAck ack;
  return type == hero::serve::MsgType::kHelloAck &&
         hero::serve::decode_hello_ack(payload.data(), payload.size(), &ack);
}

Server start_server(const std::string& bin, const std::string& ckpt,
                    const std::string& socket, const std::string& log,
                    const std::string& metrics_path,
                    const hero::serve::Hello& h, const std::vector<int>& cpus) {
  Server s;
  s.socket = socket;
  s.metrics_path = metrics_path;
  ::unlink(socket.c_str());
  std::vector<std::string> args = {bin, "--ckpt", ckpt, "--socket", socket};
  if (!metrics_path.empty()) {
    args.push_back("--metrics-out");
    args.push_back(metrics_path);
  }
  const double t0 = now_s();
  s.pid = ::fork();
  if (s.pid < 0) throw std::runtime_error("fork failed");
  if (s.pid == 0) {
    // Child: die with the benchmark, log to a file, exec the real server.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // Free to run on any allowed CPU rather than inherit the generator's
    // pin, where its connect-retry loop would share a CPU with the start-up
    // being timed.
    pin_to_cpus(0, cpus);
    const int lfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (lfd >= 0) {
      ::dup2(lfd, 1);
      ::dup2(lfd, 2);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  // Set-up ends at the first accepted Hello: spawn, checkpoint load, bind.
  while (true) {
    const int fd = connect_unix(socket);
    if (fd >= 0) {
      hero::serve::FrameReader reader;
      const bool ok = hello(fd, h, reader);
      ::close(fd);
      if (ok) break;
    }
    int status = 0;
    if (::waitpid(s.pid, &status, WNOHANG) == s.pid) {
      s.pid = -1;
      throw std::runtime_error("hero_serve exited during start-up (see " + log + ")");
    }
    if (now_s() - t0 > 60.0) throw std::runtime_error("hero_serve start-up timed out");
    ::usleep(200);
  }
  s.setup_s = now_s() - t0;
  return s;
}

void stop_server(Server& s) {
  if (s.pid <= 0) return;
  s.peak_rss_mb = pid_peak_rss_mb(s.pid);
  const int fd = connect_unix(s.socket);
  if (fd >= 0) {
    std::vector<std::uint8_t> bytes;
    hero::serve::encode_shutdown(bytes);
    try {
      write_all(fd, bytes);
    } catch (const std::exception&) {
    }
    ::close(fd);
  }
  const double deadline = now_s() + 10.0;
  int status = 0;
  while (::waitpid(s.pid, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, &status, 0);
      break;
    }
    ::usleep(1000);
  }
  s.pid = -1;
}

// ---------------------------------------------------------------------------
// Load generation

struct Conn {
  int fd = -1;
  hero::serve::FrameReader reader;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::size_t pos = 0;  // next replay index
  // In-flight requests in send order: (request id, replay index, due time).
  struct Flight {
    std::uint64_t id;
    std::size_t index;
    double due_us;
  };
  std::vector<Flight> flights;
  std::size_t flight_head = 0;
};

struct PhaseResult {
  std::string name;
  double rate = 0;
  long sent = 0, answered = 0, failed = 0, mismatches = 0;
  double drain_s = 0;
  std::vector<double> latency_us;  // per answered request, in answer order
  std::vector<double> lag_us;      // per sent request
};

struct Arrival {
  int conn;
  double due_us;
};

double clock_us() { return now_s() * 1e6; }

class LoadGen {
 public:
  LoadGen(Recording& rec, const Server& server) : rec_(rec) {
    for (int c = 0; c < kConnections; ++c) {
      Conn& conn = conns_[c];
      conn.fd = connect_unix(server.socket);
      if (conn.fd < 0) throw std::runtime_error("cannot connect to hero_serve");
      if (!hello(conn.fd, rec.hello, conn.reader)) {
        throw std::runtime_error("hero_serve rejected the session");
      }
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
      // Spread the connections over the recording, each at an episode start.
      const auto& starts = rec.episode_starts;
      conn.pos = starts[static_cast<std::size_t>(c) * starts.size() / kConnections];
    }
  }
  ~LoadGen() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  // Closed loop, one request in flight per connection: the first `n`
  // replayed requests of every connection must come back bitwise equal to
  // the recording.
  PhaseResult check(long n) {
    PhaseResult r;
    r.name = "check";
    for (long i = 0; i < n; ++i) {
      for (int c = 0; c < kConnections; ++c) send(c, clock_us(), &r);
      if (!drain_until_idle(&r, now_s() + 10.0)) return r;
    }
    return r;
  }

  PhaseResult phase(const std::string& name, double rate,
                    const std::vector<Arrival>& arrivals) {
    PhaseResult r;
    r.name = name;
    r.rate = rate;
    r.latency_us.reserve(arrivals.size());
    r.lag_us.reserve(arrivals.size());
    // The schedule starts a little in the future so the first sends are on
    // time.
    const double t0 = clock_us() + 2000.0;
    std::size_t next = 0;
    while (next < arrivals.size()) {
      const double due = t0 + arrivals[next].due_us;
      const double now = clock_us();
      if (due <= now) {
        send(arrivals[next].conn, due, &r);
        ++next;
        continue;
      }
      // Read answers until the next due time. Within kSpinUs of it the
      // generator spins instead of sleeping: a vCPU woken from idle can be
      // milliseconds late, which would show up as lag, not as latency.
      poll_answers(due - now > kSpinUs ? due - now - kSpinUs : 0.0, &r);
    }
    const double sent_done = clock_us();
    drain_until_idle(&r, sent_done / 1e6 + 5.0);
    r.drain_s = (clock_us() - sent_done) / 1e6;
    return r;
  }

 private:
  void send(int c, double due_us, PhaseResult* r) {
    Conn& conn = conns_[c];
    const std::size_t index = conn.pos;
    conn.pos = (conn.pos + 1) % rec_.requests.size();
    ActRequest& req = rec_.requests[index];
    req.request_id = ++next_id_;
    hero::serve::encode_act(req, conn.out);
    conn.flights.push_back({next_id_, index, due_us});
    const double now = clock_us();
    r->lag_us.push_back(now - due_us);
    ++r->sent;
    flush(conn);
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t w = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // EAGAIN: the rest goes out when the socket drains
      }
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  long in_flight() const {
    long n = 0;
    for (const auto& c : conns_) {
      n += static_cast<long>(c.flights.size() - c.flight_head);
    }
    return n;
  }

  // Reads whatever answers arrive within `timeout_us`.
  void poll_answers(double timeout_us, PhaseResult* r) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      short ev = POLLIN;
      if (conns_[c].out_off < conns_[c].out.size()) ev |= POLLOUT;
      fds[c] = {conns_[c].fd, ev, 0};
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_us / 1e6);
    ts.tv_nsec = static_cast<long>((timeout_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
    if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) return;
    for (int c = 0; c < kConnections; ++c) {
      if (fds[c].revents & POLLOUT) flush(conns_[c]);
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) read_answers(c, r);
    }
  }

  bool drain_until_idle(PhaseResult* r, double deadline_s) {
    while (in_flight() > 0) {
      if (now_s() > deadline_s) {
        // Whatever is still missing counts as failed.
        for (auto& c : conns_) {
          r->failed += static_cast<long>(c.flights.size() - c.flight_head);
          c.flights.clear();
          c.flight_head = 0;
        }
        return false;
      }
      poll_answers(10000.0, r);
    }
    return true;
  }

  void read_answers(int c, PhaseResult* r) {
    Conn& conn = conns_[c];
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
      if (got > 0) {
        conn.reader.feed(buf, static_cast<std::size_t>(got));
        if (static_cast<std::size_t>(got) < sizeof(buf)) break;
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    const double now = clock_us();
    hero::serve::MsgType type;
    while (conn.reader.next(&type, &payload_)) {
      if (type != hero::serve::MsgType::kActResponse ||
          !hero::serve::decode_act_response(payload_.data(), payload_.size(),
                                            rec_.hello.learners, &answer_) ||
          conn.flight_head >= conn.flights.size() ||
          conn.flights[conn.flight_head].id != answer_.request_id) {
        // Unexpected frame or an answer out of order / for an unknown id.
        ++r->failed;
        continue;
      }
      const Conn::Flight f = conn.flights[conn.flight_head++];
      ++r->answered;
      r->latency_us.push_back(now - f.due_us);
      if (!same_answer(answer_, rec_.answers[f.index])) ++r->mismatches;
    }
    if (conn.flight_head == conn.flights.size()) {
      conn.flights.clear();
      conn.flight_head = 0;
    }
  }

  Recording& rec_;
  Conn conns_[kConnections];
  std::uint64_t next_id_ = 0;
  std::vector<std::uint8_t> payload_;
  ActResponse answer_;
};

std::string phase_json(const PhaseResult& p) {
  JsonObject o;
  o.str("name", p.name)
      .num("rate", p.rate)
      .integer("sent", p.sent)
      .integer("answered", p.answered)
      .integer("failed", p.failed)
      .integer("mismatches", p.mismatches)
      .num("drain_s", p.drain_s)
      .nums("latency_us", p.latency_us, "%.1f")
      .nums("lag_us", p.lag_us, "%.1f");
  return o.dump();
}

}  // namespace

int run_serve(hero::Flags& flags) {
  const std::string out = flags.get_string("out", "");
  const std::string bin = flags.get_string("serve-bin", "");
  const std::string ckpt = flags.get_string("ckpt", "");
  const std::string plan_path = flags.get_string("plan", "");
  const std::string workdir = flags.get_string("workdir", "");
  const bool trace = flags.get_bool("trace", false);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 1));
  flags.check_unknown();
  if (out.empty() || bin.empty() || ckpt.empty() || plan_path.empty() ||
      workdir.empty()) {
    throw std::invalid_argument("--out, --serve-bin, --ckpt, --plan and --workdir (all absolute) are required");
  }
  ::signal(SIGPIPE, SIG_IGN);
  // Sockets live in the work directory under short relative names: a unix
  // socket path must fit in 108 bytes wherever the checkout is.
  if (::chdir(workdir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + workdir);
  }

  const std::vector<int> cpus = allowed_cpus();
  Recording rec = record_stream(ckpt, kRecordedRequests, seed);

  std::ifstream plan(plan_path);
  if (!plan) throw std::runtime_error("cannot read plan " + plan_path);
  std::vector<std::string> servers_json, phases_json;
  Server server;
  std::unique_ptr<LoadGen> gen;
  std::string server_name;
  bool ladder_saturated = false;
  auto record = [&](const std::string& name, const Server& stopped) {
    JsonObject s;
    s.str("name", name)
        .num("setup_s", stopped.setup_s)
        .num("peak_rss_mb", stopped.peak_rss_mb)
        .str("metrics", stopped.metrics_path);
    servers_json.push_back(s.dump());
  };
  auto finish_server = [&]() {
    if (server.pid <= 0) return;
    gen.reset();
    stop_server(server);
    record(server_name, server);
  };
  std::string line;
  try {
    while (std::getline(plan, line)) {
      std::istringstream in(line);
      std::string op;
      in >> op;
      if (op.empty()) continue;
      if (op == "server") {
        finish_server();
        in >> server_name;
        ladder_saturated = false;
        const std::string& base = server_name;
        server = start_server(bin, ckpt, base + ".sock", base + ".log",
                              trace ? base + ".metrics.json" : "", rec.hello, cpus);
        gen = std::make_unique<LoadGen>(rec, server);
      } else if (op == "spawn") {
        // A set-up sample between phases: start another server, stop it
        // again, and leave the current one as it was.
        std::string name;
        in >> name;
        Server extra =
            start_server(bin, ckpt, name + ".sock", name + ".log", "", rec.hello, cpus);
        stop_server(extra);
        record(name, extra);
      } else if (op == "pin") {
        // Windows of one phase on different CPUs: on a shared host one CPU
        // can run at half speed for seconds, and a median over windows
        // should not depend on which CPU the server happened to start on.
        std::size_t k = 0;
        in >> k;
        pin_to_cpu(server.pid, cpus[k % cpus.size()]);
        pin_to_cpu(0, cpus[(k + 1) % cpus.size()]);
      } else if (op == "check") {
        long n = 0;
        in >> n;
        phases_json.push_back(phase_json(gen->check(n)));
      } else if (op == "phase") {
        std::string name;
        double rate = 0;
        long count = 0;
        int rung = 0;
        in >> name >> rate >> count >> rung;
        std::vector<Arrival> arrivals(static_cast<std::size_t>(count));
        for (auto& a : arrivals) {
          if (!std::getline(plan, line)) throw std::runtime_error("truncated plan");
          std::istringstream al(line);
          al >> a.conn >> a.due_us;
          if (a.conn < 0 || a.conn >= kConnections) throw std::runtime_error("bad conn");
        }
        if (rung && ladder_saturated) continue;
        const PhaseResult r = gen->phase(name, rate, arrivals);
        if (rung && (r.failed > 0 || r.drain_s > kSaturatedDrainS)) {
          ladder_saturated = true;
        }
        phases_json.push_back(phase_json(r));
      } else {
        throw std::runtime_error("unknown plan step '" + op + "'");
      }
    }
    finish_server();
  } catch (...) {
    gen.reset();
    stop_server(server);
    throw;
  }

  auto join = [](const std::vector<std::string>& parts) {
    std::string a = "[";
    for (std::size_t i = 0; i < parts.size(); ++i) a += (i ? "," : "") + parts[i];
    return a + "]";
  };
  JsonObject doc;
  doc.raw("manifest", build_manifest_json())
      .integer("recorded", static_cast<long long>(rec.requests.size()))
      .raw("servers", join(servers_json))
      .raw("phases", join(phases_json));
  write_file(out, doc.dump());
  return 0;
}

}  // namespace herobench
