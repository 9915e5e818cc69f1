// pb_client — closed-loop load client for mbserved's newline-JSON protocol.
//
// Shares no code with the program under test: its socket handling and its
// response scanning are its own, so a change under src/serve or src/common
// shows up only as server time.
//
//   pb_client --port N --requests FILE --out SUMMARY.json
//             [--conns C] [--window W] [--seconds S | --rounds R]
//             [--segment K] [--resend-last M]
//             [--trace-out SPANS.json]
//
// FILE holds one request object per line, without an "id"; the client adds
// "id":"<n>" with n counting every send. A round sends every line of FILE
// once. The request index advances over the rounds without a barrier, and
// the client stops issuing only at a round boundary once --seconds have
// passed (or after --rounds rounds), so every run attempts whole rounds.
// Each of the C connections keeps W requests in flight: W = 1 is a plain
// closed loop, W > 1 pipelines.
//
// Checks made on every response: "ok":true, the echoed id equals the id of
// the oldest request in flight on that connection, and the margin/score
// text equals the first answer seen for the same request line (the server
// prints doubles in shortest round-trip form, so equal text is equal bits).
//
// Latency is the time from writing a request to reading its response line.
// Completions are cut into consecutive segments of K; each segment gives a
// rate, a p50 and a p99, and the caller takes medians over segments.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pb_client: %s\n", message.c_str());
  std::exit(2);
}

struct Options {
  int port = 0;
  std::string requests_path;
  std::string out_path;
  std::string trace_path;
  int conns = 1;
  int window = 1;
  double seconds = 0.0;
  int64_t rounds = 0;
  size_t segment = 1000;
  size_t resend_last = 0;
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Die("flag " + key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--port") {
      options.port = std::atoi(value.c_str());
    } else if (key == "--requests") {
      options.requests_path = value;
    } else if (key == "--out") {
      options.out_path = value;
    } else if (key == "--trace-out") {
      options.trace_path = value;
    } else if (key == "--conns") {
      options.conns = std::atoi(value.c_str());
    } else if (key == "--window") {
      options.window = std::atoi(value.c_str());
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--rounds") {
      options.rounds = std::atoll(value.c_str());
    } else if (key == "--segment") {
      options.segment = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (key == "--resend-last") {
      options.resend_last = static_cast<size_t>(std::atoll(value.c_str()));
    } else {
      Die("unknown flag " + key);
    }
  }
  if (options.port <= 0 || options.requests_path.empty() || options.out_path.empty()) {
    Die("--port, --requests and --out are required");
  }
  if (options.conns < 1 || options.window < 1 || options.segment < 1) {
    Die("--conns, --window and --segment must be positive");
  }
  if ((options.seconds > 0) == (options.rounds > 0)) {
    Die("give exactly one of --seconds and --rounds");
  }
  return options;
}

/// Value of a string field ("key":"value") in a flat response line.
std::string_view StringField(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\":\"");
  const size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + pattern.size();
  const size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return line.substr(begin, end - begin);
}

/// Raw text of a number or literal field ("key":123.5) in a response line.
std::string_view LiteralField(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\":");
  const size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + pattern.size();
  size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
};

/// In-memory span log, written once at exit. Spans past the cap are timed
/// but not kept, so a long traced phase cannot grow the client without
/// bound.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 400000;

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  uint64_t NextId() { return ++next_id_; }
  void Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id, uint64_t parent) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, start_ns, end_ns, id, parent});
    } else {
      ++dropped_;
    }
  }
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::ofstream out(path);
    out << "{\"dropped\":" << dropped_ << ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"start_us\":"
          << (span.start_ns - origin_ns) / 1000.0 << ",\"end_us\":"
          << (span.end_ns - origin_ns) / 1000.0 << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  uint64_t next_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

struct InFlight {
  size_t index;
  uint64_t id;
  int64_t sent_ns;
};

struct Connection {
  int fd = -1;
  bool alive = false;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  std::deque<InFlight> in_flight;
  uint64_t span_id = 0;
};

struct Tally {
  int64_t completed = 0;
  int64_t ok_false = 0;
  int64_t broken = 0;
  int64_t id_mismatch = 0;
  int64_t value_mismatch = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  std::map<std::string, int64_t> errors;
};

class LoadClient {
 public:
  LoadClient(const Options& options, std::vector<std::string> requests)
      : options_(options), requests_(std::move(requests)) {
    first_value_.resize(requests_.size());
    last_value_.resize(requests_.size());
    last_winner_.assign(requests_.size(), '?');
    last_cache_.assign(requests_.size(), '?');
    if (!options_.trace_path.empty()) tracer_.Enable();
  }

  ~LoadClient() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  void Connect() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) Die("epoll_create1 failed");
    conns_.resize(static_cast<size_t>(options_.conns));
    for (size_t c = 0; c < conns_.size(); ++c) {
      Connection& conn = conns_[c];
      conn.fd = ConnectBlocking();
      const int flags = ::fcntl(conn.fd, F_GETFL, 0);
      ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
      conn.alive = true;
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = c;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event) != 0) Die("epoll_ctl failed");
    }
  }

  void Measure() {
    if (tracer_.enabled()) {
      phase_span_ = tracer_.NextId();
      for (Connection& conn : conns_) conn.span_id = tracer_.NextId();
    }
    const int64_t start = NowNs();
    rounds_ = RunPhase(options_.seconds, options_.rounds, /*measure=*/true);
    const int64_t end = NowNs();
    phase_s_ = (end - start) / 1e9;
    if (tracer_.enabled()) {
      tracer_.Add("client.phase", start, end, phase_span_, 0);
      for (Connection& conn : conns_) {
        tracer_.Add("client.connection", start, end, conn.span_id, phase_span_);
      }
    }
  }

  /// Re-sends the last M request lines one at a time on the first live
  /// connection and records their answers (used to see cached replies).
  void Resend() {
    current_measure_ = false;
    const size_t m = std::min(options_.resend_last, requests_.size());
    for (size_t k = requests_.size() - m; k < requests_.size(); ++k) {
      Connection* conn = nullptr;
      for (Connection& candidate : conns_) {
        if (candidate.alive) {
          conn = &candidate;
          break;
        }
      }
      if (conn == nullptr) return;
      Queue(*conn, k, /*measure=*/false);
      Flush(*conn);
      resend_index_.push_back(k);
      resend_pending_ = true;
      while (resend_pending_ && conn->alive) Poll(/*measure=*/false, -1);
    }
  }

  bool WriteSummary(const std::string& path) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"requests\":" << requests_.size() << ",\"rounds\":" << rounds_
        << ",\"sent\":" << measured_sent_ << ",\"completed\":" << measured_.completed
        << ",\"ok_false\":" << measured_.ok_false << ",\"broken\":" << measured_.broken
        << ",\"id_mismatch\":" << measured_.id_mismatch + resend_.id_mismatch
        << ",\"value_mismatch\":" << measured_.value_mismatch + resend_.value_mismatch
        << ",\"resend_failed\":" << resend_.ok_false + resend_.broken
        << ",\"hits\":" << measured_.hits << ",\"misses\":" << measured_.misses
        << ",\"phase_s\":" << phase_s_ << ",\"errors\":{";
    bool first = true;
    for (const auto& [error, count] : measured_.errors) {
      out << (first ? "" : ",") << JsonString(error) << ":" << count;
      first = false;
    }
    out << "},\"segments\":[";
    for (size_t s = 0; s < segments_.size(); ++s) {
      const SegmentStats& seg = segments_[s];
      out << (s ? "," : "") << "{\"n\":" << seg.n << ",\"dur_s\":" << seg.dur_s
          << ",\"p50_us\":" << seg.p50_us << ",\"p99_us\":" << seg.p99_us << "}";
    }
    out << "],\"values\":[";
    for (size_t i = 0; i < last_value_.size(); ++i) {
      out << (i ? "," : "") << JsonString(last_value_[i]);
    }
    out << "],\"winners\":" << JsonString(last_winner_) << ",\"cache\":"
        << JsonString(last_cache_) << ",\"resend\":[";
    for (size_t k = 0; k < resend_index_.size() && k < resend_values_.size(); ++k) {
      out << (k ? "," : "") << "{\"index\":" << resend_index_[k]
          << ",\"value\":" << JsonString(resend_values_[k].first)
          << ",\"cache\":" << JsonString(resend_values_[k].second) << "}";
    }
    out << "]}\n";
    std::ofstream file(path);
    file << out.str();
    return static_cast<bool>(file);
  }

  bool WriteTrace(const std::string& path) const { return tracer_.Write(path, origin_ns_); }

 private:
  struct SegmentStats {
    size_t n;
    double dur_s;
    double p50_us;
    double p99_us;
  };

  int ConnectBlocking() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect to port " + std::to_string(options_.port) + " failed: " +
          std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  /// Queues request `index` on `conn`, with a fresh id; Flush writes it.
  void Queue(Connection& conn, size_t index, bool measure) {
    const uint64_t id = ++next_id_;
    conn.out.append("{\"id\":\"").append(std::to_string(id)).append("\",");
    conn.out.append(requests_[index], 1, std::string::npos);
    conn.out.push_back('\n');
    conn.in_flight.push_back(InFlight{index, id, 0});
    ++outstanding_;
    if (measure) ++measured_sent_;
  }

  void Flush(Connection& conn) {
    while (conn.alive && conn.out_pos < conn.out.size()) {
      const int64_t start = NowNs();
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      const int64_t end = NowNs();
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Break(conn);
        return;
      }
      if (tracer_.enabled()) tracer_.Add("client.send", start, end, tracer_.NextId(), conn.span_id);
      conn.out_pos += static_cast<size_t>(n);
    }
    if (conn.out_pos == conn.out.size()) {
      // Stamp sends once the bytes are written.
      const int64_t now = NowNs();
      for (auto it = conn.in_flight.rbegin(); it != conn.in_flight.rend() && it->sent_ns == 0;
           ++it) {
        it->sent_ns = now;
      }
      conn.out.clear();
      conn.out_pos = 0;
      UpdateInterest(conn, false);
    } else {
      UpdateInterest(conn, true);
    }
  }

  void UpdateInterest(Connection& conn, bool want_write) {
    epoll_event event{};
    event.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    event.data.u64 = static_cast<uint64_t>(&conn - conns_.data());
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
  }

  void Break(Connection& conn) {
    if (!conn.alive) return;
    conn.alive = false;
    Tally& tally = current_measure_ ? measured_ : resend_;
    tally.broken += static_cast<int64_t>(conn.in_flight.size());
    outstanding_ -= static_cast<int64_t>(conn.in_flight.size());
    conn.in_flight.clear();
    resend_pending_ = false;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  }

  void OnResponse(Connection& conn, std::string_view line, int64_t now, bool measure) {
    Tally& tally = measure ? measured_ : resend_;
    const InFlight request = conn.in_flight.front();
    conn.in_flight.pop_front();
    --outstanding_;
    ++tally.completed;
    if (tracer_.enabled() && measure) {
      tracer_.Add("client.request", request.sent_ns, now, request.id, conn.span_id);
    }
    if (StringField(line, "id") != std::to_string(request.id)) ++tally.id_mismatch;
    if (LiteralField(line, "ok") != "true") {
      ++tally.ok_false;
      const std::string_view error = StringField(line, "error");
      ++tally.errors[std::string(error.empty() ? "unknown" : error)];
      return;
    }
    std::string_view value = LiteralField(line, "margin");
    if (value.empty()) value = LiteralField(line, "score");
    const std::string_view cache = StringField(line, "cache");
    if (cache == "hit") {
      ++tally.hits;
    } else {
      ++tally.misses;
    }
    std::string& first = first_value_[request.index];
    if (first.empty()) {
      first.assign(value);
    } else if (first != value) {
      ++tally.value_mismatch;
    }
    if (resend_pending_) {
      resend_values_.emplace_back(std::string(value), std::string(cache));
      resend_pending_ = false;
      return;
    }
    last_value_[request.index].assign(value);
    const std::string_view winner = StringField(line, "winner");
    last_winner_[request.index] = winner.empty() ? '-' : winner[0];
    last_cache_[request.index] = cache.empty() ? '-' : cache[0];
    if (measure) {
      latencies_ns_.push_back(now - request.sent_ns);
      if (latencies_ns_.size() % options_.segment == 0) CloseSegment(now);
    }
  }

  void CloseSegment(int64_t now) {
    const size_t k = options_.segment;
    std::vector<int64_t> seg(latencies_ns_.end() - static_cast<ptrdiff_t>(k),
                             latencies_ns_.end());
    std::sort(seg.begin(), seg.end());
    // Nearest-rank percentiles.
    const size_t p50 = (k + 1) / 2 - 1;
    const size_t p99 = (99 * k + 99) / 100 - 1;
    segments_.push_back(SegmentStats{k, (now - segment_start_ns_) / 1e9, seg[p50] / 1e3,
                                     seg[p99] / 1e3});
    segment_start_ns_ = now;
  }

  /// Reads what is available on `conn` and handles each complete line.
  void Read(Connection& conn, bool measure) {
    char buffer[1 << 16];
    while (conn.alive) {
      const int64_t start = NowNs();
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      const int64_t end = NowNs();
      if (n == 0) {
        Break(conn);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) Break(conn);
        break;
      }
      if (tracer_.enabled() && measure) {
        tracer_.Add("client.recv", start, end, tracer_.NextId(), conn.span_id);
      }
      conn.in.append(buffer, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
    }
    size_t pos = 0;
    const int64_t now = NowNs();
    while (true) {
      const size_t newline = conn.in.find('\n', pos);
      if (newline == std::string::npos) break;
      if (conn.in_flight.empty()) {
        Break(conn);  // A response nobody asked for.
        return;
      }
      OnResponse(conn, std::string_view(conn.in).substr(pos, newline - pos), now, measure);
      pos = newline + 1;
    }
    conn.in.erase(0, pos);
  }

  void Poll(bool measure, int timeout_ms) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) Die("epoll_wait failed");
    for (int e = 0; e < n; ++e) {
      Connection& conn = conns_[events[e].data.u64];
      if (events[e].events & (EPOLLERR | EPOLLHUP)) {
        Read(conn, measure);
        Break(conn);
        continue;
      }
      if (events[e].events & EPOLLOUT) Flush(conn);
      if (events[e].events & EPOLLIN) Read(conn, measure);
    }
  }

  /// Runs whole rounds over the request set; returns the rounds completed.
  int64_t RunPhase(double seconds, int64_t rounds, bool measure) {
    current_measure_ = measure;
    const size_t n = requests_.size();
    const int64_t start = NowNs();
    segment_start_ns_ = start;
    int64_t issued = 0;
    auto may_issue = [&]() {
      if (issued % static_cast<int64_t>(n) != 0) return true;  // Finish the round.
      if (rounds > 0) return issued / static_cast<int64_t>(n) < rounds;
      return issued == 0 || (NowNs() - start) / 1e9 < seconds;
    };
    while (true) {
      bool any_alive = false;
      for (Connection& conn : conns_) {
        if (!conn.alive) continue;
        any_alive = true;
        while (conn.in_flight.size() < static_cast<size_t>(options_.window) && may_issue()) {
          // A window refill goes out in one write.
          Queue(conn, static_cast<size_t>(issued % static_cast<int64_t>(n)), measure);
          ++issued;
        }
        if (!conn.out.empty()) Flush(conn);
      }
      if (!any_alive) break;
      if (outstanding_ == 0 && !may_issue()) break;
      Poll(measure, 1000);
    }
    return issued / static_cast<int64_t>(n);
  }

  const Options options_;
  const std::vector<std::string> requests_;
  std::vector<Connection> conns_;
  int epoll_fd_ = -1;
  uint64_t next_id_ = 0;
  int64_t outstanding_ = 0;
  int64_t measured_sent_ = 0;
  int64_t rounds_ = 0;
  bool current_measure_ = false;
  Tally measured_;
  Tally resend_;
  double phase_s_ = 0.0;
  int64_t segment_start_ns_ = 0;
  std::vector<int64_t> latencies_ns_;
  std::vector<SegmentStats> segments_;
  std::vector<std::string> first_value_;
  std::vector<std::string> last_value_;
  std::string last_winner_;
  std::string last_cache_;
  std::vector<size_t> resend_index_;
  std::vector<std::pair<std::string, std::string>> resend_values_;
  bool resend_pending_ = false;
  Tracer tracer_;
  uint64_t phase_span_ = 0;
  int64_t origin_ns_ = NowNs();
};

std::vector<std::string> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.front() != '{' || line.size() < 3) Die("request line is not an object: " + line);
    lines.push_back(line);
  }
  if (lines.empty()) Die(path + " holds no requests");
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  LoadClient client(options, ReadRequests(options.requests_path));
  client.Connect();
  client.Measure();
  if (options.resend_last > 0) client.Resend();
  if (!client.WriteSummary(options.out_path)) Die("cannot write " + options.out_path);
  if (!options.trace_path.empty() && !client.WriteTrace(options.trace_path)) {
    Die("cannot write " + options.trace_path);
  }
  return 0;
}
