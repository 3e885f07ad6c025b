// perfbench_loadgen: open-loop load generator for POST /v1/clean-tuple.
//
//   perfbench_loadgen --port=P --bodies=FILE --rate=R|0 --count=N --out=FILE
//
// Request i is due at start + i/R, whatever happened to earlier requests, and
// goes out on keep-alive connection i mod 2. A connection carries one request
// at a time, so a slow response delays that connection's later requests; the
// delay is visible because every latency is taken from the due time, not from
// the send. One line per request is written to --out:
//
//   i <TAB> due_ns <TAB> ready_ns <TAB> send_ns <TAB> done_ns <TAB> status
//     <TAB> response body
//
// ready_ns is when the connection could have sent (max of due and the
// previous response), so send - ready is the generator's own lateness.
// --rate=0 runs a closed loop instead: each connection sends its next
// request as soon as the previous response arrives, and due = send.
// All times are relative to the schedule start. The server closes a
// keep-alive connection after a fixed number of requests; the generator then
// reconnects before its next send, inside that request's latency, as any
// client would. Exit 0 when every request got a response (whatever its
// status), 1 on a socket error, 64 on usage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

// Keep-alive connections, one thread each: with the daemon's two workers the
// load stays within the box's four cores.
constexpr size_t kConnections = 2;

struct Record {
  int64_t due_ns = 0;
  int64_t ready_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int status = 0;
  std::string body;
};

struct Args {
  int port = 0;
  std::string bodies_path;
  double rate = 0;
  size_t count = 0;
  std::string out_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view name) -> const char* {
      if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
          arg[name.size()] == '=') {
        return argv[i] + name.size() + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--port")) {
      args->port = std::atoi(v);
    } else if (const char* v2 = value("--bodies")) {
      args->bodies_path = v2;
    } else if (const char* v3 = value("--rate")) {
      args->rate = std::atof(v3);
    } else if (const char* v4 = value("--count")) {
      args->count = std::strtoull(v4, nullptr, 10);
    } else if (const char* v5 = value("--out")) {
      args->out_path = v5;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return args->port > 0 && args->port < 65536 && !args->bodies_path.empty() &&
         args->rate >= 0 && args->count > 0 && !args->out_path.empty();
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one HTTP/1.1 response with a Content-Length body. `buffer` carries
/// bytes already received past the previous response.
bool ReadResponse(int fd, std::string* buffer, int* status, std::string* body,
                  bool* close_after) {
  char chunk[16384];
  size_t head_end = std::string::npos;
  while ((head_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
  const std::string head = buffer->substr(0, head_end);
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return false;
  *status = std::atoi(head.c_str() + 9);
  size_t length = 0;
  for (size_t pos = 0; pos < head.size();) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    std::transform(line.begin(), line.end(), line.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (line.rfind("content-length:", 0) == 0) {
      length = std::strtoull(line.c_str() + 15, nullptr, 10);
    } else if (line.rfind("connection:", 0) == 0) {
      *close_after = line.find("close") != std::string::npos;
    }
    pos = eol + 2;
  }
  const size_t total = head_end + 4 + length;
  while (buffer->size() < total) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
  body->assign(*buffer, head_end + 4, length);
  buffer->erase(0, total);
  while (!body->empty() && (body->back() == '\n' || body->back() == '\r')) {
    body->pop_back();
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --port=P --bodies=FILE --rate=R|0 "
                 "--count=N --out=FILE\n");
    return 64;
  }
  std::vector<std::string> bodies;
  {
    std::ifstream in(args.bodies_path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) bodies.push_back(line);
    }
  }
  if (bodies.empty()) {
    std::fprintf(stderr, "no request bodies in %s\n", args.bodies_path.c_str());
    return 64;
  }

  std::vector<int> fds;
  for (size_t c = 0; c < kConnections; ++c) {
    const int fd = Connect(args.port);
    if (fd < 0) {
      std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n", args.port);
      for (int open_fd : fds) close(open_fd);
      return 1;
    }
    fds.push_back(fd);
  }

  std::vector<Record> records(args.count);
  const bool closed_loop = args.rate == 0;
  for (size_t i = 0; !closed_loop && i < args.count; ++i) {
    records[i].due_ns =
        static_cast<int64_t>(static_cast<double>(i) * 1e9 / args.rate);
  }
  // Start a little in the future so every connection thread is waiting.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start).count();
  };

  std::vector<char> ok(kConnections, 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      // Wake-ups within microseconds of the due time, not the default 50 us
      // timer slack.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::string buffer;
      int64_t previous_done = 0;
      for (size_t i = c; i < args.count; i += kConnections) {
        Record& record = records[i];
        if (closed_loop) {
          record.due_ns = std::max<int64_t>(0, since_start(Clock::now()));
        }
        record.ready_ns = std::max(record.due_ns, previous_done);
        std::this_thread::sleep_until(start +
                                      std::chrono::nanoseconds(record.due_ns));
        const std::string& body = bodies[i % bodies.size()];
        std::string request =
            "POST /v1/clean-tuple HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        record.send_ns = since_start(Clock::now());
        if (fds[c] < 0) {
          fds[c] = Connect(args.port);
          buffer.clear();
        }
        bool close_after = false;
        if (fds[c] < 0 || !SendAll(fds[c], request) ||
            !ReadResponse(fds[c], &buffer, &record.status, &record.body,
                          &close_after)) {
          ok[c] = 0;
          return;
        }
        if (close_after) {
          close(fds[c]);
          fds[c] = -1;
        }
        record.done_ns = since_start(Clock::now());
        previous_done = record.done_ns;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int fd : fds) {
    if (fd >= 0) close(fd);
  }

  FILE* out = std::fopen(args.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  for (size_t i = 0; i < args.count; ++i) {
    const Record& r = records[i];
    std::fprintf(out, "%zu\t%lld\t%lld\t%lld\t%lld\t%d\t%s\n", i,
                 static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.ready_ns),
                 static_cast<long long>(r.send_ns),
                 static_cast<long long>(r.done_ns), r.status, r.body.c_str());
  }
  const bool written = std::fclose(out) == 0;
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) {
    std::fprintf(stderr, "a connection failed before its last response\n");
    return 1;
  }
  return written ? 0 : 1;
}
