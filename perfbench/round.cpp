//===- perfbench/round.cpp - One measured round of a benchmark workload ---===//
//
// Part of icilk-repro, a reproduction of "Responsive Parallelism with
// Futures and State" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Runs one round of one workload in a fresh process and writes the raw
// measurements to a JSON file; perfbench/run.py runs several rounds and
// turns them into metrics (perfbench/analysis.py). Every workload is fixed
// work: --work timed operations after --warmup untimed ones.
//
//   proxy-hit   RealProxy in front of an http::HttpServer origin; one
//               client thread, two keep-alive connections, closed loop,
//               over a small pre-warmed URL set (every request a hit).
//   proxy-miss  The same, but every URL is new (every request a miss).
//   responsive  No I/O: a closed-loop chain of fibPar jobs at the lowest
//               level (JobSw) plus an open-loop stream of small top-level
//               (JobMatmul) requests from a generator thread.
//
// With --trace 1 the proxy rounds turn on RealProxy's span store and
// telemetry, and the responsive round writes its own per-request and
// per-job stamps. End-to-end rounds run with tracing off.
//
//===----------------------------------------------------------------------===//

#include "apps/JobServer.h" // JobSw .. JobMatmul
#include "apps/Kernels.h"
#include "apps/RealProxy.h"
#include "icilk/Context.h"
#include "icilk/Runtime.h"
#include "support/HttpServer.h"
#include "support/Timer.h"

#include <net/if.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace repro;

namespace {

//===-- Fixed workload shape -----------------------------------------------===//

constexpr unsigned RuntimeWorkers = 2;
constexpr unsigned RuntimeLevels = 4;
constexpr unsigned ClientConns = 2;
constexpr std::size_t BodyBytes = 1024;
constexpr std::size_t HitUrls = 64;
constexpr unsigned BgFib = 24;        // background job: fibPar(24, cutoff 15)
constexpr unsigned BgCutoff = 15;
// Foreground request: fibSeq(28), about a fifth of a millisecond, at 1000
// requests/s. With a tiny body (fibSeq(15)) the master's grant settles
// either on the top level holding both workers or on both workers at level
// 0, which serve a top-level request only once their level-0 work runs
// out; the request median then jumps between ~3 µs and ~25 µs from one
// process to the next (see README.md).
constexpr unsigned FgFib = 28;
constexpr uint64_t FgPeriodNs = 1000000;
constexpr unsigned CalibrationReps = 31;

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_round: %s\n", Msg.c_str());
  std::exit(2);
}

//===-- Seeded inputs ------------------------------------------------------===//

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return std::string(Buf, 16);
}

/// The origin's body for object \p Key: BodyBytes printable bytes, a pure
/// function of (seed, key), so the client can check every response.
std::string bodyFor(uint64_t Seed, uint64_t Key) {
  std::string B(BodyBytes, '\0');
  uint64_t S = mix64(Seed ^ mix64(Key));
  for (std::size_t I = 0; I < BodyBytes; I += 8) {
    S = mix64(S);
    for (std::size_t J = 0; J < 8; ++J)
      B[I + J] = static_cast<char>('a' + ((S >> (J * 8)) & 0xff) % 26);
  }
  return B;
}

std::string targetFor(uint64_t Key) { return "/obj?k=" + hex16(Key); }

//===-- Process measurements -----------------------------------------------===//

double rssMb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Usage {
  double CpuUs = 0;
  double CtxSw = 0;
};

Usage processUsage() {
  struct rusage U {};
  ::getrusage(RUSAGE_SELF, &U);
  auto Us = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e6 + static_cast<double>(T.tv_usec);
  };
  return {Us(U.ru_utime) + Us(U.ru_stime),
          static_cast<double>(U.ru_nvcsw + U.ru_nivcsw)};
}

double clockSeconds(clockid_t Id) {
  timespec T{};
  ::clock_gettime(Id, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Microseconds after the process trace epoch — the zero RealProxy's span
/// export uses, so client stamps and span times share one axis.
double epochUs(uint64_t Nanos) {
  return static_cast<double>(Nanos - traceEpochNanos()) / 1000.0;
}

/// TIME_WAIT sockets in this network namespace (/proc/net/sockstat).
double timeWaitSockets() {
  std::FILE *F = std::fopen("/proc/net/sockstat", "r");
  if (!F)
    return -1;
  char Line[256];
  double Tw = -1;
  while (std::fgets(Line, sizeof Line, F))
    if (const char *P = std::strstr(Line, " tw "))
      Tw = std::atof(P + 4);
  std::fclose(F);
  return Tw;
}

/// Moves this process into a fresh network namespace with loopback up, so
/// a round starts with no TIME_WAIT sockets left by earlier rounds or
/// runs (each origin call leaves one; the kernel keeps them 60 s and
/// changes its close path once 65,536 are held). False when the process
/// may not create namespaces; the round then shares the host's table.
bool isolateNetwork() {
  if (::unshare(CLONE_NEWNET) != 0)
    return false;
  int Fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ifreq Req{};
  std::strcpy(Req.ifr_name, "lo");
  bool Up = Fd >= 0 && ::ioctl(Fd, SIOCGIFFLAGS, &Req) == 0;
  Req.ifr_flags |= IFF_UP;
  Up = Up && ::ioctl(Fd, SIOCSIFFLAGS, &Req) == 0;
  if (Fd >= 0)
    ::close(Fd);
  if (!Up)
    fail("private network namespace: cannot bring loopback up");
  return true;
}

//===-- Result file --------------------------------------------------------===//

/// Writes one flat JSON object: scalars, number arrays, string arrays, and
/// pre-rendered JSON values.
class ResultWriter {
public:
  explicit ResultWriter(const std::string &Path)
      : F(std::fopen(Path.c_str(), "w")) {
    if (!F)
      fail("cannot write " + Path);
    std::fputc('{', F);
  }
  ~ResultWriter() {
    std::fputs("}\n", F);
    std::fclose(F);
  }
  ResultWriter(const ResultWriter &) = delete;
  ResultWriter &operator=(const ResultWriter &) = delete;

  void num(const char *Key, double V) {
    key(Key);
    std::fprintf(F, "%.17g", V);
  }
  template <typename T> void nums(const char *Key, const std::vector<T> &V) {
    key(Key);
    std::fputc('[', F);
    for (std::size_t I = 0; I < V.size(); ++I)
      std::fprintf(F, I ? ",%.3f" : "%.3f", static_cast<double>(V[I]));
    std::fputc(']', F);
  }
  void strs(const char *Key, const std::vector<std::string> &V) {
    key(Key);
    std::fputc('[', F);
    for (std::size_t I = 0; I < V.size(); ++I)
      std::fprintf(F, I ? ",\"%s\"" : "\"%s\"", V[I].c_str());
    std::fputc(']', F);
  }
  void raw(const char *Key, const std::string &Json) {
    key(Key);
    std::fputs(Json.c_str(), F);
  }

private:
  void key(const char *Key) {
    std::fprintf(F, First ? "\"%s\":" : ",\"%s\":", Key);
    First = false;
  }
  std::FILE *F;
  bool First = true;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Round = 0;
  uint64_t Work = 0;
  uint64_t Warmup = 0;
  bool Trace = false;
  std::string Out;
  std::string SpansOut;
};

//===-- Origin -------------------------------------------------------------===//

/// The origin behind the proxy: an http::HttpServer with one route whose
/// handler the benchmark owns. Counts calls, remembers each call's
/// X-Request-Id and traceparent when asked, and exposes its thread's CPU
/// clock.
class Origin {
public:
  Origin(uint64_t Seed, bool RecordIds) : Seed(Seed), RecordIds(RecordIds) {
    Server.route("/obj", [this](const http::Request &Req) {
      if (!ClockReady.load(std::memory_order_acquire)) {
        pthread_getcpuclockid(pthread_self(), &Clock);
        ClockReady.store(true, std::memory_order_release);
      }
      Calls.fetch_add(1, std::memory_order_relaxed);
      if (this->RecordIds) {
        std::lock_guard<std::mutex> Lock(IdsMutex);
        Ids.push_back(Req.header("x-request-id"));
        Parents.push_back(Req.header("traceparent"));
      }
      auto It = Req.Query.find("k");
      if (It == Req.Query.end())
        return http::Response{404, "text/plain", "no key\n"};
      uint64_t Key = std::strtoull(It->second.c_str(), nullptr, 16);
      return http::Response{200, "application/octet-stream",
                            bodyFor(this->Seed, Key)};
    });
    std::string Error;
    if (!Server.start(0, &Error))
      fail("origin: " + Error);
  }

  uint16_t port() const { return Server.port(); }
  uint64_t calls() const { return Calls.load(std::memory_order_relaxed); }
  /// CPU seconds the origin thread has used (0 before its first call).
  double cpuSeconds() const {
    return ClockReady.load(std::memory_order_acquire) ? clockSeconds(Clock) : 0;
  }
  void takeIds(std::vector<std::string> &OutIds,
               std::vector<std::string> &OutParents) {
    std::lock_guard<std::mutex> Lock(IdsMutex);
    OutIds = Ids;
    OutParents = Parents;
  }

private:
  const uint64_t Seed;
  const bool RecordIds;
  std::atomic<uint64_t> Calls{0};
  std::atomic<bool> ClockReady{false};
  clockid_t Clock{};
  std::mutex IdsMutex;
  std::vector<std::string> Ids;
  std::vector<std::string> Parents;
  http::HttpServer Server; // last: its thread stops before the rest dies
};

//===-- Keep-alive load client ---------------------------------------------===//

/// One client thread driving ClientConns keep-alive connections in a
/// closed loop: each connection sends its next request only after the
/// previous response's last byte arrived.
class LoadClient {
public:
  struct Record {
    unsigned Conn;
    std::string Id;
    double SendUs, EndUs;
    bool Timed;
  };

  LoadClient(uint16_t Port, uint64_t Seed, unsigned Round, bool Traced)
      : Traced(Traced) {
    for (unsigned C = 0; C < ClientConns; ++C) {
      int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (Fd < 0)
        fail("client socket");
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
      sockaddr_in Addr{};
      Addr.sin_family = AF_INET;
      Addr.sin_port = htons(Port);
      Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0)
        fail("client connect: " + std::string(std::strerror(errno)));
      Conn Cn;
      Cn.Fd = Fd;
      // One trace per connection on the proxy side; the first request's
      // traceparent names it, so the export can be joined to this client.
      Cn.TraceId = hex16(mix64(Seed) | 1) + hex16((uint64_t(Round) << 8) | C);
      Conns.push_back(std::move(Cn));
    }
  }
  ~LoadClient() { closeAll(); }
  LoadClient(const LoadClient &) = delete;
  LoadClient &operator=(const LoadClient &) = delete;

  void closeAll() {
    for (Conn &C : Conns)
      if (C.Fd >= 0) {
        ::close(C.Fd);
        C.Fd = -1;
      }
  }

  /// Sends one request per key (closed loop over all connections), checks
  /// every response against \p Expected, and returns the failures.
  /// Latencies of timed requests go to LatUs.
  template <typename ExpectFn>
  uint64_t drive(const std::vector<uint64_t> &Keys, bool Timed,
                 ExpectFn &&Expected) {
    std::size_t Next = 0, Done = 0;
    uint64_t Failed = 0;
    auto Send = [&](Conn &C) {
      C.Key = Keys[Next++];
      C.Id = "r" + std::to_string(Seq++) + "c" +
             std::to_string(&C - Conns.data());
      std::string Req = "GET " + targetFor(C.Key) +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Request-Id: " +
                        C.Id + "\r\n";
      if (Traced && !C.Named) {
        Req += "traceparent: 00-" + C.TraceId + "-" + hex16(C.Fd + 1) +
               "-01\r\n";
        C.Named = true;
      }
      Req += "\r\n";
      C.SendNs = nowNanos();
      if (::send(C.Fd, Req.data(), Req.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(Req.size()))
        fail("client send: " + std::string(std::strerror(errno)));
      C.Busy = true;
    };
    for (Conn &C : Conns)
      if (Next < Keys.size())
        Send(C);
    std::vector<pollfd> Fds(Conns.size());
    char Chunk[16384];
    while (Done < Keys.size()) {
      for (std::size_t I = 0; I < Conns.size(); ++I)
        Fds[I] = {Conns[I].Fd, static_cast<short>(Conns[I].Busy ? POLLIN : 0),
                  0};
      int R = ::poll(Fds.data(), Fds.size(), 10000);
      if (R <= 0)
        fail("client: no response within 10 s");
      for (std::size_t I = 0; I < Conns.size(); ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Conn &C = Conns[I];
        ssize_t N = ::recv(C.Fd, Chunk, sizeof Chunk, 0);
        if (N <= 0)
          fail("client: proxy closed the connection");
        C.Buf.append(Chunk, static_cast<std::size_t>(N));
        std::size_t Used = 0;
        int Status = 0;
        std::string_view Body, EchoId;
        if (!parseResponse(C.Buf, Used, Status, Body, EchoId))
          continue;
        uint64_t End = nowNanos();
        bool Ok = Status == 200 && EchoId == C.Id && Body == Expected(C.Key);
        Failed += !Ok;
        if (Timed)
          LatUs.push_back(static_cast<float>((End - C.SendNs) / 1000.0));
        if (Traced)
          Records.push_back({static_cast<unsigned>(I), C.Id, epochUs(C.SendNs),
                             epochUs(End), Timed});
        C.Buf.erase(0, Used);
        C.Busy = false;
        ++Done;
        if (Next < Keys.size())
          Send(C);
      }
    }
    return Failed;
  }

  std::vector<std::string> traceIds() const {
    std::vector<std::string> Out;
    for (const Conn &C : Conns)
      Out.push_back(C.TraceId);
    return Out;
  }

  std::vector<float> LatUs;
  std::vector<Record> Records;

private:
  struct Conn {
    int Fd = -1;
    std::string Buf;
    std::string Id;
    std::string TraceId;
    uint64_t Key = 0;
    uint64_t SendNs = 0;
    bool Busy = false;
    bool Named = false;
  };

  /// True once \p Buf holds one whole response: status line, headers with
  /// Content-Length, and that many body bytes.
  static bool parseResponse(const std::string &Buf, std::size_t &Used,
                            int &Status, std::string_view &Body,
                            std::string_view &EchoId) {
    std::size_t HdrEnd = Buf.find("\r\n\r\n");
    if (HdrEnd == std::string::npos)
      return false;
    std::string_view Head(Buf.data(), HdrEnd);
    std::size_t Sp = Head.find(' ');
    Status = Sp == std::string_view::npos ? 0 : std::atoi(Head.data() + Sp + 1);
    std::size_t Len = 0;
    std::size_t Pos = Head.find("\r\n");
    while (Pos != std::string_view::npos && Pos < Head.size()) {
      std::size_t Next = Head.find("\r\n", Pos + 2);
      std::string_view Line = Head.substr(
          Pos + 2, (Next == std::string_view::npos ? Head.size() : Next) -
                       Pos - 2);
      std::size_t Colon = Line.find(':');
      if (Colon != std::string_view::npos) {
        std::string Key(Line.substr(0, Colon));
        for (char &Ch : Key)
          Ch = static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
        std::string_view Val = Line.substr(Colon + 1);
        while (!Val.empty() && Val.front() == ' ')
          Val.remove_prefix(1);
        if (Key == "content-length")
          Len = static_cast<std::size_t>(std::strtoull(Val.data(), nullptr, 10));
        else if (Key == "x-request-id")
          EchoId = Val;
      }
      Pos = Next;
    }
    if (Buf.size() < HdrEnd + 4 + Len)
      return false;
    Body = std::string_view(Buf.data() + HdrEnd + 4, Len);
    Used = HdrEnd + 4 + Len;
    return true;
  }

  const bool Traced;
  uint64_t Seq = 0;
  std::vector<Conn> Conns;
};

//===-- proxy-hit / proxy-miss ---------------------------------------------===//

void runProxy(const Options &O) {
  const bool Hit = O.Workload == "proxy-hit";
  const bool PrivateNet = isolateNetwork();
  const uint64_t Seed = mix64(O.Seed * 1000003 + O.Round);
  (void)traceEpochNanos(); // latch the export epoch before any stamp

  // Seeded inputs. Hit: HitUrls objects, requests drawn uniformly from
  // them. Miss: every request a distinct object (mix64 is a bijection).
  std::vector<uint64_t> Urls, Warm, Timed;
  std::unordered_map<uint64_t, std::string> HitBodies;
  if (Hit) {
    for (std::size_t I = 0; I < HitUrls; ++I) {
      Urls.push_back(mix64(Seed + I));
      HitBodies.emplace(Urls.back(), bodyFor(Seed, Urls.back()));
    }
    uint64_t S = Seed;
    for (uint64_t I = 0; I < O.Warmup + O.Work; ++I) {
      S = mix64(S);
      (I < O.Warmup ? Warm : Timed).push_back(Urls[S % HitUrls]);
    }
  } else {
    for (uint64_t I = 0; I < O.Warmup + O.Work; ++I)
      (I < O.Warmup ? Warm : Timed).push_back(mix64(Seed + (1ULL << 40) + I));
  }
  std::string Scratch;
  auto Expected = [&](uint64_t Key) -> const std::string & {
    if (Hit)
      return HitBodies.at(Key);
    Scratch = bodyFor(Seed, Key);
    return Scratch;
  };

  Origin Org(Seed, O.Trace);
  std::atomic<int> TelemetryPort{-1};
  apps::RealProxyConfig Cfg;
  Cfg.OriginPort = Org.port();
  Cfg.Rt = {.NumWorkers = RuntimeWorkers, .NumLevels = RuntimeLevels};
  if (O.Trace) {
    // Every trace kept; one trace per connection holds every request of
    // the round, so the per-trace and retained caps are raised past what
    // a round can record (run.py checks the export for drops).
    Cfg.Tracing.Enabled = true;
    Cfg.Tracing.Config.HeadSampleRate = 1.0;
    Cfg.Tracing.Config.MaxSpansPerTrace = std::size_t(1) << 24;
    Cfg.Tracing.Config.MaxRetainedTraces = 1024;
    Cfg.TelemetryPort = 0;
    Cfg.TelemetryPortOut = &TelemetryPort;
  }
  apps::RealProxy Proxy(Cfg);
  std::string Error;
  if (!Proxy.start(&Error))
    fail("proxy: " + Error);
  if (O.Trace && TelemetryPort.load() <= 0)
    fail("telemetry did not start");
  auto Snapshot = [&]() -> std::string {
    auto R = http::get(static_cast<uint16_t>(TelemetryPort.load()),
                       "/snapshot.json", 10000);
    if (!R || R->Status != 200)
      fail("cannot read /snapshot.json");
    return R->Body;
  };

  LoadClient Client(Proxy.port(), O.Seed, O.Round, O.Trace);
  uint64_t Failed = 0;
  if (Hit)
    Failed += Client.drive(Urls, false, Expected); // fill the cache
  Failed += Client.drive(Warm, false, Expected);

  // Timed phase.
  std::string SnapBefore = O.Trace ? Snapshot() : std::string("null");
  apps::RealProxyStats StBefore = Proxy.stats();
  uint64_t OriginBefore = Org.calls();
  double OriginCpuBefore = Org.cpuSeconds();
  double ClientCpuBefore = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
  Usage UBefore = processUsage();
  uint64_t T0 = nowNanos();
  uint64_t TimedFailed = Client.drive(Timed, true, Expected);
  uint64_t T1 = nowNanos();
  Usage UAfter = processUsage();
  double Rss = rssMb();
  double TimeWait = timeWaitSockets();
  double ClientCpu = clockSeconds(CLOCK_THREAD_CPUTIME_ID) - ClientCpuBefore;
  double OriginCpu = Org.cpuSeconds() - OriginCpuBefore;
  uint64_t OriginCalls = Org.calls() - OriginBefore;
  apps::RealProxyStats StAfter = Proxy.stats();
  std::string SnapAfter = O.Trace ? Snapshot() : std::string("null");

  // The connection traces finish when the proxy sees the clients close.
  std::string Spans = "null";
  if (O.Trace) {
    Client.closeAll();
    std::vector<std::string> Ids = Client.traceIds();
    for (int Try = 0; Try < 40; ++Try) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      auto R = http::get(static_cast<uint16_t>(TelemetryPort.load()),
                         "/spans.json", 30000);
      if (!R || R->Status != 200)
        continue;
      bool All = std::all_of(Ids.begin(), Ids.end(), [&](const auto &Id) {
        return R->Body.find("\"" + Id + "\"") != std::string::npos;
      });
      Spans = std::move(R->Body);
      if (All)
        break;
    }
  }
  Proxy.stop();

  double Wall = static_cast<double>(T1 - T0) * 1e-9;
  ResultWriter W(O.Out);
  W.num("t0_mono_ns", static_cast<double>(T0));
  W.num("wall_s", Wall);
  W.num("attempted", static_cast<double>(Timed.size()));
  W.num("failed", static_cast<double>(TimedFailed));
  W.num("setup_failed", static_cast<double>(Failed));
  W.num("rss_mb", Rss);
  W.nums("lat_us", Client.LatUs);
  W.num("proc_cpu_us", UAfter.CpuUs - UBefore.CpuUs);
  W.num("proc_ctxsw", UAfter.CtxSw - UBefore.CtxSw);
  W.num("client_cpu_s", ClientCpu);
  W.num("origin_cpu_s", OriginCpu);
  W.num("origin_calls", static_cast<double>(OriginCalls));
  W.num("private_netns", PrivateNet);
  W.num("tw_sockets_end", TimeWait);
  W.num("cache_hits", static_cast<double>(StAfter.CacheHits - StBefore.CacheHits));
  W.num("cache_misses",
        static_cast<double>(StAfter.CacheMisses - StBefore.CacheMisses));
  W.num("origin_errors",
        static_cast<double>(StAfter.OriginErrors - StBefore.OriginErrors));
  W.raw("snap_before", SnapBefore);
  W.raw("snap_after", SnapAfter);
  if (O.Trace) {
    std::vector<double> Conn, Send, End, TimedFlag;
    std::vector<std::string> ReqIds;
    for (const LoadClient::Record &R : Client.Records) {
      Conn.push_back(R.Conn);
      ReqIds.push_back(R.Id);
      Send.push_back(R.SendUs);
      End.push_back(R.EndUs);
      TimedFlag.push_back(R.Timed);
    }
    W.strs("conn_trace_ids", Client.traceIds());
    W.nums("req_conn", Conn);
    W.strs("req_id", ReqIds);
    W.nums("req_send_us", Send);
    W.nums("req_end_us", End);
    W.nums("req_timed", TimedFlag);
    std::vector<std::string> OriginIds, OriginParents;
    Org.takeIds(OriginIds, OriginParents);
    W.strs("origin_ids", OriginIds);
    W.strs("origin_traceparents", OriginParents);
    std::FILE *F = std::fopen(O.SpansOut.c_str(), "w");
    if (!F)
      fail("cannot write " + O.SpansOut);
    std::fputs(Spans.c_str(), F);
    std::fclose(F);
  }
}

//===-- responsive ---------------------------------------------------------===//

struct FgStamp {
  uint64_t Due = 0, Submit = 0, Start = 0, End = 0;
};

/// One phase of the responsive workload: the background chain completes
/// \p Jobs fibPar jobs while the generator submits foreground requests on
/// schedule. Returns the failed operations.
struct ResponsivePhase {
  std::deque<FgStamp> Fg;
  std::vector<uint64_t> JobStart, JobEnd;
  uint64_t T0 = 0, T1 = 0;
  uint64_t Failed = 0;
  uint64_t FgCount = 0;

  void run(icilk::Runtime &Rt, uint64_t Jobs, uint64_t Seed) {
    using icilk::Context;
    const uint64_t BgExpected = apps::fibSeq(BgFib);
    const uint64_t FgExpected = apps::fibSeq(FgFib);
    JobStart.assign(Jobs, 0);
    JobEnd.assign(Jobs, 0);
    std::atomic<bool> Stop{false};
    std::vector<icilk::Future<apps::JobMatmul, uint64_t>> Futures;
    T0 = nowNanos();
    std::thread Gen([&] {
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      for (uint64_t I = 0;; ++I) {
        // Fixed rate with seeded jitter of up to a quarter period either
        // way: an open loop that never bunches arrivals.
        int64_t Jitter = static_cast<int64_t>(mix64(Seed + I) % (FgPeriodNs / 2)) -
                         static_cast<int64_t>(FgPeriodNs / 4);
        uint64_t Due = T0 + (I + 1) * FgPeriodNs + Jitter;
        uint64_t Now = nowNanos();
        if (Due > Now + 200000)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(Due - Now - 150000));
        while (nowNanos() < Due)
          ;
        if (Stop.load(std::memory_order_acquire))
          break;
        FgStamp &S = Fg.emplace_back();
        S.Due = Due;
        S.Submit = nowNanos();
        Futures.push_back(icilk::fcreate<apps::JobMatmul>(
            Rt, [&S](Context<apps::JobMatmul> &) {
              S.Start = nowNanos();
              uint64_t V = apps::fibSeq(FgFib);
              S.End = nowNanos();
              return V;
            }));
      }
    });
    auto Chain = icilk::fcreate<apps::JobSw>(
        Rt, [&, Jobs, BgExpected](Context<apps::JobSw> &C) {
          uint64_t Bad = 0;
          for (uint64_t J = 0; J < Jobs; ++J) {
            JobStart[J] = nowNanos();
            uint64_t V = apps::fibPar(C, BgFib, BgCutoff);
            JobEnd[J] = nowNanos();
            Bad += V != BgExpected;
          }
          return Bad;
        });
    try {
      Failed += icilk::touchFromOutside(Rt, Chain);
    } catch (const std::exception &) {
      Failed += Jobs;
    }
    T1 = nowNanos();
    Stop.store(true, std::memory_order_release);
    Gen.join();
    for (auto &F : Futures) {
      try {
        Failed += icilk::touchFromOutside(Rt, F) != FgExpected;
      } catch (const std::exception &) {
        ++Failed;
      }
    }
    FgCount = Futures.size();
  }
};

void runResponsive(const Options &O) {
  const uint64_t Seed = mix64(O.Seed * 1000003 + O.Round);
  (void)traceEpochNanos();
  // Set-up: the sequential baseline the efficiency metric divides by.
  std::vector<double> SeqUs;
  for (unsigned I = 0; I < CalibrationReps; ++I) {
    uint64_t A = nowNanos();
    volatile uint64_t V = apps::fibSeq(BgFib);
    (void)V;
    SeqUs.push_back(static_cast<double>(nowNanos() - A) / 1000.0);
  }
  std::sort(SeqUs.begin(), SeqUs.end());

  icilk::Runtime Rt({.NumWorkers = RuntimeWorkers, .NumLevels = RuntimeLevels});
  uint64_t Failed = 0;
  {
    ResponsivePhase Warm;
    Warm.run(Rt, O.Warmup, ~Seed);
    Failed += Warm.Failed;
  }

  icilk::RuntimeSnapshot SBefore = Rt.snapshot();
  Usage UBefore = processUsage();
  // Traced rounds also sample which level the master grants the workers
  // to (see README.md, "Two scheduler regimes").
  std::atomic<bool> Sampling{O.Trace};
  uint64_t Samples = 0, TopHeld = 0;
  std::thread Sampler([&] {
    while (Sampling.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++Samples;
      TopHeld += Rt.snapshot().Assigned[RuntimeLevels - 1] == RuntimeWorkers;
    }
  });
  ResponsivePhase P;
  P.run(Rt, O.Work, Seed);
  Sampling.store(false, std::memory_order_release);
  Sampler.join();
  Usage UAfter = processUsage();
  double Rss = rssMb();
  icilk::RuntimeSnapshot SAfter = Rt.snapshot();

  std::vector<float> LatUs;
  for (const FgStamp &S : P.Fg)
    LatUs.push_back(static_cast<float>((S.End - S.Due) / 1000.0));
  double Wall = static_cast<double>(P.T1 - P.T0) * 1e-9;

  ResultWriter W(O.Out);
  W.num("t0_mono_ns", static_cast<double>(P.T0));
  W.num("wall_s", Wall);
  W.num("attempted", static_cast<double>(O.Work + P.FgCount));
  W.num("failed", static_cast<double>(P.Failed));
  W.num("setup_failed", static_cast<double>(Failed));
  W.num("jobs", static_cast<double>(O.Work));
  W.num("rss_mb", Rss);
  W.nums("lat_us", LatUs);
  W.num("proc_cpu_us", UAfter.CpuUs - UBefore.CpuUs);
  W.num("proc_ctxsw", UAfter.CtxSw - UBefore.CtxSw);
  W.num("fib_seq_us", SeqUs[SeqUs.size() / 2]);
  W.num("workers", RuntimeWorkers);
  W.num("rt_tasks", static_cast<double>(SAfter.TasksExecuted - SBefore.TasksExecuted));
  W.num("rt_work_ns",
        static_cast<double>(SAfter.TotalWorkNanos - SBefore.TotalWorkNanos));
  W.num("rt_steals",
        static_cast<double>(SAfter.StealsSameSocket + SAfter.StealsCrossSocket -
                            SBefore.StealsSameSocket - SBefore.StealsCrossSocket));
  W.num("rt_next_slot",
        static_cast<double>(SAfter.NextSlotHits - SBefore.NextSlotHits));
  if (O.Trace) {
    // The benchmark's own spans: due/submit/start/end per foreground
    // request, start/end per background job, in trace-epoch µs.
    std::vector<double> Due, Submit, Start, End, JS, JE;
    for (const FgStamp &S : P.Fg) {
      Due.push_back(epochUs(S.Due));
      Submit.push_back(epochUs(S.Submit));
      Start.push_back(epochUs(S.Start));
      End.push_back(epochUs(S.End));
    }
    for (std::size_t J = 0; J < P.JobStart.size(); ++J) {
      JS.push_back(epochUs(P.JobStart[J]));
      JE.push_back(epochUs(P.JobEnd[J]));
    }
    W.nums("fg_due_us", Due);
    W.nums("fg_submit_us", Submit);
    W.nums("fg_start_us", Start);
    W.nums("fg_end_us", End);
    W.num("top_hold_frac", Samples ? static_cast<double>(TopHeld) / Samples : 0);
    W.nums("job_start_us", JS);
    W.nums("job_end_us", JE);
  }
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      fail("missing value for " + Key);
    std::string Val = Argv[++I];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::stoull(Val);
    else if (Key == "--round")
      O.Round = static_cast<unsigned>(std::stoul(Val));
    else if (Key == "--work")
      O.Work = std::stoull(Val);
    else if (Key == "--warmup")
      O.Warmup = std::stoull(Val);
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--out")
      O.Out = Val;
    else if (Key == "--spans-out")
      O.SpansOut = Val;
    else
      fail("unknown option " + Key);
  }
  if (O.Work == 0 || O.Out.empty())
    fail("--work and --out are required");
  if (O.Trace && O.Workload != "responsive" && O.SpansOut.empty())
    fail("--spans-out is required for a traced proxy round");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options O = parseArgs(Argc, Argv);
  if (O.Workload == "proxy-hit" || O.Workload == "proxy-miss")
    runProxy(O);
  else if (O.Workload == "responsive")
    runResponsive(O);
  else
    fail("unknown workload " + O.Workload);
  return 0;
}
