// In-memory span log for the traced benchmark run.
//
// The benchmark wraps each call it makes into an engine layer
// (speculation, optimizer, exec, db, sim, workload, trace) in a span.
// Spans are kept in memory while the replay runs, so recording one
// costs two clock reads and a vector append; at the end they are
// replayed into a sqp::Tracer and exported as Chrome trace_event JSON. The calls are flat (no span encloses
// another); the request a span serves is named by (replay, session,
// query): the replay of one session or group in one mode, the user,
// and the final query being formulated or run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace specbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Request {
    int replay = -1;  // -1: set-up, outside any replay
    int session = -1;
    int query = -1;
  };
  struct Span {
    const char* layer;  // string literals only
    const char* call;
    int64_t start_ns;
    int64_t dur_ns;
    Request request;
  };

  /// The request that spans recorded from now on serve.
  void SetRequest(Request request) { request_ = request; }
  /// Start the next replay; returns its number.
  int NextReplay() { return ++replays_; }

  /// Run `fn`, recording a span over it; returns what `fn` returns.
  template <typename Fn>
  auto Time(const char* layer, const char* call, Fn&& fn) {
    const int64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back(Span{layer, call, start, NowNs() - start, request_});
    } else {
      auto out = fn();
      spans_.push_back(Span{layer, call, start, NowNs() - start, request_});
      return out;
    }
  }

  size_t size() const { return spans_.size(); }

  /// Seconds in spans of `layer` recorded at index >= `from`.
  double LayerSeconds(const std::string& layer, size_t from = 0) const;
  /// Durations in milliseconds of spans matching layer and call,
  /// recorded at index >= `from`; an empty call matches every call.
  std::vector<double> DurationsMs(const std::string& layer,
                                  const std::string& call,
                                  size_t from = 0) const;
  /// Seconds in every span recorded at index >= `from`.
  double TotalSeconds(size_t from = 0) const;

  /// The spans as Chrome trace_event JSON, via sqp::Tracer: host
  /// seconds from the first span as time, one lane per session
  /// ("user<k>", "main" for set-up), the request as span args.
  std::string ExportChromeTrace() const;

 private:
  std::vector<Span> spans_;
  Request request_;
  int replays_ = -1;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace specbench
