#include "layer_trace.h"

#include <algorithm>

#include "common/tracing.h"

namespace specbench {

double SpanLog::LayerSeconds(const std::string& layer, size_t from) const {
  int64_t ns = 0;
  for (size_t i = from; i < spans_.size(); i++) {
    if (layer == spans_[i].layer) ns += spans_[i].dur_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> SpanLog::DurationsMs(const std::string& layer,
                                         const std::string& call,
                                         size_t from) const {
  std::vector<double> out;
  for (size_t i = from; i < spans_.size(); i++) {
    if (layer != spans_[i].layer) continue;
    if (!call.empty() && call != spans_[i].call) continue;
    out.push_back(static_cast<double>(spans_[i].dur_ns) * 1e-6);
  }
  return out;
}

double SpanLog::TotalSeconds(size_t from) const {
  int64_t ns = 0;
  for (size_t i = from; i < spans_.size(); i++) ns += spans_[i].dur_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::string SpanLog::ExportChromeTrace() const {
  sqp::Tracer tracer;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    const double start = static_cast<double>(s.start_ns - origin) * 1e-9;
    const std::string lane =
        s.request.session < 0 ? "main"
                              : "user" + std::to_string(s.request.session);
    auto id = tracer.BeginSpan(s.call, s.layer, start, lane);
    tracer.SpanArg(id, "replay", std::to_string(s.request.replay));
    tracer.SpanArg(id, "session", std::to_string(s.request.session));
    tracer.SpanArg(id, "query", std::to_string(s.request.query));
    tracer.EndSpan(id, start + static_cast<double>(s.dur_ns) * 1e-9);
  }
  return tracer.ExportChromeTrace();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace specbench
