#include "spans.hpp"

#include <iomanip>
#include <ostream>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Bench: return "bench";
    case Layer::Core: return "core";
    case Layer::Netsim: return "netsim";
    case Layer::Fft: return "fft";
    case Layer::Simmpi: return "simmpi";
    case Layer::Serve: return "serve";
    case Layer::Cluster: return "cluster";
    case Layer::Pppm: return "pppm";
  }
  return "?";
}

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::array<double, kLayers> Recorder::self_seconds(std::size_t from) const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(from))
      self[static_cast<std::size_t>(p)] -= spans_[i].end - spans_[i].start;
  }
  std::array<double, kLayers> out{};
  for (std::size_t i = from; i < spans_.size(); ++i)
    out[static_cast<std::size_t>(spans_[i].layer)] +=
        static_cast<double>(self[i]) * 1e-9;
  return out;
}

void Recorder::write_chrome(std::ostream& os) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(s.start - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end - s.start) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  os << "\n]}\n";
}

double ns_per_span(int count) {
  Recorder r;
  r.set_enabled(true);
  const int root = r.begin("root", Layer::Bench);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < count; ++i) r.end(r.begin("span", Layer::Bench));
  const std::int64_t t1 = now_ns();
  r.end(root);
  return static_cast<double>(t1 - t0) / count;
}

}  // namespace perfbench
