#pragma once
/// \file spans.hpp
/// In-memory span recorder for the benchmark's traced runs.
///
/// Spans are recorded by the benchmark itself, around each call it makes
/// into a layer's public functions (the library is not instrumented for
/// wall time). One recorder is active per process and only the thread
/// that drives the workload records into it (rank 0 in kspace_md), so
/// recording takes no lock. A disabled recorder costs one branch per
/// Scope, which is what the untraced runs pay.

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

/// The repository's modules, as the benchmark attributes time to them.
/// `Bench` is the benchmark's own code (pass loops, checks, digests).
enum class Layer { Bench, Core, Netsim, Fft, Simmpi, Serve, Cluster, Pppm };
inline constexpr int kLayers = 8;
const char* layer_name(Layer l);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal
  Layer layer = Layer::Bench;
  std::int64_t start = 0, end = 0;  ///< steady-clock ns
  std::int32_t parent = -1;         ///< index of the enclosing span
  std::int64_t op = -1;             ///< op the span belongs to (-1: set-up)
};

class Recorder {
 public:
  bool enabled() const { return on_; }
  void set_enabled(bool on) { on_ = on; }
  /// Op id stamped on spans opened from now on.
  void set_op(std::int64_t op) { op_ = op; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int begin(const char* name, Layer layer) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, layer, now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), op_});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  /// Per-layer self time in seconds over spans [from, size()): each
  /// span's duration minus the part its direct children cover.
  std::array<double, kLayers> self_seconds(std::size_t from = 0) const;

  /// Chrome/Perfetto trace-event JSON ("X" events; args carry the span
  /// id, parent id and op id).
  void write_chrome(std::ostream& os) const;

 private:
  bool on_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder.
Recorder& recorder();

/// RAII span on the process-wide recorder.
class Scope {
 public:
  Scope(const char* name, Layer layer)
      : id_(recorder().begin(name, layer)) {}
  ~Scope() { recorder().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Wall-clock cost of recording one span (begin + end), in ns, measured
/// on a private recorder over a fixed count of spans.
double ns_per_span(int count);

}  // namespace perfbench
