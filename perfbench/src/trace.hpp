#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are taken
// only around the benchmark's own calls into a module's public functions;
// nothing inside the library is instrumented. With tracing off, begin()
// and end() read no clock and store nothing.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One traced call. `name` is "<layer>.<call>", e.g. "mcast.run"; the
/// layer is the prefix before the first dot. `op` is the operation the
/// call served, or the set-up repetition for spans under "bench.setup".
/// `root` is the outermost enclosing span (the span itself at top level).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t root = -1;
  std::int64_t op = -1;

  [[nodiscard]] std::int64_t ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  std::int32_t begin(const char* name, std::int64_t op);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Name of the outermost span enclosing span `i`.
  [[nodiscard]] std::string root_name(std::size_t i) const {
    return spans_[static_cast<std::size_t>(spans_[i].root)].name;
  }

  /// Self time per layer in ns over the spans under top-level spans
  /// named `root`: each span's duration minus the part its child spans
  /// cover, summed by layer.
  [[nodiscard]] std::map<std::string, std::int64_t> layer_self_ns(
      const std::string& root) const;

  /// Writes every span as one tab-separated line
  /// (index, name, start_ns, end_ns, parent, root, op). Returns false on
  /// I/O failure.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::int64_t op)
      : t_{t}, id_{t.begin(name, op)} {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

}  // namespace perfbench
