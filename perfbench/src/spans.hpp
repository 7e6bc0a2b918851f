// In-memory span recorder for the traced mode. Spans are recorded from the
// benchmark's own files around calls into the library's public API (no
// code under src/ is instrumented); each holds its name, start, end, the
// enclosing span and the operation (unit) it belongs to. Self time is a
// span's duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  const char* name;  ///< a string literal; compared by content
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
  std::uint32_t op;
};

class SpanRecorder {
 public:
  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
      index_ = static_cast<std::uint32_t>(rec.spans_.size());
      rec.spans_.push_back({name, 0, 0, rec.open_, rec.op_});
      rec.open_ = index_;
      rec.spans_.back().start_ns = now_ns();
    }
    ~Scope() {
      Span& span = rec_.spans_[index_];
      span.end_ns = now_ns();
      rec_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::uint32_t index_ = 0;
  };

  void set_op(std::uint32_t op) { op_ = op; }
  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of every span named `name`, in nanoseconds, in record order.
  std::vector<double> durations(std::string_view name) const;
  /// Sum over spans named `name` of duration minus direct children.
  double self_ns(std::string_view name) const;
  /// Sum of the durations of spans named `name`.
  double total_ns(std::string_view name) const;

  /// One JSON object per line: name, start/end (ns, relative to the first
  /// span), parent index (-1 for roots) and operation id.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t open_ = Span::kNoParent;
  std::uint32_t op_ = 0;
};

inline std::vector<double> SpanRecorder::durations(
    std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

inline double SpanRecorder::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  return total;
}

inline double SpanRecorder::self_ns(std::string_view name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent != Span::kNoParent && name == spans_[s.parent].name)
      total -= static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

inline void SpanRecorder::write_jsonl(std::ostream& os) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
       << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":"
       << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
       << ",\"op\":" << s.op << "}\n";
  }
}

}  // namespace perfbench
