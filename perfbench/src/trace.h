#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its own calls into each libses layer (nothing inside the
// library is instrumented): a span has a name, start, end, the span that
// was open when it began (its parent) and the id of the slab or request it
// belongs to. A layer's self time is its span time minus the part covered
// by its child spans. Work that runs once per match inside a layer call
// (the benchmark's own match bookkeeping) is charged to the open span
// under its own name instead of being recorded as one span per match,
// which would dominate the span file.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "measure.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same tracer; -1 for a root.
  int32_t parent = -1;
  /// Slab or request id; -1 when the span covers no single one.
  int64_t id = -1;
  /// Time charged inside this span under `charged_name` (see Charge).
  const char* charged_name = "";
  int64_t charged_ns = 0;
};

/// Records the spans of one thread. Untraced passes run the same code
/// with a null tracer (see ScopedSpan).
class Tracer {
 public:
  /// Opens a span nested in the currently open one; returns its index.
  int Begin(const char* name, int64_t id = -1);
  void End(int index);
  /// Charges `ns` spent in `name` to the open span: child time of that
  /// span, reported under `name`. Every charge to one span uses one name.
  void Charge(const char* name, int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self nanoseconds summed per span name, over spans recorded since the
  /// span with index `from`.
  std::map<std::string, int64_t> SelfNsByName(size_t from = 0) const;
  /// Duration nanoseconds summed per span name.
  std::map<std::string, int64_t> TotalNsByName(size_t from = 0) const;

  /// Appends every span as one JSON line tagged with `section` to `path`.
  ses::Status Append(const std::string& path, const std::string& section) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id = -1)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// RAII charge of the enclosed time; a null tracer records nothing.
class ScopedCharge {
 public:
  ScopedCharge(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name), start_ns_(tracer ? NowNs() : 0) {}
  ~ScopedCharge() {
    if (tracer_ != nullptr) tracer_->Charge(name_, NowNs() - start_ns_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t start_ns_;
};

/// The value recorded under `name`, 0 when no such span was recorded.
int64_t Get(const std::map<std::string, int64_t>& by_name,
            const std::string& name);

/// Appends the tracer's spans to the run's span file under
/// `config.trace_dir` (nothing when it is empty); a write error is reported
/// on stderr and does not fail the run.
void WriteSpans(const RunConfig& config, const std::string& section,
                const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
