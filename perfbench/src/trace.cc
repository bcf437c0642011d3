#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

namespace perfbench {

int Tracer::Begin(const char* name, int64_t id) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.id = id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::Charge(const char* name, int64_t ns) {
  if (current_ < 0) return;  // nothing open to charge; never happens here
  Span& span = spans_[static_cast<size_t>(current_)];
  span.charged_name = name;
  span.charged_ns += ns;
}

void Tracer::End(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  current_ = span.parent;
}

std::map<std::string, int64_t> Tracer::SelfNsByName(size_t from) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        span.end_ns - span.start_ns - child_ns[i] - span.charged_ns;
    if (span.charged_ns > 0) self[span.charged_name] += span.charged_ns;
  }
  return self;
}

std::map<std::string, int64_t> Tracer::TotalNsByName(size_t from) const {
  std::map<std::string, int64_t> total;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    total[span.name] += span.end_ns - span.start_ns;
    if (span.charged_ns > 0) total[span.charged_name] += span.charged_ns;
  }
  return total;
}

ses::Status Tracer::Append(const std::string& path,
                           const std::string& section) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "a"),
                                              &std::fclose);
  if (file == nullptr) return ses::Status::IoError("cannot open " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    std::fprintf(file.get(),
                 "{\"section\":\"%s\",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"id\":%" PRId64
                 ",\"charged\":\"%s\",\"charged_ns\":%" PRId64 "}\n",
                 section.c_str(), span.name, span.start_ns - origin,
                 span.end_ns - origin, span.parent, span.id,
                 span.charged_name, span.charged_ns);
  }
  return ses::Status::OK();
}

int64_t Get(const std::map<std::string, int64_t>& by_name,
            const std::string& name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second;
}

void WriteSpans(const RunConfig& config, const std::string& section,
                const Tracer& tracer) {
  if (config.trace_dir.empty()) return;
  const std::string path = config.trace_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".jsonl";
  ses::Status status = tracer.Append(path, section);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: spans not written: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace perfbench
