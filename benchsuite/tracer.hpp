#pragma once
// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed by the benchmark around its calls into the library's public
// functions, on the one orchestrating thread, so they nest strictly: a
// span's parent is the innermost span open when it began. Nothing is
// written until the run ends; writeChrome() then emits Chrome trace-event
// JSON, which opens in Perfetto (ui.perfetto.dev) or chrome://tracing.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fluxdiv::benchsuite {

class Tracer {
public:
  /// A disabled tracer records nothing; its spans cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Scoped span: open on construction, closed on destruction. `request`
  /// groups the spans of one operation (a step or a service batch).
  class Span {
  public:
    Span(Tracer& tracer, const char* name, int request = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    int id_;
  };

  /// Per-name totals: how many spans, their summed duration, and their
  /// summed self time (duration minus the time their child spans cover).
  struct Layer {
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };
  [[nodiscard]] std::map<std::string, Layer> layers() const;

  /// Write every span as a Chrome trace "complete" event. Throws
  /// std::runtime_error when the file cannot be written.
  void writeChrome(const std::string& path) const;

private:
  using Clock = std::chrono::steady_clock;
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int request = -1;
  };

  int open(const char* name, int request);
  void close(int id);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

} // namespace fluxdiv::benchsuite
