//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Spans recorded by the benchmark around its own calls into the program's
// layers. Nothing inside the program is instrumented: the traced run
// recomposes the work from public functions and wraps each call in a
// Tracer::Scope. Spans stay in memory until the run ends, then go to a
// JSON-lines file (one span per line, see perfbench/README.md).
//
// A folded span stands for many short calls that are too frequent to
// record one by one (the timing model's onBatch, ~282k calls per sweep).
// It carries their summed duration and call count, hangs under the span
// during which the calls happened, and starts at that span's start. Its
// calls never overlap the parent's other children (they run inside the
// emulator, where no other span is open).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0;     ///< 0: a root span.
  /// "<layer>.<what>", e.g. "emu.traced". Name and Tag point at string
  /// literals or other storage that outlives the tracer.
  const char *Name = "";
  const char *Tag = "";    ///< Variant name, or empty.
  uint64_t Item = 0;       ///< Cell index (sweeps) or case index (fuzz).
  unsigned Lane = 0;       ///< Recording thread, numbered from 0.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t Calls = 0;      ///< > 0 marks a folded span.

  int64_t durationNs() const { return EndNs - StartNs; }
  bool folded() const { return Calls != 0; }
};

/// Thread-safe span sink. Ids start at 1 and are unique per tracer.
class Tracer {
public:
  /// RAII span: opened on construction, recorded on destruction.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Item, uint32_t Parent,
          const char *Tag = "");
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint32_t id() const { return S.Id; }
    int64_t startNs() const { return S.StartNs; }

  private:
    Tracer &T;
    Span S;
  };

  /// Records a folded span of \p Calls calls totalling \p Ns under
  /// \p Parent, which started at \p ParentStartNs.
  void addFolded(const char *Name, const char *Tag, uint64_t Item,
                 uint32_t Parent, int64_t ParentStartNs, int64_t Ns,
                 uint64_t Calls);

  std::vector<Span> spans() const;

private:
  void record(Span S);
  uint32_t nextId();

  mutable std::mutex Mu;
  std::vector<Span> Spans;                 ///< Guarded by Mu.
  std::map<std::thread::id, unsigned> Lanes; ///< Guarded by Mu.
  uint32_t LastId = 0;                     ///< Guarded by Mu.
};

/// Self time of each span, in nanoseconds, indexed like \p Spans: its
/// duration minus the part of its interval that its children cover.
/// Unfolded children are merged as intervals clipped to the parent;
/// folded children subtract their summed duration.
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Sum of self times by span name, in milliseconds. With \p ByTag, the key
/// is "<name>.<tag>" for tagged spans.
std::map<std::string, double>
selfMsByName(const std::vector<Span> &Spans,
             const std::vector<int64_t> &SelfNs, bool ByTag);

/// Writes \p Spans as JSON lines to \p Path. Returns false on I/O error.
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
