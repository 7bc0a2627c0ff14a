#pragma once
/// \file support.hpp
/// Shared pieces of the repo benchmark program: command line, host clocks,
/// the in-memory span recorder of traced runs, the metric sheet printed as
/// the final JSON line, and the small statistics helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace perfbench {

// --- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Reduced input sizes (the determinism test; not a benchmark workload).
  bool small = false;
  /// Optional path of a JSON file with every metric of both sets plus the
  /// input fingerprint (the determinism test reads it).
  std::string dump;
  /// Directory the traced run writes its span dump into.
  std::string out_dir = ".bench_out";
};

/// Parses `--key value` pairs; throws std::invalid_argument on anything
/// unknown or malformed.
Args parse_args(int argc, char** argv);

// --- host clock -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host wall time of one call, in seconds.
template <class F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

// --- spans of the traced run ------------------------------------------------

/// One host-time interval around a call into a layer. `id` groups the
/// spans of one BFS root or one served dispatch; `parent` is the index of
/// the enclosing span (-1 for a root span).
struct Span {
  std::string name;
  std::string layer;
  std::string phase;  ///< setup | probe | measure
  std::uint64_t id = 0;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

/// Spans kept in memory and written once at exit. When disabled every call
/// is a cheap no-op, so the untraced rounds pay only a branch.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  void set_phase(std::string phase) { phase_ = std::move(phase); }

  /// Open a span under the innermost open span; returns its index (-1 when
  /// tracing is off).
  int open(std::string name, std::string layer, std::uint64_t id = 0);
  /// Close span `idx` (and pop it when it is the innermost open span).
  void close(int idx);
  void rename(int idx, std::string name) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].name = std::move(name);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per (phase, layer): each span's duration minus the part of
  /// it its direct children cover.
  std::map<std::pair<std::string, std::string>, double> self_times() const;

  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::string phase_ = "setup";
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span for calls that nest cleanly.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name, std::string layer, std::uint64_t id = 0)
      : t_(t), idx_(t.open(std::move(name), std::move(layer), id)) {}
  ~Scoped() { t_.close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// --- metric sheet -------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Every metric a workload measured, in both sets (end-to-end and
/// per-layer), plus the answer counts behind the correctness gate.
struct Sheet {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hash of every generated input (graph, roots, query stream, ingest
  /// stream): equal seeds must give equal fingerprints.
  std::uint64_t input_fingerprint = 0;

  void set_e2e(const std::string& k, double v, const std::string& unit) {
    e2e[k] = {v, unit};
  }
  void set_layer(const std::string& k, double v, const std::string& unit) {
    layer[k] = {v, unit};
  }
};

/// Fills every per-layer metric the workload does not exercise with 0, so
/// each workload reports the full per-layer set.
void zero_fill_layers(Sheet& s);

// --- statistics -----------------------------------------------------------------

/// Linear-interpolated percentile (p in [0,100]); +inf entries sort last
/// and are kept, so a shed query can set a high percentile to +inf.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// FNV-1a style 64-bit mixing, for input fingerprints and answer digests.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0x100000001b3ull;
}

/// Distinct degree > 0 vertices drawn from `seed` (Graph500 root rule).
std::vector<numabfs::graph::Vertex> pick_roots(
    const std::function<std::uint64_t(numabfs::graph::Vertex)>& degree,
    std::uint64_t n, std::uint64_t seed, int count);

/// Workload seed mixed with a per-workload salt (so two workloads never
/// share a graph for the same --seed).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& salt);

}  // namespace perfbench
