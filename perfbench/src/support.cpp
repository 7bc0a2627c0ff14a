#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "catalog.hpp"
#include "graph/rmat.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  const auto number = [](const std::string& key, const std::string& v) {
    std::size_t used = 0;
    double d = 0;
    try {
      d = std::stod(v, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != v.size() || !std::isfinite(d) || d < 0)
      throw std::invalid_argument("--" + key + ": expected a number >= 0, got '" +
                                  v + "'");
    return d;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--small") {
      a.small = true;
      continue;
    }
    if (k.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected '--key value', got '" + k + "'");
    const std::string key = k.substr(2);
    const std::string v = argv[++i];
    if (key == "workload") {
      a.workload = v;
    } else if (key == "seed") {
      const double d = number(key, v);
      if (d != std::floor(d) || d > 9.0e15)
        throw std::invalid_argument("--seed: expected a whole number");
      a.seed = static_cast<std::uint64_t>(d);
    } else if (key == "seconds") {
      a.seconds = number(key, v);
    } else if (key == "trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace: expected 0 or 1");
      a.trace = v == "1";
    } else if (key == "dump") {
      a.dump = v;
    } else if (key == "out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Tracer -----------------------------------------------------------------

int Tracer::open(std::string name, std::string layer, std::uint64_t id) {
  if (!on_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.phase = phase_;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  const auto it = std::find(stack_.begin(), stack_.end(), idx);
  if (it != stack_.end()) stack_.erase(it);
}

std::map<std::pair<std::string, std::string>, double> Tracer::self_times()
    const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::pair<std::string, std::string>, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[{s.phase, s.layer}] += std::max(0.0, s.end_s - s.start_s - child[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"schema\":\"perfbench.spans.v1\",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"i\":" << i << ",\"name\":\"" << s.name
      << "\",\"layer\":\"" << s.layer << "\",\"phase\":\"" << s.phase
      << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"start_us\":" << s.start_s * 1e6 << ",\"end_us\":" << s.end_s * 1e6
      << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// --- sheet / stats --------------------------------------------------------------

void zero_fill_layers(Sheet& s) {
  for (const MetricDef& d : layer_catalog())
    if (s.layer.find(d.name) == s.layer.end()) s.layer[d.name] = {0.0, d.unit};
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double idx = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(xs.size() - 1);
  const auto lo = std::min(static_cast<std::size_t>(idx), xs.size() - 2);
  const double frac = idx - static_cast<double>(lo);
  if (frac == 0.0) return xs[lo];
  if (std::isinf(xs[lo + 1])) return xs[lo + 1];
  return xs[lo] + (xs[lo + 1] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

std::vector<numabfs::graph::Vertex> pick_roots(
    const std::function<std::uint64_t(numabfs::graph::Vertex)>& degree,
    std::uint64_t n, std::uint64_t seed, int count) {
  std::vector<numabfs::graph::Vertex> roots;
  std::uint64_t probe = seed;
  for (std::uint64_t attempt = 1;
       roots.size() < static_cast<std::size_t>(count) &&
       attempt < 64ull * static_cast<std::uint64_t>(count) + 1024;
       ++attempt) {
    probe = numabfs::graph::splitmix64(probe + attempt);
    const auto v = static_cast<numabfs::graph::Vertex>(probe % n);
    if (degree(v) == 0) continue;
    if (std::find(roots.begin(), roots.end(), v) == roots.end())
      roots.push_back(v);
  }
  if (roots.size() < static_cast<std::size_t>(count))
    throw std::runtime_error("pick_roots: not enough searchable roots");
  return roots;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : salt) h = mix(h, static_cast<unsigned char>(c));
  return numabfs::graph::splitmix64(mix(h, seed));
}

}  // namespace perfbench
