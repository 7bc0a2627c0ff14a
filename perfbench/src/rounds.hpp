#pragma once
/// \file rounds.hpp
/// The measured phase shared by every workload: repeat one fixed round of
/// work until the run's --seconds are used up, and keep the host wall time
/// of each round. A round's answers are identical every time (the
/// simulator is bit-deterministic), so virtual-time metrics come from the
/// first round and host-time metrics from the median round.
///
/// In a traced run (--trace 1) rounds alternate between tracing off and
/// on; the untraced rounds give the baseline the tracing overhead is
/// measured against, and only the traced rounds record spans.

#include <functional>
#include <iostream>
#include <vector>

#include "catalog.hpp"
#include "support.hpp"

namespace perfbench {

struct RoundTimes {
  std::vector<double> untraced_s;  ///< measured wall per untraced round
  std::vector<double> traced_s;    ///< measured wall per traced round
};

/// `round(index)` runs round `index` and returns its measured wall seconds
/// (validation excluded). At least `min_rounds` untraced rounds run (and as
/// many traced ones in a traced run), then rounds continue until
/// `seconds` of host time have passed since the call.
inline RoundTimes run_rounds(const Args& args, Tracer& tracer,
                             const std::function<double(int)>& round,
                             int min_rounds = 3) {
  RoundTimes rt;
  const auto t0 = Clock::now();
  tracer.set_phase("measure");
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const int done_untraced = static_cast<int>(rt.untraced_s.size());
    const int done_traced = static_cast<int>(rt.traced_s.size());
    const bool enough = done_untraced >= min_rounds &&
                        (!args.trace || done_traced >= min_rounds);
    if (enough && seconds_since(t0) >= args.seconds) break;
    tracer.enable(traced);
    const double w = round(i);
    tracer.enable(false);
    (traced ? rt.traced_s : rt.untraced_s).push_back(w);
  }
  std::cerr << "measured rounds (s):";
  for (double w : rt.untraced_s) std::cerr << " " << w;
  if (!rt.traced_s.empty()) {
    std::cerr << "; traced:";
    for (double w : rt.traced_s) std::cerr << " " << w;
  }
  std::cerr << "\n";
  return rt;
}

/// Per-layer self-time shares of the traced rounds' wall time, and the
/// tracing overhead, added to `sheet`.
inline void record_trace_shares(Sheet& sheet, const Tracer& tracer,
                                const RoundTimes& rt) {
  double traced_wall = 0;
  for (double w : rt.traced_s) traced_wall += w;
  const auto self = tracer.self_times();
  for (const std::string& l : measured_layers()) {
    const auto it = self.find({"measure", l});
    const double s = it == self.end() ? 0.0 : it->second;
    sheet.set_layer("wall_share." + l + "_pct",
                    traced_wall > 0 ? 100.0 * s / traced_wall : 0.0, "%");
  }
  if (!rt.traced_s.empty() && !rt.untraced_s.empty()) {
    const double base = median(rt.untraced_s);
    sheet.set_layer("bench.trace_overhead_pct",
                    100.0 * (median(rt.traced_s) - base) / base, "%");
  }
}

}  // namespace perfbench
