#pragma once
/// \file catalog.hpp
/// The benchmark's metric catalog: every end-to-end and per-layer metric
/// with its unit. BENCHMARK.json lists the same names; perfbench refuses
/// to print a sheet whose names differ from this list, and the determinism
/// test checks this list against BENCHMARK.json.

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (printed with --trace 0).
inline std::vector<MetricDef> e2e_catalog() {
  return {
      {"vgteps", "GTEPS"},
      {"serve_p50_ms", "ms"},
      {"serve_p95_ms", "ms"},
      {"analytics_p50_ms", "ms"},
      {"slo_attainment", "share"},
      {"goodput_qps", "queries/s"},
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"pass_rate", "share"},
  };
}

/// 1-D variant tags and 2-D variant tags of the per-layer BFS metrics.
inline const std::vector<std::string>& oned_tags() {
  static const std::vector<std::string> t = {"gran", "codec"};
  return t;
}
inline const std::vector<std::string>& twod_tags() {
  static const std::vector<std::string> t = {"hier", "hier_codec"};
  return t;
}

/// Layers whose self time is reported as a share of the traced wall time.
inline const std::vector<std::string>& measured_layers() {
  static const std::vector<std::string> t = {"bfs", "bfs2d", "engine", "dyn"};
  return t;
}

/// Per-layer metrics (printed with --trace 1).
inline std::vector<MetricDef> layer_catalog() {
  std::vector<MetricDef> c = {
      {"graph.rmat_s", "s"},
      {"graph.csr_s", "s"},
      {"graph.dist_build_s", "s"},
      {"bfs2d.build_s", "s"},
      {"runtime.null_run_us", "us"},
      {"runtime.allreduce_us", "us"},
  };
  for (const std::string& v : oned_tags()) {
    const std::string p = "bfs." + v + ".";
    for (const char* k :
         {"host_ms", "vt_td_comp_ms", "vt_td_comm_ms", "vt_bu_comp_ms",
          "vt_bu_comm_ms", "vt_switch_ms", "vt_stall_ms", "vt_other_ms"})
      c.push_back({p + k, "ms"});
    c.push_back({p + "inter_node_mb", "MB"});
    c.push_back({p + "wire_reduction", "ratio"});
    c.push_back({p + "summary_skip_rate", "share"});
    c.push_back({p + "scan_per_traversed", "ratio"});
    c.push_back({p + "levels", "count"});
    c.push_back({p + "codec_raw", "count"});
    c.push_back({p + "codec_sparse", "count"});
    c.push_back({p + "codec_dense", "count"});
  }
  for (const std::string& v : twod_tags()) {
    const std::string p = "bfs2d." + v + ".";
    for (const char* k :
         {"host_ms", "vt_expand_ms", "vt_fold_ms", "vt_comp_ms", "vt_stall_ms"})
      c.push_back({p + k, "ms"});
    c.push_back({p + "wire_mb", "MB"});
    c.push_back({p + "wire_reduction", "ratio"});
    c.push_back({p + "levels", "count"});
  }
  const std::vector<MetricDef> rest = {
      {"engine.wave_host_ms", "ms"},
      {"engine.waves", "count"},
      {"engine.program_runs", "count"},
      {"engine.levels", "count"},
      {"engine.lanes_per_wave", "share"},
      {"engine.busy_ms", "ms"},
      {"engine.queue_wait_p50_ms", "ms"},
      {"engine.queue_wait_p95_ms", "ms"},
      {"frontdoor.failovers", "count"},
      {"frontdoor.failover_blip_ms", "ms"},
      {"frontdoor.degraded", "count"},
      {"frontdoor.shed", "count"},
      {"frontdoor.backpressured", "count"},
      {"frontdoor.recoveries", "count"},
      {"dyn.ingest_ms", "ms"},
      {"dyn.compact_ms", "ms"},
      {"dyn.pin_ms", "ms"},
      {"dyn.epochs", "count"},
      {"dyn.compactions", "count"},
      {"dyn.fill_max", "share"},
      {"dyn.read_amp", "ratio"},
      {"dyn.pause_ms", "ms"},
      {"dyn.pin_vt_ms", "ms"},
      {"faults.retransmits", "count"},
      {"faults.recv_timeouts", "count"},
      {"faults.adoptions", "count"},
      {"bench.validate_s", "s"},
      {"bench.trace_overhead_pct", "%"},
  };
  c.insert(c.end(), rest.begin(), rest.end());
  for (const std::string& l : measured_layers())
    c.push_back({"wall_share." + l + "_pct", "%"});
  return c;
}

}  // namespace perfbench
