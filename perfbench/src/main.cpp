/// perfbench: the repo benchmark program. One process runs one workload:
///
///   perfbench --workload <bfs-weak256|bfs-kernel4|serve-rw> --seed <n>
///             --seconds <s> --trace <0|1> [--small] [--dump <path>]
///
/// It builds the workload's inputs from the seed, times set-up, calibrates
/// the runtime, runs the measured rounds for --seconds, validates every
/// answer, and prints the metrics. The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1 (a traced run also
/// writes its span dump and prints the per-layer self-time table). Exit
/// status is 1 when any answer failed validation, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "catalog.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& ms) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [k, m] : ms) {
    o << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << num(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}";
  return o.str();
}

/// The sheet must carry exactly the catalog's names and units.
void check_catalog(const std::map<std::string, Metric>& ms,
                   const std::vector<MetricDef>& cat, const char* set) {
  bool ok = ms.size() == cat.size();
  for (const MetricDef& d : cat) {
    const auto it = ms.find(d.name);
    ok = ok && it != ms.end() && it->second.unit == d.unit;
  }
  if (!ok)
    throw std::logic_error(std::string("the ") + set +
                           " metrics differ from the catalog");
}

void print_self_times(const Tracer& tr, const Sheet& sheet) {
  const auto self = tr.self_times();
  std::map<std::string, double> phase_total;
  for (const auto& [key, v] : self) phase_total[key.first] += v;
  std::cout << "\nper-layer self time of the traced run (host):\n"
            << "  phase    layer    self_s      share_of_phase\n";
  for (const auto& [key, v] : self) {
    const double tot = phase_total[key.first];
    char line[160];
    std::snprintf(line, sizeof line, "  %-8s %-8s %-11.6f %6.2f%%\n",
                  key.first.c_str(), key.second.c_str(), v,
                  tot > 0 ? 100.0 * v / tot : 0.0);
    std::cout << line;
  }
  std::cout << "  measure-phase shares of wall_s:";
  for (const std::string& l : measured_layers())
    std::cout << " " << l << "="
              << sheet.layer.at("wall_share." + l + "_pct").value << "%";
  std::cout << "\n  (runtime and numasim costs sit inside the bfs, bfs2d and "
               "engine spans; see perfbench/README.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    if (args.workload != "bfs-weak256" && args.workload != "bfs-kernel4" &&
        args.workload != "serve-rw")
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  Tracer tracer;
  Sheet sheet = args.workload == "serve-rw" ? run_serve_workload(args, tracer)
                                            : run_bfs_workload(args, tracer);
  sheet.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.set_e2e("pass_rate",
                sheet.attempted ? static_cast<double>(sheet.attempted -
                                                      sheet.failed) /
                                      static_cast<double>(sheet.attempted)
                                : 0.0,
                "share");
  zero_fill_layers(sheet);
  check_catalog(sheet.e2e, e2e_catalog(), "end-to-end");
  check_catalog(sheet.layer, layer_catalog(), "per-layer");
  const bool correct = sheet.failed == 0 && sheet.attempted > 0;

  std::cout << "workload " << args.workload << ", seed " << args.seed
            << ", input fingerprint " << std::hex << sheet.input_fingerprint
            << std::dec << "\n";
  if (args.trace) {
    print_self_times(tracer, sheet);
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (tracer.write(path))
      std::cout << "wrote " << path << " (" << tracer.spans().size()
                << " spans)\n";
    else
      std::cerr << "failed to write " << path << "\n";
  }
  if (!args.dump.empty()) {
    std::ofstream f(args.dump);
    f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"input_fingerprint\": \"" << std::hex << sheet.input_fingerprint
      << std::dec << "\", \"attempted\": " << sheet.attempted
      << ", \"failed\": " << sheet.failed
      << ", \"e2e\": " << metrics_json(sheet.e2e)
      << ", \"layer\": " << metrics_json(sheet.layer) << "}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << sheet.attempted
            << ", \"failed\": " << sheet.failed << ", \"metrics\": "
            << metrics_json(args.trace ? sheet.layer : sheet.e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
