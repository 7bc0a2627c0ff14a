/// bfs-weak256 and bfs-kernel4: Graph500-style BFS over one R-MAT graph,
/// several variants, many roots. Every parent tree goes through
/// graph::validate_bfs_tree; later rounds must reproduce the validated
/// trees bit for bit (a tree that differs is validated again in full).

#include <cmath>
#include <iostream>
#include <memory>

#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "numasim/topology.hpp"
#include "rounds.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace numabfs;

struct Variant {
  std::string tag;  ///< gran / codec (1-D), hier / hier_codec (2-D)
  bool twod = false;
  bfs::Config cfg{};
  bfs2d::Bfs2dOptions opt2{};
};

struct BfsShape {
  int nodes = 1;
  int ppn = 1;
  int scale = 10;
  int edgefactor = 16;
  bool physical_alpha = false;  ///< true: bench_ablation_2d's cost model
  int roots = 4;
  int setup_reps = 3;
  double deadline_ms = 0;  ///< per-answer latency objective
  std::vector<Variant> variants;
};

Variant oned(const std::string& tag, const bfs::Config& c) {
  Variant v;
  v.tag = tag;
  v.cfg = c;
  return v;
}

Variant twod(const std::string& tag, bool codec) {
  Variant v;
  v.tag = tag;
  v.twod = true;
  v.opt2.hier = rt::coll_model::HierLevel::node;
  if (codec) {
    v.opt2.codec = bfs::CodecMode::gate;
    v.opt2.exchange_chunks = 4;
  }
  return v;
}

BfsShape shape_of(const Args& a) {
  BfsShape s;
  if (a.workload == "bfs-weak256") {
    // 64 nodes x ppn 4, weak-scaled like bench_ablation_2d (scale = 11 +
    // log2(np)), physical per-message alpha: the control collectives and
    // the thread-per-rank runtime dominate.
    s.nodes = a.small ? 16 : 64;
    s.ppn = 4;
    s.scale = a.small ? 15 : 19;
    s.edgefactor = 8;
    s.physical_alpha = true;
    s.roots = a.small ? 2 : 12;
    s.setup_reps = a.small ? 1 : 3;
    s.deadline_ms = 10;
    s.variants = {oned("gran", bfs::granularity(256)),
                  oned("codec", bfs::compressed(256, 4)),
                  twod("hier", false), twod("hier_codec", true)};
  } else {
    // 2 nodes x ppn 2 = 4 ranks, paper cache scaling: the kernels dominate.
    s.nodes = 2;
    s.ppn = 2;
    s.scale = a.small ? 14 : 19;
    s.edgefactor = 16;
    s.roots = a.small ? 2 : 12;
    s.setup_reps = a.small ? 1 : 3;
    s.deadline_ms = 100;
    s.variants = {oned("gran", bfs::granularity(256)),
                  oned("codec", bfs::compressed(256, 4)),
                  twod("hier", false)};
  }
  return s;
}

/// Everything the measured phase needs, built by one set-up pass.
struct Instance {
  graph::Csr csr;
  std::vector<graph::Vertex> roots;
  std::unique_ptr<rt::Cluster> cluster;
  std::unique_ptr<graph::DistGraph> dg;
  std::unique_ptr<bfs2d::DistGraph2d> d2;
  std::vector<std::unique_ptr<bfs::DistState>> states;  ///< per variant
  std::uint64_t fingerprint = 0;
};

struct SetupTimes {
  double rmat = 0, csr = 0, dist = 0, build2d = 0, total = 0;
};

std::unique_ptr<Instance> set_up(const BfsShape& s, std::uint64_t seed,
                                 Tracer& tr, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Instance>();
  graph::RmatParams rp;  // the workload's fixed graph (Graph500 seed)
  rp.scale = s.scale;
  rp.edgefactor = s.edgefactor;
  std::vector<graph::Edge> edges;
  {
    Scoped sp(tr, "graph.rmat", "graph");
    t.rmat = time_s([&] { edges = graph::rmat_edges(rp); });
  }
  {
    Scoped sp(tr, "graph.csr", "graph");
    t.csr = time_s(
        [&] { in->csr = graph::Csr::from_edges(rp.num_vertices(), edges); });
  }
  // Hashing the inputs and drawing roots are the benchmark's own work,
  // not set-up of the system under test.
  double hash_s = time_s([&] {
    std::uint64_t fp = mix(0, static_cast<std::uint64_t>(s.scale));
    for (const graph::Edge& e : edges) fp = mix(mix(fp, e.u), e.v);
    in->fingerprint = fp;
  });
  edges = {};
  // Roots come from the component of the highest-degree vertex. A root in
  // one of the few tiny components traverses a handful of edges, and its
  // near-zero TEPS alone would set the harmonic mean.
  hash_s += time_s([&] {
    graph::Vertex hub = 0;
    for (graph::Vertex v = 0; v < in->csr.num_vertices(); ++v)
      if (in->csr.degree(v) > in->csr.degree(hub)) hub = v;
    const graph::BfsTree giant = graph::reference_bfs(in->csr, hub);
    in->roots = pick_roots(
        [&](graph::Vertex v) { return giant.reached(v) ? in->csr.degree(v) : 0; },
        rp.num_vertices(), seed, s.roots);
    for (graph::Vertex r : in->roots) in->fingerprint = mix(in->fingerprint, r);
  });

  sim::CostParams cp;
  if (s.physical_alpha)
    cp.capacity_scale = static_cast<double>(1ull << 32) /
                        static_cast<double>(rp.num_vertices());
  else
    cp = cp.with_paper_cache_scaling(rp.num_vertices());
  {
    Scoped sp(tr, "runtime.cluster", "runtime");
    in->cluster = std::make_unique<rt::Cluster>(
        sim::Topology::xeon_x7550_cluster(s.nodes), cp, s.ppn);
  }
  const int np = in->cluster->nranks();
  {
    Scoped sp(tr, "graph.dist_build", "graph");
    t.dist = time_s([&] {
      in->dg = std::make_unique<graph::DistGraph>(graph::DistGraph::build(
          in->csr, graph::Partition1D(rp.num_vertices(), np)));
    });
  }
  bool any2d = false;
  for (const Variant& v : s.variants) any2d = any2d || v.twod;
  if (any2d) {
    Scoped sp(tr, "bfs2d.build", "bfs2d");
    t.build2d = time_s([&] {
      const auto grid = bfs2d::Grid2d::make(rp.num_vertices(), np, s.ppn);
      in->d2 = std::make_unique<bfs2d::DistGraph2d>(
          bfs2d::DistGraph2d::build(in->csr, grid));
    });
  }
  {
    Scoped sp(tr, "bfs.dist_state", "bfs");
    for (const Variant& v : s.variants)
      in->states.push_back(
          v.twod ? nullptr
                 : std::make_unique<bfs::DistState>(*in->dg, v.cfg, s.nodes,
                                                    s.ppn));
  }
  t.total = seconds_since(t0) - hash_s;
  return in;
}

/// One BFS answer as measured: the virtual-time result fields the metrics
/// use, its host time, and the digest of its validated parent tree.
struct Answer {
  double time_ns = 0;
  double teps = 0;
  double host_s = 0;
  std::uint64_t digest = 0;
  int levels = 0;
  sim::PhaseProfile prof;
  // 1-D level decisions
  int codec[3] = {0, 0, 0};
  std::uint64_t traversed = 0;
  // 2-D
  double expand_ns = 0, fold_ns = 0;
  std::uint64_t wire = 0, raw = 0;
};

std::uint64_t digest_of(const std::vector<graph::Vertex>& parent) {
  std::uint64_t h = 0;
  for (graph::Vertex p : parent) h = mix(h, p);
  return h;
}

}  // namespace

Sheet run_bfs_workload(const Args& args, Tracer& tr) {
  const BfsShape s = shape_of(args);
  const std::uint64_t seed = derive_seed(args.seed, args.workload);
  Sheet sheet;

  // --- set-up, several times; the last instance is kept ------------------
  tr.enable(args.trace);
  tr.set_phase("setup");
  std::vector<SetupTimes> st(static_cast<std::size_t>(s.setup_reps));
  std::unique_ptr<Instance> in;
  for (SetupTimes& t : st) {
    in.reset();
    in = set_up(s, seed, tr, t);
  }
  const auto med = [&](double SetupTimes::*f) {
    std::vector<double> v;
    for (const SetupTimes& t : st) v.push_back(t.*f);
    return median(v);
  };
  sheet.set_e2e("setup_s", med(&SetupTimes::total), "s");
  sheet.set_layer("graph.rmat_s", med(&SetupTimes::rmat), "s");
  sheet.set_layer("graph.csr_s", med(&SetupTimes::csr), "s");
  sheet.set_layer("graph.dist_build_s", med(&SetupTimes::dist), "s");
  sheet.set_layer("bfs2d.build_s", med(&SetupTimes::build2d), "s");
  sheet.input_fingerprint = in->fingerprint;

  probe_runtime(*in->cluster, sheet, tr);
  tr.enable(false);

  // --- measured rounds ---------------------------------------------------
  const std::size_t nv = s.variants.size();
  const std::size_t nr = in->roots.size();
  std::vector<std::vector<Answer>> first(nv);  // round 0, validated
  // host_s[variant][root]: that answer's host time in every round.
  std::vector<std::vector<std::vector<double>>> host_s(
      nv, std::vector<std::vector<double>>(in->roots.size()));
  double validate_s = 0;
  std::vector<graph::Vertex> parent;

  const auto check = [&](std::size_t vi, std::size_t ri, const Answer& a,
                         bool first_round) {
    ++sheet.attempted;
    const auto t0 = Clock::now();
    Scoped sp(tr, "bench.validate", "bench", ri);
    bool ok = true;
    std::string why;
    if (first_round || a.digest != first[vi][ri].digest) {
      const auto v = graph::validate_bfs_tree(in->csr, in->roots[ri], parent);
      ok = v.ok;
      why = v.error;
    }
    if (ok && !first_round && a.time_ns != first[vi][ri].time_ns) {
      ok = false;
      why = "virtual time differs from the first round (not bit-deterministic)";
    }
    if (!ok) {
      ++sheet.failed;
      std::cerr << "FAIL " << s.variants[vi].tag << " root " << in->roots[ri]
                << ": " << why << "\n";
    }
    validate_s += seconds_since(t0);
  };

  const auto round = [&](int index) {
    double wall = 0;
    for (std::size_t vi = 0; vi < nv; ++vi) {
      const Variant& var = s.variants[vi];
      for (std::size_t ri = 0; ri < nr; ++ri) {
        const graph::Vertex root = in->roots[ri];
        Answer a;
        if (!var.twod) {
          bfs::BfsRunResult r;
          {
            Scoped sp(tr, "bfs.run_bfs." + var.tag, "bfs", ri);
            a.host_s = time_s([&] {
              r = bfs::run_bfs(*in->cluster, *in->dg, *in->states[vi], root);
            });
          }
          {
            const auto t0 = Clock::now();
            parent = bfs::gather_parents(*in->dg, *in->states[vi]);
            validate_s += seconds_since(t0);
          }
          a.time_ns = r.time_ns;
          a.teps = r.teps();
          a.levels = r.levels;
          a.prof = r.profile_avg;
          a.traversed = r.traversed_directed_edges;
          for (const bfs::LevelTrace& lt : r.trace) {
            if (lt.exchange_codec >= 0 && lt.exchange_codec < 3)
              ++a.codec[lt.exchange_codec];
            a.wire += lt.wire_bytes;
            a.raw += lt.wire_raw_bytes;
          }
        } else {
          bfs2d::Bfs2dResult r;
          {
            Scoped sp(tr, "bfs2d.run_bfs_2d." + var.tag, "bfs2d", ri);
            a.host_s = time_s([&] {
              r = bfs2d::run_bfs_2d(*in->cluster, *in->d2, root, &parent,
                                    var.opt2);
            });
          }
          a.time_ns = r.time_ns;
          a.teps = r.teps();
          a.levels = r.levels;
          a.prof = r.profile_avg;
          a.traversed = r.traversed_directed_edges;
          a.expand_ns = r.expand_ns_per_level * r.levels;
          a.fold_ns = r.fold_ns_per_level * r.levels;
          for (const bfs2d::Level2dTrace& lt : r.trace) {
            a.wire += lt.wire_bytes();
            a.raw += lt.wire_raw_bytes();
          }
        }
        wall += a.host_s;
        host_s[vi][ri].push_back(a.host_s);
        {
          const auto t0 = Clock::now();
          a.digest = digest_of(parent);
          validate_s += seconds_since(t0);
        }
        check(vi, ri, a, index == 0);
        if (index == 0) first[vi].push_back(a);
      }
    }
    return wall;
  };
  const RoundTimes rt = run_rounds(args, tr, round);

  // --- end-to-end metrics (virtual ones from the validated first round) --
  const auto median_host_ms = [&](std::size_t vi) {
    std::vector<double> xs;
    for (const auto& per_root : host_s[vi])
      xs.insert(xs.end(), per_root.begin(), per_root.end());
    return median(xs) * 1e3;
  };
  std::cout << args.workload << ": " << s.nodes << " nodes x ppn " << s.ppn
            << ", R-MAT scale " << s.scale << " ef " << s.edgefactor << ", "
            << in->roots.size() << " roots per variant\n";
  // Each variant's answers form their own latency cluster, so percentiles
  // are taken per variant and combined by a geometric mean (a pooled
  // percentile would sit in the gap between two clusters).
  std::vector<double> teps, batch_ms;
  double log_p50 = 0, log_p95 = 0, answers = 0;
  int met = 0;
  double busy_s = 0;
  for (std::size_t vi = 0; vi < nv; ++vi) {
    double batch = 0;
    std::vector<double> lat_ms;
    for (const Answer& a : first[vi]) {
      teps.push_back(a.teps);
      lat_ms.push_back(a.time_ns / 1e6);
      batch += a.time_ns / 1e6;
      busy_s += a.time_ns * 1e-9;
      if (a.time_ns / 1e6 <= s.deadline_ms) ++met;
    }
    batch_ms.push_back(batch);
    std::vector<double> vt;
    for (const Answer& a : first[vi]) vt.push_back(a.teps);
    double vinv = 0;
    for (double x : vt) vinv += 1.0 / x;
    std::cout << "  " << s.variants[vi].tag << (s.variants[vi].twod ? " (2-D)" : " (1-D)")
              << ": " << static_cast<double>(vt.size()) / vinv / 1e9
              << " GTEPS, p50 " << percentile(lat_ms, 50) << " ms, p95 "
              << percentile(lat_ms, 95) << " ms (virtual); host "
              << median_host_ms(vi) << " ms per run\n";
    log_p50 += std::log(percentile(lat_ms, 50));
    log_p95 += std::log(percentile(lat_ms, 95));
    answers += static_cast<double>(lat_ms.size());
  }
  double inv = 0;
  for (double x : teps) inv += 1.0 / x;
  sheet.set_e2e("vgteps", static_cast<double>(teps.size()) / inv / 1e9,
                "GTEPS");
  sheet.set_e2e("serve_p50_ms", std::exp(log_p50 / nv), "ms");
  sheet.set_e2e("serve_p95_ms", std::exp(log_p95 / nv), "ms");
  sheet.set_e2e("analytics_p50_ms", median(batch_ms), "ms");
  sheet.set_e2e("slo_attainment", met / answers, "share");
  sheet.set_e2e("goodput_qps", met / busy_s, "queries/s");
  // One round's host time with each answer at its median over the rounds,
  // which filters host interference that hits a single round.
  double wall = 0;
  for (const auto& per_root : host_s)
    for (const auto& xs : per_root) wall += median(xs);
  sheet.set_e2e("wall_s", wall, "s");

  // --- per-layer metrics -------------------------------------------------
  for (std::size_t vi = 0; vi < nv; ++vi) {
    const Variant& var = s.variants[vi];
    const auto& as = first[vi];
    const double k = 1.0 / static_cast<double>(as.size());
    sim::PhaseProfile prof;
    double levels = 0, expand = 0, fold = 0;
    std::uint64_t wire = 0, raw = 0, traversed = 0;
    int codec[3] = {0, 0, 0};
    for (const Answer& a : as) {
      prof += a.prof;
      levels += a.levels;
      expand += a.expand_ns;
      fold += a.fold_ns;
      wire += a.wire;
      raw += a.raw;
      traversed += a.traversed;
      for (int c = 0; c < 3; ++c) codec[c] += a.codec[c];
    }
    const auto ms = [&](sim::Phase p) { return prof.get(p) * k / 1e6; };
    const auto& cnt = prof.counters();
    const double reduction =
        wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 1.0;
    if (!var.twod) {
      const std::string p = "bfs." + var.tag + ".";
      sheet.set_layer(p + "host_ms", median_host_ms(vi), "ms");
      sheet.set_layer(p + "vt_td_comp_ms", ms(sim::Phase::td_comp), "ms");
      sheet.set_layer(p + "vt_td_comm_ms", ms(sim::Phase::td_comm), "ms");
      sheet.set_layer(p + "vt_bu_comp_ms", ms(sim::Phase::bu_comp), "ms");
      sheet.set_layer(p + "vt_bu_comm_ms", ms(sim::Phase::bu_comm), "ms");
      sheet.set_layer(p + "vt_switch_ms", ms(sim::Phase::switch_conv), "ms");
      sheet.set_layer(p + "vt_stall_ms", ms(sim::Phase::stall), "ms");
      sheet.set_layer(p + "vt_other_ms", ms(sim::Phase::other), "ms");
      // profile_avg sums counters over ranks; bytes are per run here.
      sheet.set_layer(p + "inter_node_mb",
                      static_cast<double>(cnt.bytes_inter_node) * k / 1e6,
                      "MB");
      sheet.set_layer(p + "wire_reduction", reduction, "ratio");
      sheet.set_layer(p + "summary_skip_rate",
                      cnt.summary_probes
                          ? static_cast<double>(cnt.summary_zero_skips) /
                                static_cast<double>(cnt.summary_probes)
                          : 0.0,
                      "share");
      sheet.set_layer(p + "scan_per_traversed",
                      traversed ? static_cast<double>(cnt.edges_scanned) /
                                      static_cast<double>(traversed)
                                : 0.0,
                      "ratio");
      sheet.set_layer(p + "levels", levels * k, "count");
      sheet.set_layer(p + "codec_raw", codec[0], "count");
      sheet.set_layer(p + "codec_sparse", codec[1], "count");
      sheet.set_layer(p + "codec_dense", codec[2], "count");
    } else {
      const std::string p = "bfs2d." + var.tag + ".";
      sheet.set_layer(p + "host_ms", median_host_ms(vi), "ms");
      sheet.set_layer(p + "vt_expand_ms", expand * k / 1e6, "ms");
      sheet.set_layer(p + "vt_fold_ms", fold * k / 1e6, "ms");
      sheet.set_layer(p + "vt_comp_ms",
                      ms(sim::Phase::td_comp) + ms(sim::Phase::bu_comp), "ms");
      sheet.set_layer(p + "vt_stall_ms", ms(sim::Phase::stall), "ms");
      sheet.set_layer(p + "wire_mb", static_cast<double>(wire) * k / 1e6,
                      "MB");
      sheet.set_layer(p + "wire_reduction", reduction, "ratio");
      sheet.set_layer(p + "levels", levels * k, "count");
    }
  }
  sim::Counters total;
  for (const auto& as : first)
    for (const Answer& a : as) total += a.prof.counters();
  sheet.set_layer("faults.retransmits", static_cast<double>(total.retransmits),
                  "count");
  sheet.set_layer("faults.recv_timeouts",
                  static_cast<double>(total.recv_timeouts), "count");
  sheet.set_layer("faults.adoptions", static_cast<double>(total.adoptions),
                  "count");
  sheet.set_layer("bench.validate_s", validate_s, "s");
  record_trace_shares(sheet, tr, rt);
  return sheet;
}

}  // namespace perfbench
