/// serve-rw: a FrontDoor over two replicas serving a seeded open-loop query
/// mix while edge-ingest writes arrive beside the reads through the
/// graph_source hook. Replica 0 dies at a fixed virtual instant. The mix
/// runs at two fixed arrival gaps: nominal (latency) and overload
/// (goodput).
///
/// Correctness gate: every finished wave lane is digested in the sink and,
/// after the phase, checked against graph::reference_bfs on an
/// independently replayed copy of the graph at the lane's pinned epoch
/// (base edges plus the ingest op stream, last write wins); every analytics
/// answer is checked against graph/reference_algos at its epoch. Later
/// rounds must reproduce the validated digests and values exactly.

#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "engine/frontdoor.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/csr.hpp"
#include "graph/dynamic/compactor.hpp"
#include "graph/dynamic/ingest.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/reference_algos.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "numasim/topology.hpp"
#include "rounds.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace numabfs;

struct ServeShape {
  int scale = 15;
  int edgefactor = 16;
  int nodes = 2;
  int ppn = 2;
  int replicas = 2;
  int queries = 240;             ///< nominal phase
  int overload_queries = 240;    ///< overload phase
  double nominal_gap_ns = 2e6;   ///< arrival gap below capacity
  double overload_gap_ns = 2e5;  ///< arrival gap above capacity
  int max_batch = 16;
  std::uint64_t ingest_ops = 2000;  ///< ops per sealed epoch
  double ingest_every_ns = 10e6;    ///< epoch cadence (virtual)
  double fill_trigger = 0.10;       ///< compaction at this delta fill
  double outage_frac = 0.4;  ///< replica-0 outage at frac * queries * gap
  int setup_reps = 3;
};

ServeShape shape_of(const Args& a) {
  ServeShape s;
  if (a.small) {
    s.scale = 12;
    s.queries = 96;
    s.overload_queries = 48;
    s.ingest_ops = 500;
    s.setup_reps = 1;
  }
  return s;
}

struct Phase {
  std::string name;
  double gap_ns = 0;
  double outage_ns = 0;
  std::vector<engine::Query> queries;
  std::vector<std::vector<dyn::EdgeOp>> batches;  ///< epoch e = batches[e-1]
  std::unique_ptr<dyn::IngestGenerator> gen;      ///< source of `batches`
};

/// One finished wave lane, as digested in the sink.
struct LaneRecord {
  std::uint64_t epoch = 0;
  engine::WaveQuery q;
  std::uint64_t digest = 0;  ///< distances (full / k-hop) or 0
  bool reached = false;      ///< st verdict
  bool operator==(const LaneRecord& o) const {
    return epoch == o.epoch && q.kind == o.q.kind && q.source == o.q.source &&
           q.target == o.q.target && q.k == o.q.k && digest == o.digest &&
           reached == o.reached;
  }
};

std::uint64_t lane_digest(const std::vector<engine::Dist>& d) {
  std::uint64_t h = 0;
  for (engine::Dist x : d) h = mix(h, x);
  return h;
}

/// What one phase of one round produced.
struct PhaseRun {
  engine::FrontDoorReport rep;
  std::vector<LaneRecord> lanes;
  std::vector<double> wave_ns;         ///< per wave (sink order)
  std::vector<double> wave_host_s;     ///< graph_source return -> sink
  int lanes_total = 0;
  std::uint64_t delta_probes = 0, edges_scanned = 0;
  double wall_s = 0;      ///< serve() minus validation and load generation
  double validate_s = 0;  ///< sink-side digesting
  std::vector<double> ingest_s, compact_s, pin_s;
  std::uint64_t epochs = 0, compactions = 0;
  double fill_max = 0, pause_ns = 0, pin_vt_ns = 0;
};

/// The graph at any epoch, replayed from the base edge set and the ingest
/// stream independently of the dynamic layer.
class Replay {
 public:
  Replay(const graph::Csr& base, const std::vector<std::vector<dyn::EdgeOp>>& b)
      : n_(base.num_vertices()), batches_(b) {
    for (graph::Vertex u = 0; u < n_; ++u)
      for (graph::Vertex v : base.neighbors(u))
        if (u < v) edges_.insert(key(u, v));
  }
  /// Canonical CSR at `epoch` (epochs must be requested in ascending order).
  graph::Csr at(std::uint64_t epoch) {
    while (applied_ < epoch) {
      for (const dyn::EdgeOp& op : batches_[applied_]) {
        if (op.u == op.v || op.u >= n_ || op.v >= n_) continue;
        const auto k = key(std::min(op.u, op.v), std::max(op.u, op.v));
        if (op.remove)
          edges_.erase(k);
        else
          edges_.insert(k);
      }
      ++applied_;
    }
    std::vector<graph::Edge> es;
    es.reserve(edges_.size());
    for (std::uint64_t k : edges_)
      es.push_back({static_cast<graph::Vertex>(k >> 32),
                    static_cast<graph::Vertex>(k & 0xffffffffu)});
    // The set holds each undirected edge once, so no dedup pass is needed;
    // row order does not affect any reference answer.
    return graph::Csr::from_edges(n_, es);
  }

 private:
  static std::uint64_t key(graph::Vertex u, graph::Vertex v) {
    return static_cast<std::uint64_t>(u) << 32 | v;
  }
  std::uint64_t n_;
  const std::vector<std::vector<dyn::EdgeOp>>& batches_;
  std::uint64_t applied_ = 0;
  std::unordered_set<std::uint64_t> edges_;
};

bool is_program(engine::QueryKind k) {
  return k == engine::QueryKind::sssp || k == engine::QueryKind::pagerank ||
         k == engine::QueryKind::components ||
         k == engine::QueryKind::triangles;
}

bool interactive(engine::SloClass c) {
  return c != engine::SloClass::analytics;
}

/// The query stream of one phase: an open loop with one arrival every
/// `gap_ns`. Kinds follow a fixed mix per block of 24 queries (6 s-t
/// reachability, 6 k-hop, 2 analytics, 10 full-distance) in a seeded order;
/// analytics rotate through SSSP, PageRank, components and triangles.
/// Sources and targets are seeded draws over degree > 0 vertices.
std::vector<engine::Query> make_queries(const graph::DistGraph& dg, int n,
                                        double gap_ns, std::uint64_t seed) {
  using engine::QueryKind;
  std::vector<QueryKind> block;
  block.insert(block.end(), 6, QueryKind::st_reachability);
  block.insert(block.end(), 6, QueryKind::k_hop);
  block.insert(block.end(), 2, QueryKind::sssp);  // analytics slots
  block.insert(block.end(), 10, QueryKind::full_distances);
  const QueryKind programs[] = {QueryKind::sssp, QueryKind::pagerank,
                                QueryKind::components, QueryKind::triangles};
  std::uint64_t x = graph::splitmix64(seed);
  const auto next = [&x] { return x = graph::splitmix64(x + 1); };
  const auto degree = [&dg](graph::Vertex v) {
    const int r = dg.part.owner(v);
    return dg.locals[static_cast<std::size_t>(r)].degree(v - dg.part.begin(r));
  };
  const auto vertex = [&] {
    for (;;) {
      const auto v = static_cast<graph::Vertex>(next() % dg.n);
      if (degree(v) > 0) return v;
    }
  };
  std::vector<engine::Query> qs;
  int program = 0;
  std::vector<QueryKind> order;
  for (int i = 0; i < n; ++i) {
    if (order.empty()) {
      order = block;
      for (std::size_t j = order.size() - 1; j > 0; --j)
        std::swap(order[j], order[next() % (j + 1)]);
    }
    engine::Query q;
    q.id = i;
    q.kind = order.back();
    order.pop_back();
    if (q.kind == QueryKind::sssp) q.kind = programs[program++ % 4];
    q.arrival_ns = gap_ns * i;
    q.source = vertex();
    if (q.kind == QueryKind::st_reachability || q.kind == QueryKind::sssp)
      q.target = vertex();
    if (q.kind == QueryKind::k_hop) q.k = 2 + static_cast<int>(next() % 3);
    qs.push_back(q);
  }
  return qs;
}

}  // namespace

Sheet run_serve_workload(const Args& args, Tracer& tr) {
  const ServeShape s = shape_of(args);
  const std::uint64_t seed = derive_seed(args.seed, args.workload);
  Sheet sheet;

  // --- set-up --------------------------------------------------------------
  tr.enable(args.trace);
  tr.set_phase("setup");
  graph::RmatParams rp;  // the workload's fixed graph (Graph500 seed)
  rp.scale = s.scale;
  rp.edgefactor = s.edgefactor;
  const graph::Partition1D part(rp.num_vertices(), s.nodes * s.ppn);
  const sim::CostParams cp =
      sim::CostParams{}.with_paper_cache_scaling(rp.num_vertices());
  const bfs::Config cfg = bfs::share_all();

  graph::Csr base;
  std::unique_ptr<graph::DistGraph> dg0;
  std::vector<std::unique_ptr<rt::Cluster>> clusters;
  std::vector<Phase> phases;
  std::vector<double> setup_s, rmat_s, csr_s, dist_s;
  for (int rep = 0; rep < s.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    std::vector<graph::Edge> edges;
    {
      Scoped sp(tr, "graph.rmat", "graph");
      rmat_s.push_back(time_s([&] { edges = graph::rmat_edges(rp); }));
    }
    {
      Scoped sp(tr, "graph.csr", "graph");
      csr_s.push_back(time_s([&] {
        base = graph::Csr::from_edges(rp.num_vertices(), edges,
                                      graph::EdgePolicy::sorted_dedup);
      }));
    }
    {
      Scoped sp(tr, "graph.dist_build", "graph");
      dist_s.push_back(time_s([&] {
        dg0 = std::make_unique<graph::DistGraph>(
            graph::DistGraph::build(base, part));
      }));
    }
    {
      Scoped sp(tr, "runtime.cluster", "runtime");
      clusters.clear();
      for (int r = 0; r < s.replicas; ++r)
        clusters.push_back(std::make_unique<rt::Cluster>(
            sim::Topology::xeon_x7550_cluster(s.nodes), cp, s.ppn));
    }
    {
      // The dynamic layer's set-up cost: one manager over the base (each
      // phase of each round starts from a fresh one, outside the timings).
      Scoped sp(tr, "dyn.snapshot_manager", "dyn");
      dyn::SnapshotManager probe(*clusters[0], base, part);
    }
    // Inputs: two query streams and one ingest stream. They are the load
    // generator's work, not set-up of the system under test.
    setup_s.push_back(seconds_since(t0));
    phases.clear();
    const std::pair<const char*, double> gaps[] = {
        {"nominal", s.nominal_gap_ns}, {"overload", s.overload_gap_ns}};
    for (const auto& [name, gap] : gaps) {
      const int n_queries =
          gap == s.nominal_gap_ns ? s.queries : s.overload_queries;
      Phase ph;
      ph.name = name;
      ph.gap_ns = gap;
      ph.outage_ns = std::round(s.outage_frac * n_queries * gap);
      ph.queries = make_queries(*dg0, n_queries, gap,
                                seed ^ (gap == s.nominal_gap_ns ? 0x6e6f6dull
                                                                : 0x6f766cull));
      dyn::IngestConfig ic;
      ic.base = rp;
      ic.seed = seed ^ 0xd1a5ull;
      ph.gen = std::make_unique<dyn::IngestGenerator>(ic);
      // Enough epochs for twice the arrival span; extended on demand.
      const auto epochs = static_cast<std::size_t>(
          2.0 * n_queries * gap / s.ingest_every_ns + 8);
      for (std::size_t e = 0; e < epochs; ++e)
        ph.batches.push_back(ph.gen->next_batch(s.ingest_ops));
      phases.push_back(std::move(ph));
    }
  }
  sheet.set_e2e("setup_s", median(setup_s), "s");
  sheet.set_layer("graph.rmat_s", median(rmat_s), "s");
  sheet.set_layer("graph.csr_s", median(csr_s), "s");
  sheet.set_layer("graph.dist_build_s", median(dist_s), "s");
  {
    std::uint64_t fp = mix(0, static_cast<std::uint64_t>(s.scale));
    for (graph::Vertex u = 0; u < base.num_vertices(); ++u)
      fp = mix(fp, base.degree(u));
    for (const Phase& ph : phases) {
      for (const engine::Query& q : ph.queries)
        fp = mix(mix(mix(fp, q.source), q.target),
                 static_cast<std::uint64_t>(q.arrival_ns));
      for (const dyn::EdgeOp& op : ph.batches.front())
        fp = mix(mix(fp, op.u), op.v);
    }
    sheet.input_fingerprint = fp;
  }
  probe_runtime(*clusters[0], sheet, tr);
  tr.enable(false);

  // --- one phase of one round -----------------------------------------------
  engine::FrontDoorConfig fdc0;
  fdc0.max_batch = s.max_batch;
  // Interactive deadlines sized for this graph: an interactive query that
  // lands behind an analytics run on the surviving replica still meets
  // its deadline at the nominal rate; at the overload rate the backlog
  // misses them.
  fdc0.slo.khop_ns = 30e6;
  fdc0.slo.reach_ns = 25e6;
  const auto run_phase = [&](Phase& ph, std::uint64_t span_id) {
    PhaseRun pr;
    for (int r = 0; r < s.replicas; ++r) {
      Scoped sp(tr, "faults.attach", "faults");
      const std::string plan =
          "seed:" + std::to_string(seed % 1000) +
          (r == 0 ? ",outage:at=" + std::to_string(ph.outage_ns) : "");
      clusters[static_cast<std::size_t>(r)]->set_fault_injector(
          std::make_shared<faults::FaultInjector>(
              faults::FaultPlan::parse(plan), s.nodes * s.ppn, s.ppn));
    }
    dyn::SnapshotManager mgr(*clusters[0], base, part);
    dyn::Compactor compactor(mgr, dyn::CompactorPolicy{s.fill_trigger});
    const auto keep_base = mgr.base_ptr();  // the handles' static graph
    std::vector<engine::ReplicaHandle> handles;
    for (auto& c : clusters) handles.push_back({c.get(), &keep_base->dg});

    double next_ingest_ns = s.ingest_every_ns;
    double pending_pause_ns = 0;
    double excluded_s = 0;  // validation + load generation inside serve()
    std::optional<Clock::time_point> dispatched;
    int wave_span = -1;
    // Span id of the current dispatch: its pin, ingest, wave and lane
    // validation spans share it.
    std::uint64_t dispatch_id = span_id << 32;
    std::shared_ptr<const dyn::Snapshot> held;

    engine::FrontDoorConfig fdc = fdc0;
    fdc.graph_source = [&](double now) {
      if (dispatched) {  // the previous dispatch ran no wave (program/none)
        tr.close(wave_span);
        dispatched.reset();
      }
      ++dispatch_id;
      while (next_ingest_ns <= now) {
        if (mgr.epoch() >= ph.batches.size()) {
          excluded_s += time_s([&] {  // the load generator runs ahead
            ph.batches.push_back(ph.gen->next_batch(s.ingest_ops));
          });
        }
        {
          Scoped sp(tr, "dyn.ingest", "dyn", dispatch_id);
          pr.ingest_s.push_back(time_s([&] {
            mgr.ingest(ph.batches[static_cast<std::size_t>(mgr.epoch())],
                       next_ingest_ns);
          }));
        }
        ++pr.epochs;
        pr.fill_max = std::max(pr.fill_max, mgr.fill());
        std::optional<dyn::CompactionStats> cs;
        {
          Scoped sp(tr, "dyn.compact", "dyn", dispatch_id);
          pr.compact_s.push_back(
              time_s([&] { cs = compactor.maybe_compact(next_ingest_ns); }));
        }
        if (cs) {
          ++pr.compactions;
          pending_pause_ns += cs->pause_ns;
          pr.pause_ns += cs->pause_ns;
        }
        next_ingest_ns += s.ingest_every_ns;
      }
      {
        Scoped sp(tr, "dyn.pin", "dyn", dispatch_id);
        pr.pin_s.push_back(time_s([&] { held = mgr.pin(mgr.epoch(), now); }));
      }
      engine::PinnedGraph pg;
      pg.epoch = held->epoch;
      pg.graph = held->graph;
      pg.pin_ns = held->pin_ns + pending_pause_ns;
      pr.pin_vt_ns += held->pin_ns;
      pending_pause_ns = 0;
      dispatched = Clock::now();
      wave_span = tr.open("engine.dispatch", "engine", dispatch_id);
      return pg;
    };
    fdc.sink = [&](int, std::span<const engine::WaveQuery> batch,
                   const engine::WaveResult& wr, engine::WaveState& ws) {
      if (dispatched) {
        pr.wave_host_s.push_back(seconds_since(*dispatched));
        tr.rename(wave_span, "engine.wave");
        tr.close(wave_span);
        dispatched.reset();
      }
      const auto t0 = Clock::now();
      Scoped sp(tr, "bench.validate", "bench", dispatch_id);
      pr.wave_ns.push_back(wr.wave_ns);
      pr.lanes_total += static_cast<int>(batch.size());
      pr.delta_probes += wr.profile_avg.counters().delta_probes;
      pr.edges_scanned += wr.profile_avg.counters().edges_scanned;
      for (std::size_t l = 0; l < batch.size(); ++l) {
        const engine::LaneResult& lr = wr.lanes[l];
        if (!lr.finished) continue;
        LaneRecord rec;
        rec.epoch = wr.epoch;
        rec.q = batch[l];
        rec.reached = lr.reached;
        if (batch[l].kind != engine::QueryKind::st_reachability)
          rec.digest = lane_digest(
              engine::gather_lane_distances(*dg0, ws, static_cast<int>(l)));
        pr.lanes.push_back(rec);
      }
      const double v = seconds_since(t0);
      pr.validate_s += v;
      excluded_s += v;
    };

    engine::FrontDoor door(cfg, fdc, handles);
    const auto t0 = Clock::now();
    {
      Scoped sp(tr, "engine.serve." + ph.name, "engine", span_id);
      pr.rep = door.serve(ph.queries);
      if (dispatched) tr.close(wave_span);
    }
    pr.wall_s = seconds_since(t0) - excluded_s;
    return pr;
  };

  // --- validation of one phase (first round: against the references) -------
  double validate_s = 0;
  std::vector<PhaseRun> first;
  std::vector<double> traversed_full(phases.size(), 0.0);
  const auto fail = [&](const std::string& what) {
    ++sheet.failed;
    std::cerr << "FAIL " << what << "\n";
  };
  const auto validate_first = [&](std::size_t pi, const PhaseRun& pr) {
    const Phase& ph = phases[pi];
    std::uint64_t max_epoch = 0;
    for (const LaneRecord& r : pr.lanes) max_epoch = std::max(max_epoch, r.epoch);
    for (const auto& sq : pr.rep.results)
      max_epoch = std::max(max_epoch, sq.epoch);
    Replay replay(base, ph.batches);
    const engine::ProgramParams pp = fdc0.programs;
    for (std::uint64_t e = 0; e <= max_epoch; ++e) {
      bool needed = false;
      for (const LaneRecord& r : pr.lanes) needed = needed || r.epoch == e;
      for (const auto& sq : pr.rep.results)
        needed = needed || (is_program(sq.kind) && sq.epoch == e &&
                            (sq.outcome == engine::Outcome::served ||
                             sq.outcome == engine::Outcome::failed_over));
      if (!needed) continue;
      const graph::Csr g = replay.at(e);
      for (const LaneRecord& r : pr.lanes) {
        if (r.epoch != e) continue;
        ++sheet.attempted;
        const graph::BfsTree ref = graph::reference_bfs(g, r.q.source);
        if (r.q.kind == engine::QueryKind::st_reachability) {
          if (r.reached != ref.reached(r.q.target))
            fail("s-t reachability " + std::to_string(r.q.source) + "->" +
                 std::to_string(r.q.target) + " at epoch " + std::to_string(e));
          continue;
        }
        const bool khop = r.q.kind == engine::QueryKind::k_hop;
        std::vector<engine::Dist> want(g.num_vertices(), engine::kUnreached);
        std::uint64_t edges = 0;
        for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
          if (!ref.reached(v)) continue;
          if (khop && ref.depth[v] > static_cast<std::uint32_t>(r.q.k)) continue;
          want[v] = static_cast<engine::Dist>(ref.depth[v]);
          edges += g.degree(v);
        }
        if (lane_digest(want) != r.digest)
          fail(std::string(khop ? "k-hop" : "full-distance") + " lane from " +
               std::to_string(r.q.source) + " at epoch " + std::to_string(e) +
               " differs from reference_bfs");
        else if (!khop && pi == 0)
          traversed_full[pi] += static_cast<double>(edges) / 2.0;
      }
      for (const auto& sq : pr.rep.results) {
        if (!is_program(sq.kind) || sq.epoch != e) continue;
        if (sq.outcome != engine::Outcome::served &&
            sq.outcome != engine::Outcome::failed_over)
          continue;
        ++sheet.attempted;
        const engine::Query& q = ph.queries[static_cast<std::size_t>(sq.id)];
        bool ok = true;
        double want = 0;
        switch (sq.kind) {
          case engine::QueryKind::sssp: {
            const auto d = graph::ref_sssp(
                g, graph::EdgeWeights{pp.weight_seed, pp.sssp_max_weight},
                q.source);
            want = d[q.target] == graph::kInfDist
                       ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(d[q.target]);
            ok = sq.value == want;
            break;
          }
          case engine::QueryKind::pagerank: {
            want = graph::ref_pagerank(g, pp.pr_damping, 1e-10)[q.source];
            ok = std::abs(sq.value - want) <= 0.05 * want + 1e-2;
            break;
          }
          case engine::QueryKind::components: {
            const auto lab = graph::ref_components(g);
            for (std::uint64_t v = 0; v < lab.size(); ++v)
              want += lab[v] == v ? 1.0 : 0.0;
            ok = sq.value == want;
            break;
          }
          default:
            want = static_cast<double>(graph::ref_triangles(g));
            ok = sq.value == want;
            break;
        }
        if (!ok)
          fail(std::string(engine::to_string(sq.kind)) + " query " +
               std::to_string(sq.id) + " at epoch " + std::to_string(e) +
               ": got " + std::to_string(sq.value) + ", reference " +
               std::to_string(want));
      }
    }
    for (const auto& sq : pr.rep.results) {
      if (sq.outcome != engine::Outcome::lost) continue;
      ++sheet.attempted;
      fail("query " + std::to_string(sq.id) + " lost (no replica left)");
    }
  };
  /// Later rounds: the answers must equal the validated first round's.
  const auto validate_again = [&](std::size_t pi, const PhaseRun& pr) {
    const PhaseRun& f = first[pi];
    const std::size_t n = std::max(pr.lanes.size(), f.lanes.size());
    for (std::size_t i = 0; i < n; ++i) {
      ++sheet.attempted;
      if (i >= pr.lanes.size() || i >= f.lanes.size() ||
          !(pr.lanes[i] == f.lanes[i]))
        fail(phases[pi].name + " lane " + std::to_string(i) +
             " differs from the validated first round");
    }
    for (std::size_t i = 0; i < pr.rep.results.size(); ++i) {
      const auto& a = pr.rep.results[i];
      const auto& b = f.rep.results[i];
      if (!is_program(a.kind) && a.outcome != engine::Outcome::lost) continue;
      ++sheet.attempted;
      if (a.outcome != b.outcome || a.epoch != b.epoch ||
          !(a.value == b.value || (std::isnan(a.value) && std::isnan(b.value))) ||
          a.outcome == engine::Outcome::lost)
        fail(phases[pi].name + " query " + std::to_string(i) +
             " differs from the validated first round or was lost");
    }
    if (pr.rep.total_ns != f.rep.total_ns)
      fail(phases[pi].name + " makespan differs from the first round");
  };

  std::vector<PhaseRun> last;
  const auto round = [&](int index) {
    double wall = 0;
    std::vector<PhaseRun> runs;
    for (std::size_t pi = 0; pi < phases.size(); ++pi) {
      PhaseRun pr = run_phase(phases[pi], pi);
      wall += pr.wall_s;
      validate_s += pr.validate_s;
      const auto t0 = Clock::now();
      {
        Scoped sp(tr, "bench.validate", "bench", pi);
        if (index == 0)
          validate_first(pi, pr);
        else
          validate_again(pi, pr);
      }
      validate_s += seconds_since(t0);
      runs.push_back(std::move(pr));
    }
    if (index == 0) first = runs;
    last = std::move(runs);
    return wall;
  };
  // Two rounds at least: a round serves 480 queries and takes seconds.
  const RoundTimes rt = run_rounds(args, tr, round, 2);

  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const auto& r = first[pi].rep;
    std::cout << phases[pi].name << " phase (gap "
              << phases[pi].gap_ns / 1e6 << " ms, replica-0 outage at "
              << phases[pi].outage_ns / 1e6 << " ms): makespan "
              << r.total_ns / 1e6 << " ms, " << r.waves << " waves, "
              << r.program_runs << " programs, " << r.failovers
              << " failovers, " << first[pi].epochs << " epochs, "
              << first[pi].compactions << " compactions\n";
    for (int c = 0; c < static_cast<int>(engine::SloClass::kCount); ++c) {
      const auto& cs = r.cls[c];
      std::cout << "  " << engine::to_string(static_cast<engine::SloClass>(c))
                << ": submitted " << cs.submitted << ", served " << cs.served
                << ", degraded " << cs.degraded << ", shed " << cs.shed
                << ", p50 " << cs.p50_ns / 1e6 << " ms, p95 "
                << cs.p95_ns / 1e6 << " ms, attainment " << cs.attainment
                << "\n";
    }
  }

  // --- end-to-end metrics ---------------------------------------------------
  const PhaseRun& nom = first[0];
  const PhaseRun& ovl = first[1];
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> inter_ms;
  std::map<engine::QueryKind, std::vector<double>> analytics_ms;
  int submitted = 0, met = 0;
  for (const auto& sq : nom.rep.results) {
    const bool done = sq.outcome == engine::Outcome::served ||
                      sq.outcome == engine::Outcome::failed_over ||
                      sq.outcome == engine::Outcome::degraded;
    const double lat = done ? sq.latency_ns() / 1e6 : inf;
    if (interactive(sq.cls)) {
      inter_ms.push_back(lat);
      ++submitted;
      met += sq.slo_met ? 1 : 0;
    } else {
      analytics_ms[sq.kind].push_back(lat);
    }
  }
  double wave_s = 0;
  for (double w : nom.wave_ns) wave_s += w * 1e-9;
  sheet.set_e2e("vgteps", wave_s > 0 ? traversed_full[0] / wave_s / 1e9 : 0.0,
                "GTEPS");
  sheet.set_e2e("serve_p50_ms", percentile(inter_ms, 50), "ms");
  sheet.set_e2e("serve_p95_ms", percentile(inter_ms, 95), "ms");
  // Mean of the four programs' median latencies: the programs differ in
  // cost by an order of magnitude, so one pooled median would jump between
  // them from seed to seed.
  double analytics = 0;
  for (const auto& [kind, lat] : analytics_ms) analytics += median(lat);
  sheet.set_e2e("analytics_p50_ms",
                analytics_ms.empty()
                    ? 0.0
                    : analytics / static_cast<double>(analytics_ms.size()),
                "ms");
  sheet.set_e2e("slo_attainment",
                submitted ? static_cast<double>(met) / submitted : 0.0, "share");
  // Goodput: answers within their deadline per virtual second of the
  // overload phase's offered window (its arrival span). Under overload the
  // backlog grows, so late arrivals miss their deadlines and drop out.
  int good = 0;
  for (const auto& sq : ovl.rep.results) good += sq.slo_met ? 1 : 0;
  sheet.set_e2e("goodput_qps",
                good / (phases[1].gap_ns * s.overload_queries * 1e-9),
                "queries/s");
  sheet.set_e2e("wall_s", median(rt.untraced_s), "s");

  // --- per-layer metrics ----------------------------------------------------
  const auto mean_ms = [](const std::vector<double>& xs) {
    double t = 0;
    for (double x : xs) t += x;
    return xs.empty() ? 0.0 : t / static_cast<double>(xs.size()) * 1e3;
  };
  std::vector<double> wave_host, ingest, compact, pin, qwait;
  int waves = 0, programs = 0, levels = 0, lanes = 0, failovers = 0;
  int degraded = 0, shed = 0, backpressured = 0, recoveries = 0;
  double busy = 0, blip = 0, fill_max = 0, pause = 0, pin_vt = 0;
  std::uint64_t epochs = 0, compactions = 0, probes = 0, scanned = 0;
  sim::Counters cnt;
  for (const PhaseRun& pr : last) {  // host times: the last round
    wave_host.insert(wave_host.end(), pr.wave_host_s.begin(),
                     pr.wave_host_s.end());
    ingest.insert(ingest.end(), pr.ingest_s.begin(), pr.ingest_s.end());
    compact.insert(compact.end(), pr.compact_s.begin(), pr.compact_s.end());
    pin.insert(pin.end(), pr.pin_s.begin(), pr.pin_s.end());
  }
  for (const PhaseRun& pr : first) {  // virtual time and counts
    const auto& r = pr.rep;
    waves += r.waves;
    programs += r.program_runs;
    levels += r.levels;
    lanes += pr.lanes_total;
    failovers += r.failovers;
    degraded += r.degraded;
    shed += r.shed;
    backpressured += r.backpressured;
    recoveries += r.recoveries;
    busy += r.busy_ns;
    blip = std::max(blip, r.failover_blip_ns);
    cnt += r.counters;
    for (const auto& sq : r.results)
      if (interactive(sq.cls) && (sq.outcome == engine::Outcome::served ||
                                  sq.outcome == engine::Outcome::failed_over))
        qwait.push_back((sq.start_ns - sq.arrival_ns) / 1e6);
    epochs += pr.epochs;
    compactions += pr.compactions;
    fill_max = std::max(fill_max, pr.fill_max);
    pause += pr.pause_ns;
    pin_vt += pr.pin_vt_ns;
    probes += pr.delta_probes;
    scanned += pr.edges_scanned;
  }
  sheet.set_layer("engine.wave_host_ms", mean_ms(wave_host), "ms");
  sheet.set_layer("engine.waves", waves, "count");
  sheet.set_layer("engine.program_runs", programs, "count");
  sheet.set_layer("engine.levels", levels, "count");
  sheet.set_layer("engine.lanes_per_wave",
                  waves ? static_cast<double>(lanes) / (waves * s.max_batch) : 0.0,
                  "share");
  sheet.set_layer("engine.busy_ms", busy / 1e6, "ms");
  sheet.set_layer("engine.queue_wait_p50_ms", percentile(qwait, 50), "ms");
  sheet.set_layer("engine.queue_wait_p95_ms", percentile(qwait, 95), "ms");
  sheet.set_layer("frontdoor.failovers", failovers, "count");
  sheet.set_layer("frontdoor.failover_blip_ms", blip / 1e6, "ms");
  sheet.set_layer("frontdoor.degraded", degraded, "count");
  sheet.set_layer("frontdoor.shed", shed, "count");
  sheet.set_layer("frontdoor.backpressured", backpressured, "count");
  sheet.set_layer("frontdoor.recoveries", recoveries, "count");
  sheet.set_layer("dyn.ingest_ms", mean_ms(ingest), "ms");
  sheet.set_layer("dyn.compact_ms", mean_ms(compact), "ms");
  sheet.set_layer("dyn.pin_ms", mean_ms(pin), "ms");
  sheet.set_layer("dyn.epochs", static_cast<double>(epochs), "count");
  sheet.set_layer("dyn.compactions", static_cast<double>(compactions), "count");
  sheet.set_layer("dyn.fill_max", fill_max, "share");
  sheet.set_layer("dyn.read_amp",
                  scanned ? static_cast<double>(probes) /
                                static_cast<double>(scanned)
                          : 0.0,
                  "ratio");
  sheet.set_layer("dyn.pause_ms", pause / 1e6, "ms");
  sheet.set_layer("dyn.pin_vt_ms", pin_vt / 1e6, "ms");
  sheet.set_layer("faults.retransmits", static_cast<double>(cnt.retransmits),
                  "count");
  sheet.set_layer("faults.recv_timeouts",
                  static_cast<double>(cnt.recv_timeouts), "count");
  sheet.set_layer("faults.adoptions", static_cast<double>(cnt.adoptions),
                  "count");
  sheet.set_layer("bench.validate_s", validate_s, "s");
  record_trace_shares(sheet, tr, rt);
  return sheet;
}

}  // namespace perfbench
