#include "runtime/allgather.hpp"
#include "workloads.hpp"

namespace perfbench {

void probe_runtime(numabfs::rt::Cluster& c, Sheet& sheet, Tracer& tracer) {
  using numabfs::rt::Proc;
  tracer.set_phase("probe");
  constexpr int kReps = 7;
  constexpr int kReduces = 32;
  std::vector<double> null_s, reduce_s;
  for (int i = 0; i < kReps; ++i) {
    {
      Scoped s(tracer, "runtime.null_run", "runtime");
      null_s.push_back(time_s([&] { c.run([](Proc&) {}); }));
    }
    Scoped s(tracer, "runtime.allreduce_x32", "runtime");
    reduce_s.push_back(time_s([&] {
      c.run([&c](Proc& p) {
        for (int k = 0; k < kReduces; ++k)
          numabfs::rt::allreduce_sum(p, c.world(), 1,
                                     numabfs::sim::Phase::stall);
      });
    }));
  }
  const double null_run = median(null_s);
  sheet.set_layer("runtime.null_run_us", null_run * 1e6, "us");
  sheet.set_layer("runtime.allreduce_us",
                  std::max(0.0, median(reduce_s) - null_run) / kReduces * 1e6,
                  "us");
}

}  // namespace perfbench
