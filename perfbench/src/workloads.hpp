#pragma once
/// \file workloads.hpp
/// The benchmark's workloads. Each builds its inputs from the seed, times
/// its set-up, calibrates the runtime on its own cluster shape, runs the
/// measured rounds, validates every answer, and returns the full sheet.

#include "runtime/cluster.hpp"
#include "support.hpp"

namespace perfbench {

/// bfs-weak256 and bfs-kernel4.
Sheet run_bfs_workload(const Args& args, Tracer& tracer);

/// serve-rw.
Sheet run_serve_workload(const Args& args, Tracer& tracer);

/// Runtime calibration on `c`'s shape: host time of an empty Cluster::run
/// and of one scalar rt::allreduce_sum over the world communicator
/// (runtime.null_run_us, runtime.allreduce_us).
void probe_runtime(numabfs::rt::Cluster& c, Sheet& sheet, Tracer& tracer);

}  // namespace perfbench
