#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

/// \file
/// One entry point per workload. Each sets up (several times, keeping the
/// last), measures for config.seconds, checks the outputs outside the
/// timed region, and fills `result`. With config.trace the timed phase is
/// split: the first half untraced, the second half with spans, and the
/// per-layer metrics come from the spans.

namespace perfbench {

/// gemsd over loopback, 90% UPDATE and 10% QUERY.
void RunGemsdWrite(const Config& config, RunResult* result);

/// MultiQueryEngine with 256 standing queries over 1024-event batches.
void RunMultiQuery(const Config& config, RunResult* result);

/// ShardedPipeline ingest of a zipf flow stream into HLL, blocked
/// Count-Min and blocked Bloom in turn.
void RunSketchIngest(const Config& config, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
