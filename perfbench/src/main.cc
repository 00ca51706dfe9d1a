// The repository benchmark binary; perfbench/run.py builds and runs it.
//
//   perfbench --workload <gemsd_write|mq_stream|sketch_ingest>
//             --seed N --seconds S --trace <0|1> [--scale tiny]
//             [--out-dir DIR] [--source-id ID]
//
// The last line of standard output is the result object; the line before
// it carries provenance. Exit status is 0 only when every correctness
// check passed and no operation failed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>

#include "core/registry.h"
#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scale") {
      config.tiny = value == "tiny";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--source-id") {
      config.source_id = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || !(config.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  mkdir(config.out_dir.c_str(), 0755);

  gems::RegisterBuiltinSketches();
  perfbench::RunResult result;
  if (config.workload == "gemsd_write") {
    perfbench::RunGemsdWrite(config, &result);
  } else if (config.workload == "mq_stream") {
    perfbench::RunMultiQuery(config, &result);
  } else if (config.workload == "sketch_ingest") {
    perfbench::RunSketchIngest(config, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  if (!perfbench::Emit(config, result)) return 1;
  return result.correct && result.failed == 0 ? 0 : 1;
}
