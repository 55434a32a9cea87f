// Shared vocabulary of the end-to-end benchmark: command-line options,
// the span recorder used by traced runs, sample statistics, the metric
// report printed as the final JSON line, and the workload entry points.
//
// The benchmark drives the program only through its public module APIs
// (iql::Dataspace, index::*, rvm::*, vfs::*, email::*, storage::*, sub::*)
// and times those calls from the outside.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "iql/dataspace.h"
#include "workload/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;          ///< DataspaceSpec::Small() instead of paper scale
  std::string out_dir = ".bench_out";  ///< where traces are written
  Clock::time_point process_start;
};

/// In-memory span recorder. Disabled (every call a no-op) in untraced
/// runs, so end-to-end figures carry no tracing cost.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index
  /// (-1 when disabled). \p group is the pass or change id.
  int Begin(const std::string& name, int64_t group);
  void End(int span);
  /// Records an already measured interval as a closed child of the
  /// innermost open span.
  int Record(const std::string& name, int64_t group, Clock::time_point start,
             Clock::time_point end);

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

  /// Self time per module (span name up to its first '.'): duration minus
  /// the part covered by child spans, summed, in milliseconds.
  std::map<std::string, double> SelfMsByModule() const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
    int64_t group = 0;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, int64_t group)
      : tracer_(tracer), span_(tracer->Begin(name, group)) {}
  ~Scoped() { tracer_->End(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Linear-interpolated percentile (p in [0,1]) of \p v; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// The percentile the end-to-end timings are read at: each query's latency
/// and the pass or cycle time behind ops_per_s. A shared host slows every
/// instruction of the process for seconds at a time, and such a stretch can
/// cover most of a run; the 10th percentile stays with the program's own
/// speed as long as a tenth of the run is spared, where the median and the
/// mean move with the host.
constexpr double kTimingPercentile = 0.10;

/// Metrics of one run plus the operation counts.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few correctness failures
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Marks the run incorrect and keeps the reason for stderr.
  void Fail(const std::string& why);
  std::string Json() const;
};

/// The eight Table 4 queries, Q1..Q8.
struct Table4Query {
  const char* id;
  const char* iql;
};
const std::vector<Table4Query>& Table4();

/// Resident set size of this process in bytes (/proc/self/statm).
uint64_t RssBytes();

/// Generation plus indexing of the paper-scale (or small) dataspace.
struct Setup {
  std::unique_ptr<idm::iql::Dataspace> ds;
  idm::workload::BuiltDataspace built;
  idm::workload::DataspaceSpec spec;
  double generate_s = 0, index_fs_s = 0, index_mail_s = 0;
  double setup_s = 0;        ///< process start to end of indexing
  double index_mem_mb = 0;   ///< RSS added by indexing
};
Setup BuildDataspace(const Args& args, idm::iql::Dataspace::Config config);

/// Fills the index.<structure>_mb and setup per-layer metrics.
void ReportSetupLayers(const Setup& setup, Report* report);

/// Workloads. Each fills \p report; the caller prints it.
void RunSearch(const Args& args, Tracer* tracer, Report* report);
void RunChurn(const Args& args, Tracer* tracer, Report* report);

/// Feeds every correctness check deliberately wrong results; returns the
/// number of checks that failed to reject them (0 = pass).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
