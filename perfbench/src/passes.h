// One Table 4 pass: Q1..Q8 through Dataspace::Query in order, each result
// compared against the reference rows of the same state (the comparison is
// timed apart and left out of the pass time). Untraced passes
// time whole Query calls; traced passes time Prepare and Execute apart and
// replay each query's index probes after it.

#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "probes.h"

namespace perfbench {

class PassRunner {
 public:
  PassRunner(idm::iql::Dataspace* ds, idm::iql::QueryOptions options,
             Tracer* tracer);

  /// Runs every query once with default options and keeps the results as
  /// the reference the passes are compared against.
  std::vector<idm::iql::QueryResult> TakeReference(Report* report);

  /// One pass. With \p record the timings are kept. Row order must match
  /// the reference when \p ordered, else the row sets must.
  void Run(int64_t pass_id, bool record, bool ordered, Report* report);

  /// Each query's latency (ms) at kTimingPercentile into q<N>_ms.
  void ReportEndToEnd(Report* report) const;
  /// iql.prepare/residual/expanded per query and the replayed probes.
  void ReportLayers(Report* report) const;

  size_t passes() const { return pass_ms_.size(); }
  /// The recorded passes' times (ms), without their row comparisons.
  const std::vector<double>& pass_ms() const { return pass_ms_; }
  /// Milliseconds spent comparing results with the reference, over every
  /// pass; pass times leave it out.
  double check_ms() const { return check_ms_; }

 private:
  idm::iql::Dataspace* ds_;
  idm::iql::QueryOptions options_;
  Tracer* tracer_;
  std::vector<std::vector<Probe>> probes_;
  std::vector<std::vector<std::vector<idm::index::DocId>>> reference_;
  std::vector<std::vector<double>> query_ms_;
  std::vector<double> pass_ms_;
  double check_ms_ = 0;
  std::vector<size_t> expanded_;
  std::map<std::string, std::vector<double>> layer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
