// Workload `search`: closed-loop passes over the eight Table 4 queries
// through Dataspace::Query with default (ungoverned) options, on the
// in-memory dataspace with the result cache off (the paper's Figure 6
// measurement). Its time is spent in iql and index only; it makes no
// writes.

#include <cstdio>

#include "bench.h"
#include "passes.h"
#include "verify.h"

namespace perfbench {

namespace {

/// The pass tail printed on stderr is the 90th percentile: the highest with
/// at least ten of the >= 101 passes a 20 s run makes beyond it. It is not
/// a metric: on a shared host it follows the host's slow stretches.
constexpr double kPassTail = 0.90;

}  // namespace

void RunSearch(const Args& args, Tracer* tracer, Report* report) {
  idm::iql::Dataspace::Config config;
  config.cache.enabled = false;
  Setup setup = BuildDataspace(args, config);
  idm::iql::Dataspace& ds = *setup.ds;

  PassRunner runner(&ds, idm::iql::QueryOptions(), tracer);
  // Reference rows and their checks; not timed.
  std::vector<idm::iql::QueryResult> reference = runner.TakeReference(report);
  VerifyTable4(ds, setup.built, ListSources(setup.built), reference, setup.spec,
               report);

  runner.Run(-1, /*record=*/false, /*ordered=*/true, report);  // warm-up
  // The comparisons with the reference are taken out of the measured time.
  const double checks_before_ms = runner.check_ms();
  auto measured_ms = [&](Clock::time_point start) {
    return Ms(start, Clock::now()) - (runner.check_ms() - checks_before_ms);
  };
  Clock::time_point start = Clock::now();
  int64_t pass = 0;
  while (measured_ms(start) < args.seconds * 1000.0) {
    runner.Run(pass++, /*record=*/true, /*ordered=*/true, report);
  }
  double measured_s = measured_ms(start) / 1000.0;

  if (!args.trace) {
    report->Set("setup_s", setup.setup_s, "s");
    report->Set("index_mem_mb", setup.index_mem_mb, "MB");
    runner.ReportEndToEnd(report);
    // A pass is one query after another from one client: its time at
    // kTimingPercentile gives the rate.
    report->Set("ops_per_s",
                static_cast<double>(Table4().size()) * 1000.0 /
                    Percentile(runner.pass_ms(), kTimingPercentile),
                "1/s");
  } else {
    ReportSetupLayers(setup, report);
    runner.ReportLayers(report);
  }
  std::fprintf(stderr,
               "perfbench: search: %zu passes in %.2f s (%.1f ops/s); pass "
               "p50 %.1f ms, p%.0f %.1f ms\n",
               runner.passes(), measured_s,
               static_cast<double>(runner.passes() * Table4().size()) /
                   measured_s,
               Median(runner.pass_ms()), kPassTail * 100,
               Percentile(runner.pass_ms(), kPassTail));
}

}  // namespace perfbench
