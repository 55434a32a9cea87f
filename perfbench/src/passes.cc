#include "passes.h"

#include <algorithm>

namespace perfbench {

PassRunner::PassRunner(idm::iql::Dataspace* ds,
                       idm::iql::QueryOptions options, Tracer* tracer)
    : ds_(ds),
      options_(options),
      tracer_(tracer),
      query_ms_(Table4().size()),
      expanded_(Table4().size(), 0) {
  for (const Table4Query& query : Table4()) {
    auto prepared = ds_->Prepare(query.iql);
    probes_.push_back(prepared.ok() ? ProbesFromPlan(prepared->plan())
                                    : std::vector<Probe>());
  }
}

std::vector<idm::iql::QueryResult> PassRunner::TakeReference(Report* report) {
  std::vector<idm::iql::QueryResult> results;
  reference_.clear();
  for (const Table4Query& query : Table4()) {
    auto result = ds_->Query(query.iql);
    if (!result.ok()) {
      report->Fail(std::string(query.id) + " failed on the reference run: " +
                   result.status().ToString());
      results.emplace_back();
    } else {
      results.push_back(*result);
    }
    reference_.push_back(results.back().rows);
  }
  return results;
}

namespace {

bool SameRowSet(std::vector<std::vector<idm::index::DocId>> a,
                std::vector<std::vector<idm::index::DocId>> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

void PassRunner::Run(int64_t pass_id, bool record, bool ordered,
                     Report* report) {
  Clock::time_point pass_start = Clock::now();
  double pass_check_ms = 0;
  Scoped pass_span(tracer_, "workload.pass", pass_id);
  for (size_t q = 0; q < Table4().size(); ++q) {
    const Table4Query& query = Table4()[q];
    double ms = 0;
    std::optional<idm::Result<idm::iql::QueryResult>> result;
    if (!tracer_->enabled()) {
      Clock::time_point t0 = Clock::now();
      result.emplace(ds_->Query(query.iql, options_));
      ms = Ms(t0, Clock::now());
    } else {
      int span = tracer_->Begin(std::string("iql.query.") + query.id, pass_id);
      Clock::time_point t0 = Clock::now();
      auto prepared = ds_->Prepare(query.iql);
      Clock::time_point t1 = Clock::now();
      tracer_->Record("iql.prepare", pass_id, t0, t1);
      if (prepared.ok()) {
        result.emplace(ds_->Execute(*prepared, options_));
      } else {
        result.emplace(prepared.status());
      }
      Clock::time_point t2 = Clock::now();
      tracer_->Record("iql.execute", pass_id, t1, t2);
      tracer_->End(span);
      ms = Ms(t0, t2);
      if (record) {
        double probe_ms = ReplayProbes(*ds_, probes_[q], options_.limits,
                                       tracer_, pass_id, &layer_);
        layer_[std::string("iql.prepare_ms.") + query.id].push_back(Ms(t0, t1));
        layer_[std::string("iql.residual_ms.") + query.id].push_back(
            ms - Ms(t0, t1) - probe_ms);
      }
    }
    ++report->attempted;
    if (!result->ok()) {
      ++report->failed;
      continue;
    }
    const idm::iql::QueryResult& r = **result;
    Clock::time_point c0 = Clock::now();
    if (!r.meta.complete) {
      report->Fail(std::string(query.id) + ": incomplete under governance: " +
                   r.meta.degraded_reason);
    } else if (ordered ? r.rows != reference_[q]
                       : !SameRowSet(r.rows, reference_[q])) {
      report->Fail(std::string(query.id) + ": rows differ from the reference (" +
                   std::to_string(r.rows.size()) + " vs " +
                   std::to_string(reference_[q].size()) + ")");
    }
    pass_check_ms += Ms(c0, Clock::now());
    expanded_[q] = r.expanded_views;
    if (record) query_ms_[q].push_back(ms);
  }
  check_ms_ += pass_check_ms;
  if (record) pass_ms_.push_back(Ms(pass_start, Clock::now()) - pass_check_ms);
}

void PassRunner::ReportEndToEnd(Report* report) const {
  for (size_t q = 0; q < Table4().size(); ++q) {
    std::string name = Table4()[q].id;  // "Q1" -> "q1_ms"
    name[0] = 'q';
    report->Set(name + "_ms", Percentile(query_ms_[q], kTimingPercentile),
                "ms");
  }
}

void PassRunner::ReportLayers(Report* report) const {
  for (size_t q = 0; q < Table4().size(); ++q) {
    report->Set(std::string("iql.expanded_views.") + Table4()[q].id,
                static_cast<double>(expanded_[q]), "count");
  }
  for (const auto& [name, samples] : layer_) {
    report->Set(name, Median(samples), "ms");
  }
}

}  // namespace perfbench
