// Index probes of one Table 4 query, read off its compiled plan
// (PreparedQuery::plan(): the ops of the program, its sub-programs and join
// inputs) and replayed with the query's own arguments against the index
// structures the VM calls (Catalog::LiveIds, InvertedIndex::PhraseDocs/
// PhraseQuery, NameIndex::LookupPattern, TupleIndex::Scan,
// GroupStore::Descendants). Traced runs time each replayed call; a query's
// time minus its prepare time minus its replayed probes is the VM's own
// (residual) work.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "iql/plan.h"

namespace perfbench {

struct Probe {
  enum class Kind { kLive, kPhrase, kNamePattern, kTupleScan, kDescendants };
  Kind kind = Kind::kLive;
  std::string arg;    ///< phrase, pattern, attribute or descendant root
  std::string names;  ///< descendants: the name pattern of the step
  /// Tuple scan: the comparison and its literal (resolved against the
  /// clock at replay when the plan says yesterday() or now()).
  idm::index::CompareOp op = idm::index::CompareOp::kEq;
  idm::core::Value literal;
  idm::iql::PredNode::LiteralKind literal_kind =
      idm::iql::PredNode::LiteralKind::kValue;
};

/// Walks the program, its sub-programs and join inputs. A descendant walk
/// is listed for the first expand of each program whose frontier is a
/// name-index lookup.
std::vector<Probe> ProbesFromPlan(const idm::iql::PlanProgram& plan);

/// A pattern or phrase as a metric-name suffix: ' ' -> '_', '*' -> 'x',
/// '?' -> 'q', other characters outside [A-Za-z0-9_.-] dropped.
std::string MetricSuffix(const std::string& text);

/// Replays \p probes once, recording one span per call under the open
/// span, and appends each call's milliseconds to \p samples under its
/// per-layer metric name. Returns the milliseconds of the calls on the
/// query's own path: PhraseDocs when ungoverned, PhraseQuery under an
/// ExecContext with \p limits when governed.
double ReplayProbes(idm::iql::Dataspace& ds,
                    const std::vector<Probe>& probes,
                    const idm::util::ExecContext::Limits& limits,
                    Tracer* tracer, int64_t group,
                    std::map<std::string, std::vector<double>>* samples);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
