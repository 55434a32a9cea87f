// Reference computations for the Table 4 checks, made from the sources'
// own state (VFS List/Stat/ReadFile, IMAP folder listings and messages)
// rather than from the program's indexes.

#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"

namespace perfbench {

/// Every VFS node (links not followed) and every stored message.
struct SourceItems {
  std::vector<std::pair<std::string, idm::vfs::NodeInfo>> nodes;  ///< path
  std::vector<std::string> folders;  ///< VFS folders, for new notes
  std::vector<std::pair<std::string, uint64_t>> messages;  ///< folder, uid
};
SourceItems ListSources(const idm::workload::BuiltDataspace& built);

/// Rows of \p result as uris and names.
Rows ToRows(const idm::iql::Dataspace& ds, const idm::iql::QueryResult& result);

/// Checks the Table 4 results \p results (Q1..Q8, ungoverned, on the
/// freshly indexed state) against the sources: planted needles, Q3 from
/// source metadata, Q1/Q2 against the benchmark's tokenization of a
/// sample seeded from \p spec, Q1's ranking order, and Q6 against its two arms.
void VerifyTable4(idm::iql::Dataspace& ds,
                  const idm::workload::BuiltDataspace& built,
                  const SourceItems& items,
                  const std::vector<idm::iql::QueryResult>& results,
                  const idm::workload::DataspaceSpec& spec, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
