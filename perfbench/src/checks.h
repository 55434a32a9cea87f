// Correctness checks of the benchmark. Each check compares what the
// program returned against a computation made apart from the program
// (the generator's planted needles, the sources' own metadata, the
// benchmark's own tokenizer and change model) or against a property the
// method must have. Checks work on plain data (uris, names, scores) so the
// self-test can feed them deliberately wrong results.
//
// Every check returns "" when the result is right and a reason otherwise.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// One result row: the uri and the name of each binding.
struct Row {
  std::vector<std::string> uris;
  std::vector<std::string> names;
};
using Rows = std::vector<Row>;

// --- the benchmark's own models ---------------------------------------------

/// Lower-cased maximal runs of ASCII alphanumerics (bytes >= 0x80 count as
/// word bytes, so UTF-8 survives). Written apart from the program's
/// analyzer: it is the reference the full-text results are checked against.
std::vector<std::string> Words(const std::string& text);

/// True when \p words contains \p phrase (already split) consecutively.
bool HasPhrase(const std::vector<std::string>& words,
               const std::vector<std::string>& phrase);

/// Microseconds since the Unix epoch of 00:00 UTC on the given day.
int64_t UtcMidnightMicros(int year, int month, int day);

/// The source item a view belongs to: converter-derived views
/// ("<file>#...") and attachments ("<message>/att/<i>") map to their file
/// or message.
std::string BaseItem(const std::string& uri);

// --- checks -------------------------------------------------------------------

/// Q4/Q5/Q7/Q8 return exactly the needles the generator plants (2, 2, 21,
/// and 16 rows for the paper's 7 .tex attachments), each under the path
/// the query names.
std::string CheckQ4(const Rows& rows);
std::string CheckQ5(const Rows& rows);
std::string CheckQ7(const Rows& rows);
std::string CheckQ8(const Rows& rows, size_t tex_attachments);

/// \p got (first-binding uris) equals \p expected as a set, and has no
/// duplicates.
std::string CheckUriSet(const std::string& what,
                        const std::set<std::string>& expected,
                        const std::vector<std::string>& got);

/// Two row lists are equal as multisets of uri tuples.
std::string CheckSameRows(const std::string& what, const Rows& expected,
                          const Rows& got);

/// Ranked results: scores never increase down the list.
std::string CheckScoresNonIncreasing(const std::string& what,
                                     const std::vector<double>& scores);

/// Agreement with the benchmark's own tokenization on a sample: every
/// sampled item whose text holds the phrase is in the result, and no
/// sampled item without it is. \p sample maps uri -> holds phrase.
std::string CheckSample(const std::string& what,
                        const std::map<std::string, bool>& sample,
                        const std::vector<std::string>& got);

/// A change's unique token returns exactly the source items the change
/// model says hold it (mapped through BaseItem).
std::string CheckToken(const std::string& token,
                       const std::set<std::string>& expected_items,
                       const std::vector<std::string>& got);

/// First-binding uris of \p rows.
std::vector<std::string> FirstUris(const Rows& rows);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
