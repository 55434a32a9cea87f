#include "checks.h"

#include <algorithm>
#include <cctype>

namespace perfbench {

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> words;
  std::string word;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || u >= 0x80) {
      word.push_back(u < 0x80 ? static_cast<char>(std::tolower(u)) : c);
    } else if (!word.empty()) {
      words.push_back(std::move(word));
      word.clear();
    }
  }
  if (!word.empty()) words.push_back(std::move(word));
  return words;
}

bool HasPhrase(const std::vector<std::string>& words,
               const std::vector<std::string>& phrase) {
  if (phrase.empty() || words.size() < phrase.size()) return false;
  for (size_t i = 0; i + phrase.size() <= words.size(); ++i) {
    if (std::equal(phrase.begin(), phrase.end(), words.begin() + i)) {
      return true;
    }
  }
  return false;
}

int64_t UtcMidnightMicros(int year, int month, int day) {
  // Days from 1970-01-01 in the proleptic Gregorian calendar.
  int y = year - (month <= 2 ? 1 : 0);
  int era = (y >= 0 ? y : y - 399) / 400;
  int yoe = y - era * 400;
  int mp = (month + 9) % 12;
  int doy = (153 * mp + 2) / 5 + day - 1;
  int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  int64_t days = static_cast<int64_t>(era) * 146097 + doe - 719468;
  return days * 86400LL * 1000000LL;
}

std::string BaseItem(const std::string& uri) {
  size_t hash = uri.find('#');
  if (hash != std::string::npos) return uri.substr(0, hash);
  size_t att = uri.rfind("/att/");
  if (att != std::string::npos && uri.compare(0, 7, "imap://") == 0) {
    return uri.substr(0, att);
  }
  return uri;
}

std::vector<std::string> FirstUris(const Rows& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row.uris.empty() ? "" : row.uris[0]);
  return out;
}

namespace {

bool Under(const std::string& uri, const std::string& prefix) {
  return uri.compare(0, prefix.size(), prefix) == 0;
}

std::string Count(const std::string& what, const Rows& rows, size_t want) {
  if (rows.size() == want) return "";
  return what + ": " + std::to_string(rows.size()) + " rows, want " +
         std::to_string(want);
}

/// Each row's first binding lies under exactly one of \p prefixes, and
/// every prefix is used \p per_prefix times.
std::string UnderEach(const std::string& what, const Rows& rows,
                      const std::vector<std::string>& prefixes,
                      size_t per_prefix) {
  std::map<std::string, size_t> used;
  for (const Row& row : rows) {
    bool found = false;
    for (const std::string& prefix : prefixes) {
      if (!row.uris.empty() && Under(row.uris[0], prefix)) {
        ++used[prefix];
        found = true;
        break;
      }
    }
    if (!found) {
      return what + ": row " + (row.uris.empty() ? "" : row.uris[0]) +
             " lies outside the queried paths";
    }
  }
  for (const std::string& prefix : prefixes) {
    if (used[prefix] != per_prefix) {
      return what + ": " + std::to_string(used[prefix]) + " rows under " +
             prefix + ", want " + std::to_string(per_prefix);
    }
  }
  return "";
}

}  // namespace

std::string CheckQ4(const Rows& rows) {
  std::string err = Count("Q4", rows, 2);
  if (!err.empty()) return err;
  return UnderEach("Q4", rows,
                   {"vfs:/papers/dataspaces.tex#", "vfs:/papers/principles.tex#"},
                   1);
}

std::string CheckQ5(const Rows& rows) {
  std::string err = Count("Q5", rows, 2);
  if (!err.empty()) return err;
  return UnderEach("Q5", rows,
                   {"vfs:/VLDB2005/vldb2005 paper.tex#",
                    "vfs:/VLDB2006/vldb2006 paper.tex#"},
                   1);
}

std::string CheckQ7(const Rows& rows) {
  // The 2006 paper has 7 labeled figures, each referenced 3 times.
  std::string err = Count("Q7", rows, 21);
  if (!err.empty()) return err;
  std::map<std::string, size_t> per_label;
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Row& row : rows) {
    if (row.uris.size() != 2 || row.names.size() != 2) {
      return "Q7: row without two bindings";
    }
    for (const std::string& uri : row.uris) {
      if (!Under(uri, "vfs:/VLDB2006/vldb2006 paper.tex#")) {
        return "Q7: binding " + uri + " outside //VLDB2006";
      }
    }
    if (!Under(row.names[0], "fig:vldb2006:")) {
      return "Q7: reference name " + row.names[0] + " is not a figure label";
    }
    if (!Under(row.names[1], "figure")) {
      return "Q7: B binding " + row.names[1] + " is not a figure";
    }
    ++per_label[row.names[0]];
    pairs.insert({row.uris[0], row.uris[1]});
  }
  if (pairs.size() != rows.size()) return "Q7: duplicate pairs";
  if (per_label.size() != 7) {
    return "Q7: " + std::to_string(per_label.size()) + " labels, want 7";
  }
  for (const auto& [label, n] : per_label) {
    if (n != 3) return "Q7: label " + label + " joined " + std::to_string(n) +
                       " times, want 3";
  }
  return "";
}

std::string CheckQ8(const Rows& rows, size_t tex_attachments) {
  // Attachment i is named draft<i mod 12>.tex; /papers holds draft0..11,
  // /papers/old draft0..8 and /papers/old2 draft0..1. For the paper's seven
  // attachments that is 3+3+5*2 = 16 pairs.
  std::map<std::string, size_t> want;
  size_t total = 0;
  for (size_t i = 0; i < tex_attachments; ++i) {
    size_t k = i % 12;
    size_t copies = 1 + (k < 9 ? 1 : 0) + (k < 2 ? 1 : 0);
    want["draft" + std::to_string(k) + ".tex"] += copies;
    total += copies;
  }
  std::string err = Count("Q8", rows, total);
  if (!err.empty()) return err;
  std::map<std::string, size_t> per_name;
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Row& row : rows) {
    if (row.uris.size() != 2 || row.names.size() != 2) {
      return "Q8: row without two bindings";
    }
    if (!Under(row.uris[0], "imap://") || row.uris[0].find("/att/") ==
                                              std::string::npos) {
      return "Q8: A binding " + row.uris[0] + " is not a mail attachment";
    }
    if (!Under(row.uris[1], "vfs:/papers/")) {
      return "Q8: B binding " + row.uris[1] + " outside //papers";
    }
    if (row.names[0] != row.names[1]) {
      return "Q8: joined names differ: " + row.names[0] + " vs " +
             row.names[1];
    }
    ++per_name[row.names[0]];
    pairs.insert({row.uris[0], row.uris[1]});
  }
  if (pairs.size() != rows.size()) return "Q8: duplicate pairs";
  if (per_name != want) return "Q8: joined names differ from the planted set";
  return "";
}

std::string CheckUriSet(const std::string& what,
                        const std::set<std::string>& expected,
                        const std::vector<std::string>& got) {
  std::set<std::string> got_set(got.begin(), got.end());
  if (got_set.size() != got.size()) return what + ": duplicate rows";
  for (const std::string& uri : expected) {
    if (got_set.count(uri) == 0) return what + ": missing " + uri;
  }
  for (const std::string& uri : got_set) {
    if (expected.count(uri) == 0) return what + ": unexpected " + uri;
  }
  return "";
}

std::string CheckSameRows(const std::string& what, const Rows& expected,
                          const Rows& got) {
  auto key = [](const Rows& rows) {
    std::vector<std::vector<std::string>> out;
    out.reserve(rows.size());
    for (const Row& row : rows) out.push_back(row.uris);
    std::sort(out.begin(), out.end());
    return out;
  };
  if (expected.size() != got.size()) {
    return what + ": " + std::to_string(got.size()) + " rows, want " +
           std::to_string(expected.size());
  }
  if (key(expected) != key(got)) return what + ": rows differ";
  return "";
}

std::string CheckScoresNonIncreasing(const std::string& what,
                                     const std::vector<double>& scores) {
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[i - 1]) {
      return what + ": score rises at rank " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckSample(const std::string& what,
                        const std::map<std::string, bool>& sample,
                        const std::vector<std::string>& got) {
  std::set<std::string> got_set(got.begin(), got.end());
  for (const auto& [uri, holds] : sample) {
    bool returned = got_set.count(uri) > 0;
    if (holds && !returned) return what + ": misses sampled item " + uri;
    if (!holds && returned) {
      return what + ": returns sampled item " + uri + " that lacks the text";
    }
  }
  return "";
}

std::string CheckToken(const std::string& token,
                       const std::set<std::string>& expected_items,
                       const std::vector<std::string>& got) {
  std::set<std::string> items;
  for (const std::string& uri : got) items.insert(BaseItem(uri));
  if (items == expected_items) return "";
  for (const std::string& item : expected_items) {
    if (items.count(item) == 0) return "token " + token + ": misses " + item;
  }
  for (const std::string& item : items) {
    if (expected_items.count(item) == 0) {
      return "token " + token + ": returns " + item + " which does not hold it";
    }
  }
  return "token " + token + ": items differ";
}

}  // namespace perfbench
