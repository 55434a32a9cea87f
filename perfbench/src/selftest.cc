// Self-test of the correctness checks: each check must accept a right
// result and reject deliberately wrong ones (a dropped row, an extra row,
// a row outside the queried path, a stale token, a diverged restart).

#include <cstdio>
#include <functional>

#include "bench.h"
#include "checks.h"

namespace perfbench {

namespace {

Row R(std::vector<std::string> uris, std::vector<std::string> names = {}) {
  if (names.empty()) names.assign(uris.size(), "");
  return {std::move(uris), std::move(names)};
}

Rows GoodQ4() {
  return {R({"vfs:/papers/dataspaces.tex#tex/1/0/1"}),
          R({"vfs:/papers/principles.tex#tex/1/0/1"})};
}

Rows GoodQ5() {
  return {R({"vfs:/VLDB2005/vldb2005 paper.tex#tex/1/1/1"}),
          R({"vfs:/VLDB2006/vldb2006 paper.tex#tex/1/1/1"})};
}

Rows GoodQ7() {
  Rows rows;
  const std::string doc = "vfs:/VLDB2006/vldb2006 paper.tex#tex/1/0/";
  for (int f = 0; f < 7; ++f) {
    for (int r = 0; r < 3; ++r) {
      rows.push_back(R({doc + std::to_string(100 + f * 3 + r),
                        doc + std::to_string(f)},
                       {"fig:vldb2006:" + std::to_string(f), "figure"}));
    }
  }
  return rows;
}

Rows GoodQ8() {
  Rows rows;
  const std::vector<std::string> dirs = {"vfs:/papers/", "vfs:/papers/old/",
                                         "vfs:/papers/old2/"};
  for (int i = 0; i < 7; ++i) {
    std::string name = "draft" + std::to_string(i) + ".tex";
    std::string att = "imap://INBOX/" + std::to_string(i + 1) + "/att/0";
    for (size_t d = 0; d < (i < 2 ? 3u : 2u); ++d) {
      rows.push_back(R({att, dirs[d] + name}, {name, name}));
    }
  }
  return rows;
}

struct Tally {
  int missed = 0;
  void Accept(const std::string& what, const std::string& err) {
    if (!err.empty()) {
      ++missed;
      std::fprintf(stderr, "selftest: %s: right result rejected: %s\n",
                   what.c_str(), err.c_str());
    }
  }
  void Reject(const std::string& what, const std::string& err) {
    if (err.empty()) {
      ++missed;
      std::fprintf(stderr, "selftest: %s: wrong result accepted\n",
                   what.c_str());
    }
  }
};

/// Right rows, then the same rows with one dropped, one extra, and one
/// moved outside the queried path.
void RowVariants(Tally* t, const std::string& what, const Rows& good,
                 const std::function<std::string(const Rows&)>& check) {
  t->Accept(what, check(good));
  Rows dropped(good.begin() + 1, good.end());
  t->Reject(what + " dropped row", check(dropped));
  Rows extra = good;
  extra.push_back(good.front());
  t->Reject(what + " extra row", check(extra));
  Rows outside = good;
  outside.back().uris[0] = "vfs:/elsewhere/x.tex#tex/1";
  t->Reject(what + " row outside path", check(outside));
}

}  // namespace

int RunSelfTest() {
  Tally t;
  RowVariants(&t, "Q4", GoodQ4(), CheckQ4);
  RowVariants(&t, "Q5", GoodQ5(), CheckQ5);
  RowVariants(&t, "Q7", GoodQ7(), CheckQ7);
  RowVariants(&t, "Q8", GoodQ8(),
              [](const Rows& rows) { return CheckQ8(rows, 7); });
  Rows q8_mismatch = GoodQ8();
  q8_mismatch[0].names[1] = "draft9.tex";
  t.Reject("Q8 unequal join names", CheckQ8(q8_mismatch, 7));

  // Set checks (Q3, Q6, restart token results).
  std::set<std::string> want = {"vfs:/a", "vfs:/b", "imap://INBOX/3/att/0"};
  t.Accept("uri set", CheckUriSet("set", want,
                                  {"imap://INBOX/3/att/0", "vfs:/b", "vfs:/a"}));
  t.Reject("uri set dropped row", CheckUriSet("set", want, {"vfs:/a", "vfs:/b"}));
  t.Reject("uri set extra row",
           CheckUriSet("set", want,
                       {"vfs:/a", "vfs:/b", "imap://INBOX/3/att/0", "vfs:/c"}));
  t.Reject("uri set duplicate row",
           CheckUriSet("set", want,
                       {"vfs:/a", "vfs:/b", "imap://INBOX/3/att/0", "vfs:/a"}));

  // Row lists (governed vs ungoverned, subscriptions, restart).
  Rows live = GoodQ8();
  Rows reordered(live.rbegin(), live.rend());
  t.Accept("same rows", CheckSameRows("rows", live, reordered));
  RowVariants(&t, "same rows", live,
              [&](const Rows& got) { return CheckSameRows("rows", live, got); });
  Rows diverged = live;
  diverged[3].uris[1] = "vfs:/papers/draft11.tex";
  t.Reject("diverged restart", CheckSameRows("restart", live, diverged));

  // Ranking order.
  t.Accept("scores", CheckScoresNonIncreasing("Q1", {3.0, 2.5, 2.5, 0.1}));
  t.Reject("rising score", CheckScoresNonIncreasing("Q1", {3.0, 2.5, 2.6}));

  // Tokenization sample, both directions.
  std::map<std::string, bool> sample = {{"vfs:/n1.txt", true},
                                        {"vfs:/n2.txt", false},
                                        {"imap://INBOX/7", true}};
  t.Accept("sample", CheckSample("Q1", sample,
                                 {"vfs:/n1.txt", "imap://INBOX/7", "vfs:/z"}));
  t.Reject("sample misses holder", CheckSample("Q1", sample, {"vfs:/n1.txt"}));
  t.Reject("sample returns non-holder",
           CheckSample("Q1", sample,
                       {"vfs:/n1.txt", "imap://INBOX/7", "vfs:/n2.txt"}));

  // Change tokens: derived views map to their file; a stale token (the
  // item was removed or overwritten) must return nothing.
  t.Accept("token", CheckToken("pb1x3", {"vfs:/d/doc1.tex"},
                               {"vfs:/d/doc1.tex", "vfs:/d/doc1.tex#tex/1/4"}));
  t.Accept("token on mail", CheckToken("pb1x4", {"imap://Sent/9"},
                                       {"imap://Sent/9"}));
  t.Reject("stale token", CheckToken("pb1x5", {}, {"vfs:/d/pbnote5.txt"}));
  t.Reject("token missing", CheckToken("pb1x6", {"vfs:/d/pbnote6.txt"}, {}));
  t.Reject("token in wrong item",
           CheckToken("pb1x7", {"vfs:/d/pbnote7.txt"}, {"vfs:/d/pbnote8.txt"}));

  // The benchmark's own reference computations.
  t.Accept("phrase", HasPhrase(Words("On Database-TUNING, see"),
                               {"database", "tuning"})
                         ? ""
                         : "phrase not found");
  t.Reject("phrase split", HasPhrase(Words("database x tuning"),
                                     {"database", "tuning"})
                               ? ""
                               : "rejected");
  t.Accept("date", UtcMidnightMicros(2005, 1, 1) == 1104537600LL * 1000000LL
                       ? ""
                       : "2005-01-01 is off");
  t.Accept("base item", BaseItem("imap://Projects/OLAP/3/att/0") ==
                                    "imap://Projects/OLAP/3"
                            ? ""
                            : "attachment maps to the wrong message");
  return t.missed;
}

}  // namespace perfbench
