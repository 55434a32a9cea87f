// Workload `churn`: a durable dataspace (WAL on, hermetic storage::MemEnv)
// with the result cache on and three standing subscriptions. The loop
// makes one source change at a time from a seeded mix, each followed by
// sync().ProcessNotifications(), and runs a Table 4 pass after every second
// change. The passes are governed, as loadgen and overload traffic query: a
// step budget every query completes within, which takes the per-posting
// PhraseQuery path and ExecContext ticking. The run ends with Checkpoint(),
// one more cycle of changes (the WAL suffix), and a cold Dataspace::Open of
// the same store.
//
// Change content follows one token scheme: every change writes the marker
// word plus a token unique to the change ("pb<seed>x<n>") and filler words
// that no Table 4 query searches for, so the Table 4 rows stay fixed while
// the benchmark's model knows exactly which source item holds each token.

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>

#include "bench.h"
#include "checks.h"
#include "email/message.h"
#include "passes.h"
#include "storage/env.h"
#include "verify.h"

namespace perfbench {

namespace {

constexpr char kMarker[] = "perfbenchchurn";
constexpr char kStoreDir[] = "store";

/// The change mix: one cycle is a seeded shuffle of one change of each
/// kind below (equal weights: neither the paper nor the repository gives
/// change rates). tex_create and xml_create only run in the warm-up: they
/// make the documents the tex and xml edits change.
enum Kind {
  kCreate, kOverwrite, kRemove, kTexEdit, kXmlEdit, kMail, kTexCreate,
  kXmlCreate, kKinds
};
const char* const kKindNames[kKinds] = {
    "note_create", "note_overwrite", "note_remove", "tex_edit",
    "xml_edit",    "mail",           "tex_create",  "xml_create"};
const Kind kCycle[] = {kCreate, kOverwrite, kRemove, kTexEdit, kXmlEdit, kMail};
/// A Table 4 pass runs after every kChangesPerPass changes.
constexpr size_t kChangesPerPass = 2;
/// The tails are the highest percentiles with ten samples beyond them at
/// the >= 14 cycles (84 changes, 42 passes) a 20 s run makes: p85 of the
/// changes' visibility times and p75 of the pass times (the pass tail is
/// printed on stderr, not a metric: on a shared host it follows the host's
/// slow stretches).
constexpr double kVisibleTail = 0.85;
constexpr double kPassTail = 0.75;

const char* const kFiller[] = {"alpha", "bravo",  "charlie", "delta",
                               "echo",  "foxtrot", "golf",   "hotel",
                               "india", "juliet", "kilo",    "lima"};

/// An edited converter document: its current text and every token the
/// edits inserted.
struct Edited {
  std::string text;
  std::vector<std::string> tokens;
};

struct Subscribed {
  std::string iql;
  std::shared_ptr<idm::sub::Subscription> handle;
  std::multiset<std::vector<idm::index::DocId>> rows;  ///< snapshot + deltas
};

class Churn {
 public:
  Churn(const Args& args, Setup* setup, const SourceItems& items,
        Tracer* tracer, Report* report)
      : args_(args),
        ds_(*setup->ds),
        built_(setup->built),
        tracer_(tracer),
        report_(report),
        rng_(args.seed * 104729 + 3) {
    // New items go anywhere but the folders Table 4 paths name, so the
    // Table 4 rows stay fixed.
    for (const std::string& folder : items.folders) {
      if (folder != "/" && folder.compare(0, 7, "/papers") != 0 &&
          folder.compare(0, 5, "/VLDB") != 0) {
        folders_.push_back(folder);
      }
    }
    auto mail_folders = built_.imap->ListFolders();
    if (mail_folders.ok()) mail_folders_ = *mail_folders;
  }

  /// Standing subscriptions: the marker search (touched by every change)
  /// and two Table 4 paths that churn never touches.
  void Subscribe() {
    for (const std::string& iql :
         {std::string("\"") + kMarker + "\"", std::string(Table4()[3].iql),
          std::string(Table4()[4].iql)}) {
      auto handle = ds_.Subscribe(iql);
      if (!handle.ok()) {
        report_->Fail("subscribe failed: " + handle.status().ToString());
        continue;
      }
      subs_.push_back({iql, *handle, {}});
    }
    DrainSubscriptions(-1);
  }

  /// One change of \p kind, made visible and checked.
  void Change(Kind kind, bool record) {
    int64_t id = static_cast<int64_t>(changes_made_++);
    std::string token = "pb" + std::to_string(args_.seed) + "x" +
                        std::to_string(id);
    Scoped change_span(tracer_, std::string("workload.change.") +
                                    kKindNames[kind], id);
    ++report_->attempted;
    Clock::time_point t0 = Clock::now();
    std::string source_layer;
    std::set<std::string> holders;     // items that must hold `token`
    std::string gone;                  // a token that must return nothing
    bool ok = true;
    switch (kind) {
      case kCreate: {
        std::string path = folders_[rng_() % folders_.size()] + "/pbnote" +
                           std::to_string(id) + ".txt";
        ok = built_.fs->WriteFile(path, Text(token)).ok();
        notes_[path] = token;
        holders.insert("vfs:" + path);
        source_layer = "vfs.write_ms";
        break;
      }
      case kOverwrite: {
        auto it = PickNote();
        gone = it->second;
        ok = built_.fs->WriteFile(it->first, Text(token)).ok();
        it->second = token;
        holders.insert("vfs:" + it->first);
        source_layer = "vfs.write_ms";
        break;
      }
      case kRemove: {
        auto it = PickNote();
        gone = it->second;
        ok = built_.fs->Remove(it->first).ok();
        notes_.erase(it);
        token.clear();
        source_layer = "vfs.remove_ms";
        break;
      }
      case kTexCreate:
      case kXmlCreate: {
        bool tex = kind == kTexCreate;
        std::string path = folders_[rng_() % folders_.size()] + "/pbdoc" +
                           std::to_string(id) + (tex ? ".tex" : ".xml");
        Edited& edited = edited_[path];
        edited.text = tex ? TexDoc(id, token) : XmlDoc(token);
        edited.tokens.push_back(token);
        (tex ? tex_docs_ : xml_docs_).push_back(path);
        ok = built_.fs->WriteFile(path, edited.text).ok();
        holders.insert("vfs:" + path);
        source_layer = "vfs.write_ms";
        break;
      }
      case kTexEdit:
      case kXmlEdit: {
        // Edits accumulate: each inserts one more paragraph (or element)
        // before the document's end, so every earlier token stays held.
        bool tex = kind == kTexEdit;
        const std::vector<std::string>& docs = tex ? tex_docs_ : xml_docs_;
        const std::string& path = docs[rng_() % docs.size()];
        Edited& edited = edited_[path];
        edited.tokens.push_back(token);
        const std::string end = tex ? "\\end{document}" : "</root>";
        std::string insert = tex ? "\n" + Text(token) + "\n"
                                 : "<note>" + Text(token) + "</note>";
        size_t at = edited.text.rfind(end);
        edited.text.insert(at == std::string::npos ? edited.text.size() : at,
                           insert);
        ok = built_.fs->WriteFile(path, edited.text).ok();
        holders.insert("vfs:" + path);
        source_layer = "vfs.write_ms";
        break;
      }
      case kMail: {
        idm::email::Message message;
        message.from = "bench@perfbench.example";
        message.to = {"owner@perfbench.example"};
        message.subject = "perfbench mail " + std::to_string(id);
        message.date = ds_.clock()->NowMicros();
        message.body = Text(token);
        const std::string& folder =
            mail_folders_[rng_() % mail_folders_.size()];
        auto uid = built_.imap->Append(folder, std::move(message));
        ok = uid.ok();
        if (ok) holders.insert("imap://" + folder + "/" + std::to_string(*uid));
        mails_.emplace_back(token, holders.empty() ? "" : *holders.begin());
        source_layer = "email.append_ms";
        break;
      }
      case kKinds:
        break;
    }
    Clock::time_point t1 = Clock::now();
    tracer_->Record(source_layer, id, t0, t1);
    auto synced = ds_.sync().ProcessNotifications();
    Clock::time_point t2 = Clock::now();
    tracer_->Record("rvm.sync", id, t1, t2);
    if (!ok || !synced.ok()) {
      ++report_->failed;
      return;
    }
    if (record) {
      visible_ms_.push_back(Ms(t0, t2));
      sync_ms_total_ += Ms(t1, t2);
      layer_[std::string("rvm.sync_ms.") + kKindNames[kind]].push_back(
          Ms(t1, t2));
      layer_[std::string("rvm.views_per_change.") + kKindNames[kind]]
          .push_back(static_cast<double>(synced->added + synced->updated +
                                         synced->removed));
      layer_[source_layer].push_back(Ms(t0, t1));
      ++changes_recorded_;
    }
    DrainSubscriptions(id, record);

    // The change is queryable: its token returns exactly its holders, and
    // the token it replaced returns nothing.
    Clock::time_point c0 = Clock::now();
    if (!token.empty()) CheckTokenNow(token, holders);
    if (!gone.empty()) CheckTokenNow(gone, {});
    check_ms_ += Ms(c0, Clock::now());
  }

  /// Applies every queued delta to the subscriptions' accumulated rows.
  void DrainSubscriptions(int64_t id, bool record = false) {
    Clock::time_point t0 = Clock::now();
    size_t deltas = 0;
    for (Subscribed& sub : subs_) {
      for (const idm::sub::ResultDelta& delta : sub.handle->Drain()) {
        ++deltas;
        if (delta.snapshot) sub.rows.clear();
        for (const auto& row : delta.added) sub.rows.insert(row);
        for (const auto& row : delta.removed) {
          auto it = sub.rows.find(row);
          if (it == sub.rows.end()) {
            report_->Fail("subscription " + sub.iql + ": delta removes an "
                          "absent row");
          } else {
            sub.rows.erase(it);
          }
        }
        if (!delta.complete) {
          report_->Fail("subscription " + sub.iql + ": degraded delta");
        }
      }
    }
    Clock::time_point t1 = Clock::now();
    tracer_->Record("sub.drain", id, t0, t1);
    if (record) {
      layer_["sub.drain_ms"].push_back(Ms(t0, t1));
      deltas_recorded_ += deltas;
    }
  }

  /// Each subscription's snapshot plus deltas equals a fresh, uncached
  /// evaluation.
  void CheckSubscriptions() {
    Clock::time_point c0 = Clock::now();
    for (const Subscribed& sub : subs_) {
      auto fresh = ds_.processor().Execute(sub.iql);
      if (!fresh.ok()) {
        report_->Fail("fresh query failed: " + sub.iql);
        continue;
      }
      idm::iql::QueryResult accumulated;
      accumulated.rows.assign(sub.rows.begin(), sub.rows.end());
      std::string err = CheckSameRows("subscription " + sub.iql,
                                      ToRows(ds_, *fresh),
                                      ToRows(ds_, accumulated));
      if (!err.empty()) report_->Fail(err);
    }
    check_ms_ += Ms(c0, Clock::now());
  }

  /// Every token the model knows, with the items that must hold it (an
  /// empty set for replaced and removed tokens).
  std::map<std::string, std::set<std::string>> TokenModel() const {
    std::map<std::string, std::set<std::string>> model = retired_;
    for (const auto& [path, token] : notes_) model[token] = {"vfs:" + path};
    for (const auto& [path, edited] : edited_) {
      for (const std::string& token : edited.tokens) model[token] = {"vfs:" + path};
    }
    for (const auto& [token, uri] : mails_) model[token] = {uri};
    return model;
  }

  /// Answers of the current store: Table 4 rows and token results as uris,
  /// plus the live-view count.
  struct Answers {
    std::vector<Rows> table4;
    std::map<std::string, std::vector<std::string>> tokens;
    size_t live = 0;
  };
  static Answers Capture(const idm::iql::Dataspace& ds,
                         const std::map<std::string, std::set<std::string>>&
                             model,
                         Report* report) {
    Answers answers;
    for (const Table4Query& query : Table4()) {
      auto result = ds.Query(query.iql);
      if (!result.ok()) {
        report->Fail(std::string(query.id) + " failed on the captured state");
        answers.table4.emplace_back();
        continue;
      }
      answers.table4.push_back(ToRows(ds, *result));
    }
    for (const auto& [token, holders] : model) {
      auto result = ds.Query("\"" + token + "\"");
      answers.tokens[token] =
          result.ok() ? FirstUris(ToRows(ds, *result))
                      : std::vector<std::string>{"<query failed>"};
    }
    answers.live = ds.module().catalog().live_count();
    return answers;
  }

  size_t changes_recorded() const { return changes_recorded_; }
  size_t deltas_recorded() const { return deltas_recorded_; }
  double sync_ms_total() const { return sync_ms_total_; }
  /// Milliseconds spent in the benchmark's own checks (token queries,
  /// subscription recomputes): not part of the measured work.
  double check_ms() const { return check_ms_; }
  const std::vector<double>& visible_ms() const { return visible_ms_; }
  const std::map<std::string, std::vector<double>>& layer() const {
    return layer_;
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  static bool EndsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  /// The marker, \p token, and filler words.
  std::string Text(const std::string& token) {
    std::string text = std::string(kMarker) + " " + token;
    for (int i = 0; i < 24; ++i) {
      text += ' ';
      text += kFiller[rng_() % std::size(kFiller)];
    }
    return text;
  }

  /// A small paper: two sections, a labeled figure and a reference to it.
  std::string TexDoc(int64_t id, const std::string& token) {
    std::string label = "fig:pb" + std::to_string(id);
    return "\\documentclass{article}\n\\begin{document}\n"
           "\\section{Alpha Part}\n" + Text(token) + "\n"
           "\\begin{figure}\n\\caption{" + Text("") + "}\n\\label{" +
           label + "}\n\\end{figure}\n"
           "\\section{Bravo Part}\nSee \\ref{" + label + "}. " + Text("") +
           "\n\\end{document}\n";
  }

  std::string XmlDoc(const std::string& token) {
    return "<?xml version=\"1.0\"?><root><item id=\"1\">" + Text(token) +
           "</item><list><entry>" + Text("") + "</entry><entry>" + Text("") +
           "</entry></list></root>";
  }

  std::map<std::string, std::string>::iterator PickNote() {
    auto it = notes_.begin();
    std::advance(it, rng_() % notes_.size());
    return it;
  }

  void CheckTokenNow(const std::string& token,
                     const std::set<std::string>& holders) {
    if (holders.empty()) retired_[token] = {};
    auto result = ds_.Query("\"" + token + "\"");
    if (!result.ok()) {
      report_->Fail("token query failed: " + token);
      return;
    }
    std::string err = CheckToken(token, holders, FirstUris(ToRows(ds_, *result)));
    if (!err.empty()) report_->Fail(err);
  }

  const Args& args_;
  idm::iql::Dataspace& ds_;
  const idm::workload::BuiltDataspace& built_;
  Tracer* tracer_;
  Report* report_;
  std::mt19937_64 rng_;
  std::vector<std::string> folders_, tex_docs_, xml_docs_, mail_folders_;
  std::map<std::string, std::string> notes_;   ///< churn note -> token
  std::map<std::string, Edited> edited_;       ///< edited document
  std::vector<std::pair<std::string, std::string>> mails_;  ///< token, uri
  std::map<std::string, std::set<std::string>> retired_;
  std::vector<Subscribed> subs_;
  size_t changes_made_ = 0, changes_recorded_ = 0, deltas_recorded_ = 0;
  double sync_ms_total_ = 0, check_ms_ = 0;
  std::vector<double> visible_ms_;
  std::map<std::string, std::vector<double>> layer_;
};

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void RunChurn(const Args& args, Tracer* tracer, Report* report) {
  idm::storage::MemEnv env;
  idm::iql::Dataspace::Config config;
  config.storage_dir = kStoreDir;
  config.env = &env;
  Setup setup = BuildDataspace(args, config);
  idm::iql::Dataspace& ds = *setup.ds;
  SourceItems items = ListSources(setup.built);

  idm::iql::QueryOptions governed;
  governed.limits.max_steps = uint64_t{1} << 40;
  PassRunner runner(&ds, governed, tracer);
  std::vector<idm::iql::QueryResult> reference = runner.TakeReference(report);
  VerifyTable4(ds, setup.built, items, reference, setup.spec, report);

  Churn churn(args, &setup, items, tracer, report);
  churn.Subscribe();
  // Warm-up, not recorded: notes and converter documents for the
  // overwrites, removes and edits to change from the first cycle on, and
  // one pass.
  for (Kind kind : {kCreate, kCreate, kCreate, kCreate, kTexCreate,
                    kTexCreate, kXmlCreate, kXmlCreate}) {
    churn.Change(kind, /*record=*/false);
  }
  runner.Run(-1, /*record=*/false, /*ordered=*/false, report);
  churn.CheckSubscriptions();

  // The measured phase runs whole cycles; the checks' own time is taken
  // out of it.
  idm::iql::DataspaceStats before = ds.Stats();
  const double checks_before_ms = churn.check_ms() + runner.check_ms();
  auto checks_ms = [&] {
    return churn.check_ms() + runner.check_ms() - checks_before_ms;
  };
  Clock::time_point start = Clock::now();
  int64_t pass = 0;
  std::vector<double> cycle_ms;  // without the checks
  while (Ms(start, Clock::now()) - checks_ms() < args.seconds * 1000.0) {
    Clock::time_point cycle_start = Clock::now();
    const double cycle_checks_ms = checks_ms();
    std::vector<Kind> cycle(std::begin(kCycle), std::end(kCycle));
    std::shuffle(cycle.begin(), cycle.end(), churn.rng());
    for (size_t i = 0; i < cycle.size(); ++i) {
      churn.Change(cycle[i], /*record=*/true);
      if ((i + 1) % kChangesPerPass == 0) {
        runner.Run(pass++, /*record=*/true, /*ordered=*/false, report);
      }
    }
    churn.CheckSubscriptions();
    cycle_ms.push_back(Ms(cycle_start, Clock::now()) -
                       (checks_ms() - cycle_checks_ms));
  }
  const size_t cycles = cycle_ms.size();
  const double checks_s = checks_ms() / 1000.0;
  double measured_s = Ms(start, Clock::now()) / 1000.0 - checks_s;
  idm::iql::DataspaceStats after = ds.Stats();

  // Checkpoint, then one more cycle of changes: the WAL suffix a restart
  // replays on top of the checkpoint image.
  Clock::time_point c0 = Clock::now();
  idm::Status checkpointed = ds.Checkpoint();
  Clock::time_point c1 = Clock::now();
  ++report->attempted;
  if (!checkpointed.ok()) ++report->failed;
  for (Kind kind : kCycle) churn.Change(kind, /*record=*/false);
  churn.CheckSubscriptions();
  if (!ds.SyncStorage().ok()) report->Fail("SyncStorage failed");
  uint64_t checkpoint_bytes = 0;
  auto files = env.ListDir(kStoreDir);
  if (files.ok()) {
    for (const std::string& name : *files) {
      if (name.compare(0, 11, "checkpoint-") != 0) continue;
      auto image = env.ReadFile(std::string(kStoreDir) + "/" + name);
      if (image.ok()) checkpoint_bytes = std::max<uint64_t>(checkpoint_bytes,
                                                            image->size());
    }
  }

  if (args.trace) ReportSetupLayers(setup, report);

  // Cold restart from the same store; the live store is closed first.
  auto model = churn.TokenModel();
  auto live = Churn::Capture(ds, model, report);
  for (const auto& [token, holders] : model) {
    std::string err = CheckToken(token, holders, live.tokens[token]);
    if (!err.empty()) report->Fail(err);
  }
  setup.ds.reset();
  Clock::time_point r0 = Clock::now();
  auto reopened = idm::iql::Dataspace::Open(config);
  Clock::time_point r1 = Clock::now();
  ++report->attempted;
  uint64_t replayed = 0;
  if (!reopened.ok()) {
    ++report->failed;
  } else {
    replayed = (*reopened)->recovery_stats().replayed_mutations;
    auto restarted = Churn::Capture(**reopened, model, report);
    for (size_t q = 0; q < Table4().size(); ++q) {
      std::string err = CheckSameRows(
          std::string("restart ") + Table4()[q].id, live.table4[q],
          restarted.table4[q]);
      if (!err.empty()) report->Fail(err);
    }
    for (const auto& [token, uris] : live.tokens) {
      std::set<std::string> want(uris.begin(), uris.end());
      std::string err = CheckUriSet("restart token " + token, want,
                                    restarted.tokens[token]);
      if (!err.empty()) report->Fail(err);
    }
    if (restarted.live != live.live) {
      report->Fail("restart: " + std::to_string(restarted.live) +
                   " live views, want " + std::to_string(live.live));
    }
  }

  size_t changes = churn.changes_recorded();
  size_t queries = runner.passes() * Table4().size();
  std::fprintf(stderr,
               "perfbench: churn: %zu cycles, %zu changes, %zu passes in "
               "%.2f s (plus %.2f s of checks, %.1f ops/s); pass p50 %.1f "
               "ms, p%.0f %.1f ms; restart %.2f s replaying %llu "
               "mutations\n",
               cycles, changes, runner.passes(), measured_s, checks_s,
               (queries + changes) / measured_s, Median(runner.pass_ms()),
               kPassTail * 100, Percentile(runner.pass_ms(), kPassTail),
               Ms(r0, r1) / 1000, static_cast<unsigned long long>(replayed));
  if (!args.trace) {
    report->Set("setup_s", setup.setup_s, "s");
    report->Set("index_mem_mb", setup.index_mem_mb, "MB");
    runner.ReportEndToEnd(report);
    // Every cycle makes the same changes and passes: the cycle time at
    // kTimingPercentile gives the rate.
    report->Set("ops_per_s",
                static_cast<double>(queries + changes) / cycles * 1000.0 /
                    Percentile(cycle_ms, kTimingPercentile),
                "1/s");
    return;
  }
  runner.ReportLayers(report);
  for (const auto& [name, samples] : churn.layer()) {
    report->Set(name, Median(samples),
                name.find("views_per_change") != std::string::npos ? "count"
                                                                   : "ms");
  }
  report->Set("rvm.visible_ms", Median(churn.visible_ms()), "ms");
  report->Set("rvm.visible_tail_ms",
              Percentile(churn.visible_ms(), kVisibleTail), "ms");
  report->Set("rvm.changes_per_s",
              changes / std::max(1e-9, churn.sync_ms_total() / 1000.0), "1/s");
  report->Set("storage.restart_s", Ms(r0, r1) / 1000.0, "s");
  report->Set("storage.checkpoint_ms", Ms(c0, c1), "ms");
  report->Set("storage.checkpoint_mb", checkpoint_bytes / (1024.0 * 1024.0),
              "MB");
  report->Set("storage.replayed_mutations", static_cast<double>(replayed),
              "count");
  report->Set("storage.wal_bytes_per_change",
              Ratio(after.storage.wal_bytes - before.storage.wal_bytes, changes),
              "bytes");
  const auto& cb = before.cache;
  const auto& ca = after.cache;
  uint64_t lookups = (ca.hits + ca.misses) - (cb.hits + cb.misses);
  uint64_t bumps = (ca.footprint_survived + ca.stale_skipped) -
                   (cb.footprint_survived + cb.stale_skipped);
  report->Set("iql.cache_hit_ratio", Ratio(ca.hits - cb.hits, lookups), "ratio");
  report->Set("iql.cache_lookups", static_cast<double>(lookups), "count");
  report->Set("iql.cache_survival_ratio",
              Ratio(ca.footprint_survived - cb.footprint_survived, bumps),
              "ratio");
  report->Set("iql.cache_epoch_bumps", static_cast<double>(bumps), "count");
  const auto& sb = before.subscriptions;
  const auto& sa = after.subscriptions;
  uint64_t examined = (sa.skipped + sa.fastpath + sa.recomputes) -
                      (sb.skipped + sb.fastpath + sb.recomputes);
  report->Set("sub.pump_skip_ratio", Ratio(sa.skipped - sb.skipped, examined),
              "ratio");
  report->Set("sub.deltas_per_change", Ratio(churn.deltas_recorded(), changes),
              "count");
}

}  // namespace perfbench
