#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

// --- Tracer ------------------------------------------------------------------

int Tracer::Begin(const std::string& name, int64_t group) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.group = group;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end = Clock::now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::Record(const std::string& name, int64_t group,
                   Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.group = group;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"group\": %lld}\n",
                 i, s.name.c_str(), Ms(epoch_, s.start) * 1000.0,
                 Ms(epoch_, s.end) * 1000.0, s.parent,
                 static_cast<long long>(s.group));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> Tracer::SelfMsByModule() const {
  // Children of one span run one after another in this single-threaded
  // benchmark, so the covered part is the sum of the children's durations.
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += Ms(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string module = s.name.substr(0, s.name.find('.'));
    self[module] += std::max(0.0, Ms(s.start, s.end) - child_ms[i]);
  }
  return self;
}

// --- statistics and report ---------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 16) errors.push_back(why);
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metric.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<Table4Query>& Table4() {
  static const std::vector<Table4Query> kQueries = {
      {"Q1", "\"database\""},
      {"Q2", "\"database tuning\""},
      {"Q3", "[size > 420000 and lastmodified < @12.06.2005]"},
      {"Q4", "//papers//*Vision/*[\"Franklin\"]"},
      {"Q5", "//VLDB200?//?onclusion*/*[\"systems\"]"},
      {"Q6", "union( //VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])"},
      {"Q7",
       "join( //VLDB2006//*[class=\"texref\"] as A, "
       "//VLDB2006//*[class=\"environment\"]//figure* as B, "
       "A.name=B.tuple.label)"},
      {"Q8",
       "join ( //*[class = \"emailmessage\"]//*.tex as A, "
       "//papers//*.tex as B, A.name = B.name )"},
  };
  return kQueries;
}

uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// --- set-up --------------------------------------------------------------------------

Setup BuildDataspace(const Args& args, idm::iql::Dataspace::Config config) {
  Setup setup;
  setup.spec = args.small ? idm::workload::DataspaceSpec::Small()
                          : idm::workload::DataspaceSpec::PaperScale();
  setup.spec.seed = args.seed;
  auto opened = idm::iql::Dataspace::Open(std::move(config));
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  setup.ds = std::move(opened).value();

  Clock::time_point t0 = Clock::now();
  setup.built = idm::workload::Generate(setup.spec, setup.ds->clock());
  Clock::time_point t1 = Clock::now();
  uint64_t rss_sources = RssBytes();
  auto fs = setup.ds->AddFileSystem("Filesystem", setup.built.fs);
  Clock::time_point t2 = Clock::now();
  auto mail = setup.ds->AddImap("Email / IMAP", setup.built.imap);
  Clock::time_point t3 = Clock::now();
  if (!fs.ok() || !mail.ok()) {
    std::fprintf(stderr, "perfbench: indexing failed: %s\n",
                 (!fs.ok() ? fs.status() : mail.status()).ToString().c_str());
    std::exit(2);
  }
  // A durable dataspace's WAL lives in the in-memory Env, which stands in
  // for the disk: it is not memory the dataspace holds.
  uint64_t rss = RssBytes();
  uint64_t wal = setup.ds->Stats().storage.wal_bytes;
  uint64_t added = rss > rss_sources ? rss - rss_sources : 0;
  setup.index_mem_mb =
      static_cast<double>(added > wal ? added - wal : 0) / (1024.0 * 1024.0);
  setup.generate_s = Ms(t0, t1) / 1000.0;
  setup.index_fs_s = Ms(t1, t2) / 1000.0;
  setup.index_mail_s = Ms(t2, t3) / 1000.0;
  setup.setup_s = Ms(args.process_start, t3) / 1000.0;
  return setup;
}

void ReportSetupLayers(const Setup& setup, Report* report) {
  const double mb = 1024.0 * 1024.0;
  idm::rvm::IndexSizes sizes = setup.ds->module().Sizes();
  report->Set("index.name_mb", sizes.name_bytes / mb, "MB");
  report->Set("index.tuple_mb", sizes.tuple_bytes / mb, "MB");
  report->Set("index.content_mb", sizes.content_bytes / mb, "MB");
  report->Set("index.group_mb", sizes.group_bytes / mb, "MB");
  report->Set("index.catalog_mb", sizes.catalog_bytes / mb, "MB");
  report->Set("workload.generate_s", setup.generate_s, "s");
  report->Set("rvm.index_fs_s", setup.index_fs_s, "s");
  report->Set("rvm.index_mail_s", setup.index_mail_s, "s");
}

}  // namespace perfbench
