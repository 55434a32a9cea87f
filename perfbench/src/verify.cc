#include "verify.h"

#include <algorithm>
#include <random>

#include "email/imap.h"

namespace perfbench {

SourceItems ListSources(const idm::workload::BuiltDataspace& built) {
  SourceItems items;
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    std::string folder = stack.back();
    stack.pop_back();
    items.folders.push_back(folder);
    auto names = built.fs->List(folder);
    if (!names.ok()) continue;
    for (const std::string& name : *names) {
      std::string path = folder == "/" ? "/" + name : folder + "/" + name;
      auto info = built.fs->Stat(path);
      if (!info.ok()) continue;
      if (info->type == idm::vfs::NodeType::kFolder) stack.push_back(path);
      items.nodes.emplace_back(path, *info);
    }
  }
  auto folders = built.imap->ListFolders();
  if (folders.ok()) {
    for (const std::string& folder : *folders) {
      auto uids = built.imap->ListUids(folder);
      if (!uids.ok()) continue;
      for (uint64_t uid : *uids) items.messages.emplace_back(folder, uid);
    }
  }
  return items;
}

Rows ToRows(const idm::iql::Dataspace& ds,
            const idm::iql::QueryResult& result) {
  Rows rows;
  rows.reserve(result.rows.size());
  for (const auto& ids : result.rows) {
    Row row;
    for (idm::index::DocId id : ids) {
      row.uris.push_back(ds.UriOf(id));
      row.names.push_back(ds.NameOf(id));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

std::string MessageUri(const std::string& folder, uint64_t uid) {
  return "imap://" + folder + "/" + std::to_string(uid);
}

/// Q3 = [size > 420000 and lastmodified < @12.06.2005]: files, folders and
/// links carry (size, creation, last modified); mail attachments carry
/// (size, date, date); messages have no last-modified attribute.
std::set<std::string> ExpectedQ3(const idm::workload::BuiltDataspace& built,
                                 const SourceItems& items) {
  const int64_t cutoff = UtcMidnightMicros(2005, 6, 12);
  std::set<std::string> out;
  auto root = built.fs->Stat("/");
  if (root.ok() && root->meta.size > 420000 && root->meta.modified < cutoff) {
    out.insert("vfs:/");
  }
  for (const auto& [path, info] : items.nodes) {
    if (info.meta.size > 420000 && info.meta.modified < cutoff) {
      out.insert("vfs:" + path);
    }
  }
  idm::email::ImapClient client(built.imap.get());
  for (const auto& [folder, uid] : items.messages) {
    auto message = client.Fetch(folder, uid);
    if (!message.ok()) continue;
    for (size_t i = 0; i < message->attachments.size(); ++i) {
      if (message->attachments[i].data.size() > 420000 &&
          message->date < cutoff) {
        out.insert(MessageUri(folder, uid) + "/att/" + std::to_string(i));
      }
    }
  }
  return out;
}

struct Sample {
  std::map<std::string, bool> q1, q2;
  size_t q1_positive = 0, q2_positive = 0;
};

/// Tokenizes a seeded sample of notes and messages, plus every .tex file
/// (the "database tuning" phrase is planted in LaTeX sections).
Sample TokenizeSample(const idm::workload::BuiltDataspace& built,
                      const SourceItems& items, uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 17);
  std::vector<std::string> notes, tex;
  for (const auto& [path, info] : items.nodes) {
    if (info.type != idm::vfs::NodeType::kFile) continue;
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".txt") == 0) {
      notes.push_back(path);
    } else if (path.size() > 4 &&
               path.compare(path.size() - 4, 4, ".tex") == 0) {
      tex.push_back(path);
    }
  }
  std::shuffle(notes.begin(), notes.end(), rng);
  notes.resize(std::min<size_t>(notes.size(), 300));
  std::vector<std::pair<std::string, uint64_t>> messages = items.messages;
  std::shuffle(messages.begin(), messages.end(), rng);
  messages.resize(std::min<size_t>(messages.size(), 300));

  const std::vector<std::string> q1 = {"database"};
  const std::vector<std::string> q2 = {"database", "tuning"};
  Sample sample;
  auto add = [&](const std::string& uri, const std::string& text) {
    std::vector<std::string> words = Words(text);
    bool has1 = HasPhrase(words, q1), has2 = HasPhrase(words, q2);
    sample.q1[uri] = has1;
    sample.q2[uri] = has2;
    sample.q1_positive += has1;
    sample.q2_positive += has2;
  };
  for (const std::vector<std::string>* paths : {&notes, &tex}) {
    for (const std::string& path : *paths) {
      auto text = built.fs->ReadFile(path);
      if (text.ok()) add("vfs:" + path, *text);
    }
  }
  idm::email::ImapClient client(built.imap.get());
  for (const auto& [folder, uid] : messages) {
    auto message = client.Fetch(folder, uid);
    if (message.ok()) add(MessageUri(folder, uid), message->body);
  }
  return sample;
}

}  // namespace

void VerifyTable4(idm::iql::Dataspace& ds,
                  const idm::workload::BuiltDataspace& built,
                  const SourceItems& items,
                  const std::vector<idm::iql::QueryResult>& results,
                  const idm::workload::DataspaceSpec& spec, Report* report) {
  const uint64_t seed = spec.seed;
  auto check = [&](const std::string& err) {
    if (!err.empty()) report->Fail(err);
  };
  std::vector<Rows> rows;
  for (const auto& result : results) rows.push_back(ToRows(ds, result));

  check(CheckQ4(rows[3]));
  check(CheckQ5(rows[4]));
  check(CheckQ7(rows[6]));
  check(CheckQ8(rows[7], spec.email_tex_attachments));
  check(CheckUriSet("Q3", ExpectedQ3(built, items), FirstUris(rows[2])));

  Sample sample = TokenizeSample(built, items, seed);
  if (sample.q1_positive == 0 || sample.q2_positive == 0) {
    report->Fail("Q1/Q2 sample holds no item with the searched text");
  }
  check(CheckSample("Q1", sample.q1, FirstUris(rows[0])));
  check(CheckSample("Q2", sample.q2, FirstUris(rows[1])));
  check(CheckScoresNonIncreasing("Q1", results[0].scores));
  if (results[0].scores.size() != results[0].rows.size()) {
    report->Fail("Q1: result is not ranked");
  }

  // Q6 equals the union of its two arms run on their own.
  std::set<std::string> arms;
  for (const char* arm : {"//VLDB2005//*[\"documents\"]",
                          "//VLDB2006//*[\"documents\"]"}) {
    auto result = ds.Query(arm);
    if (!result.ok()) {
      report->Fail(std::string("Q6 arm failed: ") + arm);
      continue;
    }
    for (const std::string& uri : FirstUris(ToRows(ds, *result))) {
      arms.insert(uri);
    }
  }
  check(CheckUriSet("Q6", arms, FirstUris(rows[5])));
}

}  // namespace perfbench
