#include "probes.h"

namespace perfbench {

using idm::index::CompareOp;
using idm::index::DocId;

namespace {

using idm::iql::OpCode;
using idm::iql::PlanProgram;

Probe MakeProbe(Probe::Kind kind, std::string arg, std::string names = "") {
  Probe probe;
  probe.kind = kind;
  probe.arg = std::move(arg);
  probe.names = std::move(names);
  return probe;
}

/// One program's probes. \p pattern_of tracks which name pattern each
/// register holds, so an expand can tell whether its frontier came from
/// the name index.
void CollectProbes(const PlanProgram& program, bool* live,
                   std::vector<Probe>* probes) {
  std::vector<std::string> pattern_of(program.num_regs);
  bool expanded = false;
  for (const idm::iql::PlanOp& op : program.ops) {
    std::string pattern;  // what r[dst] holds afterwards
    switch (op.code) {
      case OpCode::kLoadLive:
        *live = true;
        break;
      case OpCode::kNameMatch:
        pattern = program.strings[op.str];
        if (pattern.empty() || pattern == "*") {
          *live = true;
        } else {
          probes->push_back(MakeProbe(Probe::Kind::kNamePattern, pattern));
        }
        break;
      case OpCode::kPhrase:
        probes->push_back(
            MakeProbe(Probe::Kind::kPhrase, program.strings[op.str]));
        break;
      case OpCode::kTupleScan: {
        Probe probe = MakeProbe(Probe::Kind::kTupleScan, program.strings[op.str]);
        probe.op = static_cast<CompareOp>(op.flags & 0xF);
        probe.literal_kind =
            static_cast<idm::iql::PredNode::LiteralKind>(op.flags >> 4);
        if (probe.literal_kind == idm::iql::PredNode::LiteralKind::kValue) {
          probe.literal = program.literals[op.aux];
        }
        probes->push_back(std::move(probe));
        break;
      }
      case OpCode::kMove:
        pattern = pattern_of[op.a];
        break;
      case OpCode::kExpand: {
        const std::string& root = pattern_of[op.a];
        if (!expanded && !root.empty() && root != "*") {
          probes->push_back(
              MakeProbe(Probe::Kind::kDescendants, root, pattern_of[op.b]));
        }
        expanded = true;
        break;
      }
      default:
        break;
    }
    bool writes_dst = op.code != OpCode::kJumpIfEmpty &&
                      op.code != OpCode::kJoin &&
                      op.code != OpCode::kMaterialize &&
                      op.code != OpCode::kRankOrClear;
    if (writes_dst && op.dst < pattern_of.size()) pattern_of[op.dst] = pattern;
  }
  for (const auto& sub : program.subs) CollectProbes(*sub, live, probes);
  if (program.join != nullptr) {
    CollectProbes(*program.join->left, live, probes);
    CollectProbes(*program.join->right, live, probes);
  }
}

}  // namespace

std::vector<Probe> ProbesFromPlan(const PlanProgram& plan) {
  std::vector<Probe> probes;
  bool live = false;
  CollectProbes(plan, &live, &probes);
  if (live) probes.insert(probes.begin(), MakeProbe(Probe::Kind::kLive, ""));
  return probes;
}

std::string MetricSuffix(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == ' ') {
      out += '_';
    } else if (c == '*') {
      out += 'x';
    } else if (c == '?') {
      out += 'q';
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-') {
      out += c;
    }
  }
  return out;
}

double ReplayProbes(idm::iql::Dataspace& ds, const std::vector<Probe>& probes,
                    const idm::util::ExecContext::Limits& limits,
                    Tracer* tracer, int64_t group,
                    std::map<std::string, std::vector<double>>* samples) {
  const idm::rvm::ReplicaIndexesModule& module = ds.module();
  const bool governed = limits.any();
  double on_path_ms = 0;
  auto timed = [&](const std::string& metric, bool on_path, auto&& call) {
    Clock::time_point t0 = Clock::now();
    auto result = call();
    Clock::time_point t1 = Clock::now();
    // Keep the result observable so the call cannot be elided.
    if (result.size() == static_cast<size_t>(-1)) std::abort();
    tracer->Record(metric, group, t0, t1);
    (*samples)[metric].push_back(Ms(t0, t1));
    if (on_path) on_path_ms += Ms(t0, t1);
  };
  for (const Probe& probe : probes) {
    switch (probe.kind) {
      case Probe::Kind::kLive:
        timed("index.live_ms", true,
              [&] { return module.catalog().LiveIds(); });
        break;
      case Probe::Kind::kPhrase: {
        std::string suffix = MetricSuffix(probe.arg);
        timed("index.phrase_docs_ms." + suffix, !governed,
              [&] { return module.content().PhraseDocs(probe.arg); });
        idm::util::ExecContext ctx(ds.clock(), limits);
        timed("index.phrase_query_ms." + suffix, governed, [&] {
          return module.content().PhraseQuery(probe.arg,
                                              governed ? &ctx : nullptr);
        });
        break;
      }
      case Probe::Kind::kNamePattern:
        timed("index.name_pattern_ms." + MetricSuffix(probe.arg), true,
              [&] { return module.names().LookupPattern(probe.arg); });
        break;
      case Probe::Kind::kTupleScan: {
        idm::core::Value literal = probe.literal;
        const int64_t now = ds.clock()->NowMicros();
        if (probe.literal_kind == idm::iql::PredNode::LiteralKind::kNow) {
          literal = idm::core::Value::Date(now);
        } else if (probe.literal_kind ==
                   idm::iql::PredNode::LiteralKind::kYesterday) {
          literal = idm::core::Value::Date(now - 86400LL * 1000000LL);
        }
        idm::util::ExecContext ctx(ds.clock(), limits);
        timed("index.tuple_scan_ms." + MetricSuffix(probe.arg), true, [&] {
          return module.tuples().Scan(probe.arg, probe.op, literal,
                                      governed ? &ctx : nullptr);
        });
        break;
      }
      case Probe::Kind::kDescendants: {
        // The VM walks down from the frontier only when the step's name
        // candidates are not far fewer than the frontier (else it walks up
        // from each candidate); replay only the walks it makes.
        std::vector<DocId> roots = module.names().LookupPattern(probe.arg);
        size_t candidates = probe.names == "*"
                                ? module.catalog().live_count()
                                : module.names().LookupPattern(probe.names).size();
        if (candidates * 16 < roots.size()) break;
        idm::util::ExecContext ctx(ds.clock(), limits);
        timed("index.descendants_ms." + MetricSuffix(probe.arg), true, [&] {
          size_t expanded = 0;
          return module.groups().Descendants(
              roots, idm::iql::QueryProcessor::Options().max_expansion,
              &expanded, governed ? &ctx : nullptr);
        });
        break;
      }
    }
  }
  return on_path_ms;
}

}  // namespace perfbench
